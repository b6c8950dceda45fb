"""The layers of `vlgraph` as the traced run sees them.

`hooks()` lists the public functions to time, patched where their callers
look them up: `train` binds `forward`, `backward`, `transport_loss`,
`contrastive_loss` and `init_params` into its own namespace, `model.forward`
calls its stages through `vlgraph.model`, and `transport` calls tensor ops
as `tn.*`, so those are patched on `vlgraph.tensor`. Span names are
`<module>.<function>`; in-program timers should reuse them.

`DESIGN` records, for every per-layer metric, which end-to-end metric it
should move and on which workloads, so that later changes can cite it by name.
"""

from __future__ import annotations

import vlgraph.tensor as vtensor

from spans import Hook, Tracer

TRANSPORT_SPANS = ("transport.solve_plan", "transport.sinkhorn", "transport.transport_loss",
                   "tensor.gw_pair_cost", "tensor.gw_pair_cost.backward")

ALL = ("train-paper", "train-longseg", "infer-paper")
TRAINING = ("train-paper", "train-longseg")

# per-layer metric -> (end-to-end metrics it should move, workloads it moves them on)
DESIGN: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "tensor.backward.self_ms_per_clip": (("clips_per_s",), ("train-paper",)),
    "tensor.backward.self_share": (("clips_per_s",), ("train-paper",)),
    "tensor.tape_nodes_per_clip": (("clips_per_s", "peak_rss_mb"), TRAINING),
    "model.forward.self_ms_per_clip": (("infer_ms_p50", "clips_per_s"), ALL),
    "model.refine_segment.self_ms_per_clip": (("infer_ms_p50", "clips_per_s"), ("infer-paper", "train-paper")),
    "model.reason_over_segments.self_ms_per_clip": (("infer_ms_p50", "clips_per_s"), ("infer-paper", "train-paper")),
    "model.extract_queries.self_ms_per_clip": (("infer_ms_p50",), ("infer-paper",)),
    "model.predict_global.self_ms_per_clip": (("infer_ms_p50",), ("infer-paper",)),
    "model.queries_per_clip": (("infer_ms_p50",), ("infer-paper",)),
    "model.halted_early_ratio": (("infer_ms_p50",), ("infer-paper",)),
    "graph.build_clip_graph.self_ms_per_clip": (("infer_ms_p50",), ALL),
    "graph.segments_per_clip": (("infer_ms_p50",), ALL),
    "graph.nodes_per_segment": (("infer_ms_p50",), ALL),
    "transport.solve_plan.self_ms_per_clip": (("clips_per_s",), ("train-longseg",)),
    "transport.sinkhorn.self_ms_per_clip": (("clips_per_s",), ("train-longseg",)),
    "transport.sinkhorn.calls_per_solve": (("clips_per_s",), ("train-longseg",)),
    "transport.converged_ratio": (("clips_per_s",), ("train-longseg",)),
    "transport.transport_loss.self_ms_per_clip": (("clips_per_s", "peak_rss_mb"), ("train-longseg",)),
    "tensor.gw_pair_cost.self_ms_per_clip": (("clips_per_s", "peak_rss_mb"), ("train-longseg",)),
    "tensor.gw_pair_cost.backward.self_ms_per_clip": (("clips_per_s", "peak_rss_mb"), ("train-longseg",)),
    "tensor.cosine_cost.self_ms_per_clip": (("clips_per_s", "peak_rss_mb"), ("train-longseg",)),
    "transport.self_share": (("clips_per_s",), ("train-longseg",)),
    "mi.contrastive_loss.self_ms_per_clip": (("clips_per_s",), ("train-paper",)),
    "mi.pairs_per_clip": (("clips_per_s",), ("train-paper",)),
    "mi.skipped_ratio": (("clips_per_s",), ("train-paper",)),
    "train.Adam.step.ms_per_step": (("clips_per_s", "peak_rss_mb"), ("train-paper",)),
    "train.total_loss.self_ms_per_clip": (("clips_per_s",), TRAINING),
    "train.evaluate_accuracy.ms_per_epoch": (("clips_per_s",), TRAINING),
    "train.other_ms_per_clip": (("clips_per_s",), TRAINING),
    "graph.read_dataset.ms": (("setup_s",), ALL),
    "train.load_checkpoint.ms": (("setup_s",), ("infer-paper",)),
    "model.init_params.ms": (("setup_s",), TRAINING),
    "trace.wall_ms_per_clip": ((), ALL),
    "trace.hooks_missing": ((), ALL),
    "tracing_overhead_ratio": ((), ALL),
}


def _probe() -> int:
    """Next tape id; creating the probe itself consumes one."""
    return vtensor.Tensor(0.0).tape_id


def hooks() -> list[Hook]:
    tape_start = [0]

    def open_tape(tracer: Tracer) -> None:
        tape_start[0] = _probe()

    def close_tape(tracer: Tracer, _bundle) -> None:
        # tensors created from the clip's forward entry to its loss exit
        tracer.count("tape_nodes", _probe() - tape_start[0] - 1)
        tracer.count("tape_clips")

    def queries(tracer: Tracer, qs) -> None:
        tracer.count("queries", qs.n_queries)
        tracer.count("halted_early", float(qs.stopped_early))

    def clip_graph(tracer: Tracer, graph) -> None:
        tracer.count("segments", graph.n_segments)
        tracer.count("nodes", sum(v.shape[1] for v in graph.visual)
                     + sum(t.shape[1] for t in graph.text))

    def coupling(tracer: Tracer, cp) -> None:
        tracer.count("converged", float(cp.converged))

    def pair_backward(tracer: Tracer, out) -> None:
        # the (n, m, n, m) gradient runs later, inside backward(); give it its own span
        closure = getattr(out, "_backward", None)
        if closure is not None:
            out._backward = tracer.wrap("tensor.gw_pair_cost.backward", closure)

    def contrastive(tracer: Tracer, res) -> None:
        tracer.count("pairs", res.n_pairs)
        tracer.count("skipped", res.n_skipped)

    return [
        Hook("vlgraph.train", "train", "train.train"),
        Hook("vlgraph.train", "forward", "model.forward", before=open_tape),
        Hook("vlgraph.model", "forward", "model.forward", before=open_tape),
        Hook("vlgraph.train", "total_loss", "train.total_loss", after=close_tape),
        Hook("vlgraph.train", "backward", "tensor.backward"),
        Hook("vlgraph.train", "transport_loss", "transport.transport_loss"),
        Hook("vlgraph.train", "contrastive_loss", "mi.contrastive_loss", after=contrastive),
        Hook("vlgraph.train", "Adam.step", "train.Adam.step"),
        Hook("vlgraph.train", "evaluate_accuracy", "train.evaluate_accuracy"),
        Hook("vlgraph.train", "init_params", "model.init_params"),
        Hook("vlgraph.model", "init_params", "model.init_params"),
        Hook("vlgraph.train", "load_checkpoint", "train.load_checkpoint"),
        Hook("vlgraph.graph", "read_dataset", "graph.read_dataset"),
        Hook("vlgraph.model", "build_clip_graph", "graph.build_clip_graph", after=clip_graph),
        Hook("vlgraph.model", "refine_segment", "model.refine_segment"),
        Hook("vlgraph.model", "extract_queries", "model.extract_queries", after=queries),
        Hook("vlgraph.model", "reason_over_segments", "model.reason_over_segments"),
        Hook("vlgraph.model", "predict_global", "model.predict_global"),
        Hook("vlgraph.transport", "solve_plan", "transport.solve_plan", after=coupling),
        Hook("vlgraph.transport", "sinkhorn", "transport.sinkhorn"),
        Hook("vlgraph.tensor", "gw_pair_cost", "tensor.gw_pair_cost", after=pair_backward),
        Hook("vlgraph.tensor", "cosine_cost", "tensor.cosine_cost"),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, clips: int, wall_s: float, overhead_ratio: float,
              missing: int) -> dict[str, float]:
    """Per-layer metrics from `clips` traced clips that took `wall_s` in all.

    Per-clip spans are divided by the clips of the workload's own loop, so on
    training workloads they include each clip's share of the accuracy pass.
    A span that never ran reads 0.
    """
    count = tracer.counts.get

    def self_ms(span: str) -> float:
        return 1000.0 * _ratio(tracer.stats(span).self_s, clips)

    def ms_per_call(span: str) -> float:
        st = tracer.stats(span)
        return 1000.0 * _ratio(st.total_s, st.calls)

    wall_ms = 1000.0 * _ratio(wall_s, clips)
    graphs = tracer.stats("graph.build_clip_graph").calls
    solves = tracer.stats("transport.solve_plan").calls
    query_states = tracer.stats("model.extract_queries").calls
    pairs = count("pairs", 0.0)
    metrics = {f"{span}.self_ms_per_clip": self_ms(span) for span in (
        "tensor.backward", "model.forward", "model.refine_segment",
        "model.reason_over_segments", "model.extract_queries", "model.predict_global",
        "graph.build_clip_graph", "transport.solve_plan", "transport.sinkhorn",
        "transport.transport_loss", "tensor.gw_pair_cost", "tensor.gw_pair_cost.backward",
        "tensor.cosine_cost",
        "mi.contrastive_loss", "train.total_loss",
    )}
    metrics.update({
        "tensor.backward.self_share": _ratio(self_ms("tensor.backward"), wall_ms),
        "tensor.tape_nodes_per_clip": _ratio(count("tape_nodes", 0.0), count("tape_clips", 0.0)),
        "model.queries_per_clip": _ratio(count("queries", 0.0), query_states),
        "model.halted_early_ratio": _ratio(count("halted_early", 0.0), query_states),
        "graph.segments_per_clip": _ratio(count("segments", 0.0), graphs),
        "graph.nodes_per_segment": _ratio(count("nodes", 0.0), count("segments", 0.0)),
        "transport.sinkhorn.calls_per_solve": _ratio(tracer.stats("transport.sinkhorn").calls, solves),
        "transport.converged_ratio": _ratio(count("converged", 0.0), solves),
        "transport.self_share": _ratio(sum(self_ms(s) for s in TRANSPORT_SPANS), wall_ms),
        "mi.pairs_per_clip": _ratio(pairs, tracer.stats("mi.contrastive_loss").calls),
        "mi.skipped_ratio": _ratio(count("skipped", 0.0), pairs + count("skipped", 0.0)),
        "train.Adam.step.ms_per_step": ms_per_call("train.Adam.step"),
        "train.evaluate_accuracy.ms_per_epoch": ms_per_call("train.evaluate_accuracy"),
        "train.other_ms_per_clip": self_ms("train.train"),
        "graph.read_dataset.ms": ms_per_call("graph.read_dataset"),
        "train.load_checkpoint.ms": ms_per_call("train.load_checkpoint"),
        "model.init_params.ms": ms_per_call("model.init_params"),
        "trace.wall_ms_per_clip": wall_ms,
        "trace.hooks_missing": float(missing),
        "tracing_overhead_ratio": overhead_ratio,
    })
    return metrics
