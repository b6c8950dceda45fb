"""The benchmark's own correctness gate and traced run, on small generator clips.

`perfbench/workloads.py` calls the package through a few one-clip entry
points (`model.forward`, `train.total_loss`, `transport.transport_loss`),
and `perfbench/layers.py` hooks public functions by name and reads their
results (`Coupling.converged`, the `_backward` of a `gw_pair_cost` output).
This runs the gate functions and a short traced `train()`, so an API change
that breaks the benchmark fails here too.
"""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "perfbench"), str(HERE)]

import gen  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, hooked  # noqa: E402

import vlgraph.graph as vg  # noqa: E402
import vlgraph.model as vm  # noqa: E402
import vlgraph.train as vt  # noqa: E402


def gate_setup(dim=8):
    cfg = vt.TrainConfig(dim=dim, seed=0)
    width = workloads.WIDTH
    clips = [vg.parse_clip(rec) for rec in
             gen.make_records(0, workloads.TRAIN, 2, workloads.PAPER, width)]
    params = vm.init_params(cfg, width, width, width, np.random.default_rng(11))
    return cfg, clips, params


def test_benchmark_gate_passes_on_small_clips():
    cfg, clips, params = gate_setup()
    assert workloads._grad_check_ok(cfg, clips[0], params, seed=0)
    assert workloads._no_grad_matches(clips, params, cfg)
    out = workloads.Outcome()
    lat_ms, probs = [], []
    assert workloads._infer_pass(clips, params, cfg, out, lat_ms, probs) == 2
    assert out.attempted == 2 and out.failed == 0 and len(lat_ms) == 2
    assert workloads._probabilities_ok(probs)


def test_benchmark_gate_passes_at_paper_width():
    # at dim=512 the gate and weight products are large enough to run in row
    # blocks (`tensor._product`), which must give the same bits with and
    # without a tape and the same gradients as finite differences
    cfg, clips, params = gate_setup(dim=512)
    assert workloads._no_grad_matches(clips, params, cfg)
    assert workloads._grad_check_ok(cfg, clips[0], params, seed=0)


def test_traced_training_run_finds_every_hook():
    cfg = vt.TrainConfig(dim=8, seed=0, epochs=1, effective_batch=4)
    width = workloads.WIDTH
    clips = [vg.parse_clip(rec) for rec in
             gen.make_records(0, workloads.TRAIN, 4, workloads.PAPER, width)]
    tracer = Tracer()
    with hooked(tracer, layers.hooks()) as missing:
        res = vt.train(clips, clips[:2], {"d_v": width, "d_s": width, "d_h": width}, cfg)
    assert missing == []
    assert len(res.metrics) == 1
    metrics = layers.per_layer(tracer, 4, 1.0, 1.0, len(missing))
    assert metrics["trace.hooks_missing"] == 0
    for span in ("transport.solve_plan", "transport.sinkhorn", "tensor.gw_pair_cost",
                 "tensor.gw_pair_cost.backward", "tensor.cosine_cost"):
        assert tracer.stats(span).calls > 0, span
    assert metrics["transport.sinkhorn.calls_per_solve"] >= 1
    assert 0 < metrics["transport.converged_ratio"]
