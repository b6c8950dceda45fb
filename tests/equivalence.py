"""Output equivalence of two versions of `vlgraph`, as two dumps and a compare.

    PYTHONPATH=src python tests/equivalence.py dump out.npz
    python tests/equivalence.py compare reference.npz candidate.npz [--rtol 1e-12]

`dump` runs the `vlgraph` package found on the import path (point
PYTHONPATH at another checkout's `src` to dump that version) and records:

- every case of `test_golden.py`: probability, the six loss floats, query
  count and every parameter's full gradient array;
- 40 benchmark-generator clips of each benchmark shape (`paper` at dim 512,
  `longseg` at dim 32, seed 0), with both coherence terms and a filled
  negative buffer: each clip's probability, loss floats and query count, the
  full gradient of the clips' summed loss, and the Sinkhorn calls, solves
  and converged solves, all counted per segment (`_SolveCounter`). The clips
  run in the version's own sub-windows (`vlgraph.train.sub_windows`), each
  with one loss bundle of a row per term, so this compares versions that
  run clips in lockstep and take the loss once per sub-window;
- `train()` on both benchmark training configurations: the per-epoch
  metrics and the final parameters.

`compare` checks every float array of the candidate against the reference
to `rtol` times the reference array's largest magnitude (for a gradient
array, the largest magnitude of the whole gradient it belongs to), and
every integer array for equality. It prints the worst entry of each group and exits 1 if
any check fails. Not collected by pytest (the name has no `test_` prefix).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

GEN_CLIPS = 40
LOSS_KEYS = ("l_ent", "l_qe_surrogate", "l_qe_literal", "l_cm", "l_cl", "total")
METRIC_KEYS = ("epoch", "acc", "l_ent", "l_qe_surrogate", "l_qe_literal", "l_cm", "l_cl", "mean_N")


def _golden(out: dict) -> None:
    import test_golden as tg
    import vlgraph.model as vm
    import vlgraph.train as vt
    from vlgraph.mi import NegativeBuffer
    from vlgraph.tensor import backward

    for case in sorted(tg.CASES):
        for seed in tg.SEEDS:
            cfg = vt.TrainConfig(dim=tg.DIM, seed=seed, **tg.CASES[case])
            params = vm.init_params(cfg, tg.RAW, tg.RAW, tg.RAW, np.random.default_rng(seed))
            buffer = NegativeBuffer(cfg.neg_buffer)
            rng = np.random.default_rng([seed, 29])
            buffer.push([rng.standard_normal(tg.DIM) for _ in range(6)])
            clip = tg.golden_clip(seed, tg.LAYOUTS.get(case, tg.LAYOUT))
            bundle, trace = vt.run_clips([clip], params, cfg, buffer)
            key = f"golden/{case}/{seed}"
            out[f"{key}/prob"] = np.array([trace.prob.item()])
            out[f"{key}/losses"] = np.array([bundle.as_floats()[0][k] for k in LOSS_KEYS])
            out[f"{key}/n_queries"] = np.array([trace.n_queries])
            for name, g in backward(bundle.total, params).items():
                out[f"{key}/grad/{name}"] = g.copy()


class _SolveCounter:
    """Counts Sinkhorn calls, solves and converged solves per segment while
    installed. A version that solves one segment per call counts one of
    each per call; a batched one counts the segments along the leading axis
    of each Sinkhorn cost, the segments of each solve (its `rounds` entries)
    and its count of converged segments."""

    def __init__(self) -> None:
        self.calls = self.solves = self.converged = 0

    def __enter__(self) -> "_SolveCounter":
        import vlgraph.transport as vot

        self._sinkhorn, self._solve = vot.sinkhorn, vot.solve_plan

        def sinkhorn(cost, *args, **kwargs):
            self.calls += np.shape(cost)[0] if np.ndim(cost) == 3 else 1
            return self._sinkhorn(cost, *args, **kwargs)

        def solve_plan(*args, **kwargs):
            coupling = self._solve(*args, **kwargs)
            self.solves += np.size(coupling.rounds)
            self.converged += int(coupling.converged)
            return coupling

        vot.sinkhorn, vot.solve_plan = sinkhorn, solve_plan
        return self

    def __exit__(self, *exc) -> None:
        import vlgraph.transport as vot

        vot.sinkhorn, vot.solve_plan = self._sinkhorn, self._solve


def _generated(out: dict, workloads) -> None:
    import gen
    import vlgraph.graph as vg
    import vlgraph.model as vm
    import vlgraph.train as vt
    from vlgraph.mi import NegativeBuffer
    from vlgraph.tensor import backward

    for name, workload in (("paper", "train-paper"), ("longseg", "train-longseg")):
        w = workloads.WORKLOADS[workload]
        cfg = vt.TrainConfig(dim=w.dim, seed=0)
        records = gen.make_records(0, workloads.HELDOUT, GEN_CLIPS, w.shape, workloads.WIDTH)
        clips = [vg.parse_clip(rec) for rec in records]
        width = workloads.WIDTH
        params = vm.init_params(cfg, width, width, width, np.random.default_rng(11))
        buffer = NegativeBuffer(cfg.neg_buffer)
        buffer.push(list(np.random.default_rng(12).standard_normal((32, cfg.dim))))
        params.zero_grad()
        rows = []
        with _SolveCounter() as counter:
            for run in vt.sub_windows(clips):
                losses, batch = vt.run_clips(run, params, cfg, buffer)
                backward(losses.total.sum())
                rows += zip(batch.prob.data[0], losses.as_floats(), batch.query.counts)
        out[f"{name}/prob"] = np.array([r[0] for r in rows])
        out[f"{name}/losses"] = np.array([[r[1][k] for k in LOSS_KEYS] for r in rows])
        out[f"{name}/n_queries"] = np.array([r[2] for r in rows])
        out[f"{name}/sinkhorn_calls"] = np.array([counter.calls])
        out[f"{name}/solves"] = np.array([counter.solves, counter.converged])
        for pname, p in params.items():
            out[f"{name}/grad/{pname}"] = p.form_grad(np.empty_like(p.data))
        params.zero_grad()


def _trained(out: dict, workloads) -> None:
    import gen
    import vlgraph.graph as vg
    import vlgraph.train as vt

    for name in ("train-paper", "train-longseg"):
        w = workloads.WORKLOADS[name]
        width = workloads.WIDTH
        split = {stream: [vg.parse_clip(rec) for rec in
                          gen.make_records(0, stream, count, w.shape, width)]
                 for stream, count in ((workloads.TRAIN, w.train_clips),
                                       (workloads.VAL, w.val_clips))}
        header = {"d_v": width, "d_s": width, "d_h": width}
        res = vt.train(split[workloads.TRAIN], split[workloads.VAL], header, w.config(0))
        out[f"{name}/metrics"] = np.array([[m[k] for k in METRIC_KEYS] for m in res.metrics])
        for pname, p in res.params.items():
            out[f"{name}/param/{pname}"] = p.data.copy()


def dump(path: str) -> None:
    # the benchmark's generator and shapes, and the golden cases
    sys.path[:0] = [str(HERE.parent / "perfbench"), str(HERE)]
    import workloads

    out: dict[str, np.ndarray] = {}
    _golden(out)
    _generated(out, workloads)
    _trained(out, workloads)
    np.savez(path, **out)
    print(f"wrote {len(out)} arrays to {path}")


def _scale_of(key: str) -> str:
    """The arrays whose largest magnitude scales `key`'s errors: a gradient
    array is judged against the whole gradient it belongs to, since a
    parameter whose gradient is all rounding (`temporal.gate` at dim 512)
    has no scale of its own; every other array against itself."""
    return key.split("/grad/")[0] + "/grad/" if "/grad/" in key else key


def compare(reference: str, candidate: str, rtol: float) -> bool:
    ref, cand = np.load(reference), np.load(candidate)
    ok = True
    missing = sorted(set(ref.files) ^ set(cand.files))
    if missing:
        ok = False
        print(f"FAIL arrays in only one dump: {missing}")
    scales: dict[str, float] = {}
    for key in ref.files:
        scales[_scale_of(key)] = max(scales.get(_scale_of(key), 0.0),
                                     float(np.max(np.abs(ref[key]), initial=0.0)))
    worst: dict[str, tuple[float, str]] = {}
    for key in sorted(set(ref.files) & set(cand.files)):
        want, got = ref[key], cand[key]
        parts = key.split("/")
        group = f"{parts[0]}/{parts[-2] if parts[-2] in ('grad', 'param') else parts[-1]}"
        if want.shape != got.shape:
            ok = False
            print(f"FAIL {key}: shape {got.shape} is not {want.shape}")
            continue
        if np.issubdtype(want.dtype, np.integer):
            err = 0.0 if np.array_equal(want, got) else np.inf
        else:
            scale = scales[_scale_of(key)]
            diff = np.max(np.abs(got - want), initial=0.0)
            err = diff / scale if scale else (0.0 if diff == 0.0 else np.inf)
        if err > rtol:
            ok = False
            print(f"FAIL {key}: relative error {err:.3g} > {rtol:g}")
        if err >= worst.get(group, (-1.0, ""))[0]:
            worst[group] = (err, key)
    for group, (err, key) in sorted(worst.items()):
        print(f"{group:24s} worst relative error {err:.3g} ({key})")
    print("equivalent" if ok else "NOT equivalent", f"at rtol {rtol:g}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dump").add_argument("path")
    cmp = sub.add_parser("compare")
    cmp.add_argument("reference")
    cmp.add_argument("candidate")
    cmp.add_argument("--rtol", type=float, default=1e-12)
    args = parser.parse_args()
    if args.command == "dump":
        dump(args.path)
        return 0
    return 0 if compare(args.reference, args.candidate, args.rtol) else 1


if __name__ == "__main__":
    sys.exit(main())
