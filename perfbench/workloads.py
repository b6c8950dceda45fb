"""Benchmark workloads: seeded inputs, closed-loop timing and the correctness gate.

Load shape: one process and one caller in a closed loop. Each clip starts
after the previous one finishes, as in `vlgraph.train.train` and
`evaluate_accuracy`. Training workloads time whole `train()` calls, which
include the accuracy pass at the end of every epoch; after each call they
time one inference pass over held-out clips with the trained parameters,
so that latency samples spread over the run like the training calls do.
The inference workload times `vlgraph.model.forward` under `no_grad`, one
clip per call, with parameters that went through a checkpoint file.

Latency percentiles are taken per pass and the median over passes is
reported, so a burst of contention on a shared machine moves the result
only if it covers most passes. Throughput is clips over seconds summed
over all timed calls.

Every package call goes through its module attribute (`vt.train`, not a
bound name), so the traced run's hooks see it.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import vlgraph.graph as vg
import vlgraph.model as vm
import vlgraph.train as vt
import vlgraph.transport as vot
from vlgraph.errors import VlgraphError
from vlgraph.mi import NegativeBuffer
from vlgraph.tensor import grad_check, no_grad

import layers
from gen import ClipShape, make_records, write_jsonl
from spans import Tracer, hooked

WIDTH = 32                 # raw d_v = d_s = d_h, as in the ROADMAP baseline
SETUP_REPS = 7             # set-up is repeated and its median reported
GRAD_COORDS = 6            # parameter coordinates per finite-difference check
GRAD_TOL = 1e-4            # worst relative error the check accepts
EQUAL_CLIPS = 3            # clips whose no_grad and taped probabilities must match
MIN_PASSES = 3             # timed calls a run makes however short it is
TRAIN, VAL, HELDOUT = 0, 1, 2   # generator streams of one seed

PAPER = ClipShape(lines=(2, 6), frames=(2, 4), tokens=(2, 4), clauses=(2, 4))
LONGSEG = ClipShape(lines=(1, 3), frames=(24, 48), tokens=(12, 24), clauses=(2, 4))


@dataclass(frozen=True)
class Workload:
    name: str
    shape: ClipShape
    dim: int
    train_clips: int = 0   # 0 means an inference-only workload
    val_clips: int = 0
    epochs: int = 0
    heldout_clips: int = 200   # one inference pass; at least 10 samples beyond p95

    @property
    def trains(self) -> bool:
        return self.train_clips > 0

    def config(self, seed: int) -> vt.TrainConfig:
        return vt.TrainConfig(dim=self.dim, effective_batch=16, epochs=self.epochs, seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload("train-paper", PAPER, dim=512, train_clips=16, val_clips=8, epochs=3),
    Workload("train-longseg", LONGSEG, dim=32, train_clips=48, val_clips=16, epochs=3),
    Workload("infer-paper", PAPER, dim=512),
)}


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)   # printed before the metrics
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


@dataclass
class Inputs:
    header: dict
    train: list
    val: list
    heldout: list
    params: object = None      # ParamStore loaded from the checkpoint (inference)


def _write_inputs(w: Workload, seed: int, workdir: str) -> dict[str, str]:
    paths = {}
    for split, stream, count in (("train", TRAIN, w.train_clips), ("val", VAL, w.val_clips),
                                 ("heldout", HELDOUT, w.heldout_clips)):
        if count:
            paths[split] = os.path.join(workdir, f"{split}.jsonl")
            write_jsonl(paths[split], make_records(seed, stream, count, w.shape, WIDTH), WIDTH)
    return paths


def _setup(w: Workload, seed: int, paths: dict[str, str]) -> Inputs:
    """What a user runs before the first clip: load data, then build or load
    the model (training: `init_params`, `Adam` and the negative buffer as
    `train()` does on entry; inference: `load_checkpoint`)."""
    header, heldout = vg.read_dataset(paths["heldout"])
    if not w.trains:
        ckpt = vt.load_checkpoint(paths["checkpoint"])
        return Inputs(header, [], [], heldout, ckpt.params)
    _, train = vg.read_dataset(paths["train"])
    _, val = vg.read_dataset(paths["val"])
    cfg = w.config(seed)
    params = vm.init_params(cfg.model_config(), WIDTH, WIDTH, WIDTH, np.random.default_rng(seed))
    vt.Adam(params, cfg.lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    NegativeBuffer(cfg.neg_buffer)
    return Inputs(header, train, val, heldout)


def _timed(seconds: float, step: Callable[[bool], float], alternate: bool,
           min_calls: int) -> None:
    """Run `step(traced)` at least `min_calls` times, then until another
    call would likely overrun `seconds`.

    With `alternate`, calls go untraced, traced, untraced, ... and the loop
    only ends after a traced call, so both kinds run at least once.
    """
    durations: list[float] = []
    start = time.perf_counter()
    n = 0
    while True:
        durations.append(step(alternate and n % 2 == 1))
        n += 1
        if n < min_calls or (alternate and n % 2):
            continue
        ahead = statistics.median(durations) * (2 if alternate else 1)
        if time.perf_counter() - start + ahead > seconds:
            return


def _infer_pass(clips: list, params, mcfg: vm.ModelConfig, out: Outcome,
                lat_ms: list[float], probs: list[float]) -> int:
    """Forward every clip once under no_grad; returns the clips that ran."""
    done = 0
    with no_grad():
        for clip in clips:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                p = vm.forward(clip, params, mcfg).prob.item()
            except VlgraphError:
                out.failed += 1
                continue
            lat_ms.append(1000.0 * (time.perf_counter() - t0))
            probs.append(p)
            done += 1
    return done


def _probabilities_ok(probs: list[float]) -> bool:
    return bool(probs) and all(math.isfinite(p) and 0.0 < p < 1.0 for p in probs)


def _no_grad_matches(clips: list, params, mcfg: vm.ModelConfig) -> bool:
    for clip in clips[:EQUAL_CLIPS]:
        with no_grad():
            quiet = vm.forward(clip, params, mcfg).prob.item()
        if vm.forward(clip, params, mcfg).prob.item() != quiet:
            return False
    return True


def _grad_check_ok(cfg: vt.TrainConfig, clip, params, seed: int) -> bool:
    """Finite differences on a few coordinates of one clip's total loss,
    with the query count and the transport plans pinned."""
    mcfg = cfg.model_config()
    first = vm.forward(clip, params, mcfg)
    frozen = vm.FrozenDecisions(n_queries=first.n_queries)
    _, plans = vot.transport_loss(first.segments, cfg.ot_config())
    rng = np.random.default_rng([seed, 3])
    buffer = NegativeBuffer(cfg.neg_buffer)
    buffer.push([rng.standard_normal(cfg.dim) for _ in range(32)])

    def loss():
        trace = vm.forward(clip, params, mcfg, frozen=frozen)
        return vt.total_loss(trace, clip.label, params, cfg, buffer, frozen_plans=plans).total

    names = [str(n) for n in rng.choice(params.names(), size=GRAD_COORDS, replace=False)]
    coords = [(n, int(rng.integers(params[n].data.size))) for n in names]
    report = grad_check(loss, params, coords=coords)
    return report.n_checked == len(coords) and report.passed(GRAD_TOL)


def _throughput(runs: list[tuple[int, float]]) -> float:
    """Clips per second over all timed calls together."""
    seconds = sum(dt for _, dt in runs)
    return sum(n for n, _ in runs) / seconds if seconds else 0.0


def _epochs_ok(metrics: list[dict], epochs: int) -> bool:
    return len(metrics) == epochs and all(
        math.isfinite(v) for m in metrics for v in m.values()
    ) and all(0.0 <= m["acc"] <= 1.0 for m in metrics)


def run(w: Workload, seed: int, seconds: float, traced: bool, workdir: str) -> Outcome:
    out = Outcome()
    tracer = Tracer() if traced else None

    def hooks(on: bool):
        return hooked(tracer, layers.hooks()) if on else nullcontext([])

    paths = _write_inputs(w, seed, workdir)
    cfg = w.config(seed)
    mcfg = cfg.model_config()
    saved = None
    if not w.trains:
        saved = vm.init_params(mcfg, WIDTH, WIDTH, WIDTH, np.random.default_rng(seed))
        paths["checkpoint"] = os.path.join(workdir, "model.ckpt")
        vt.save_checkpoint(paths["checkpoint"], saved, cfg)

    setup_s = []
    with hooks(traced) as missing:
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            data = _setup(w, seed, paths)
            setup_s.append(time.perf_counter() - t0)

    clips_done = {False: 0, True: 0}
    wall_s = {False: 0.0, True: 0.0}
    # untraced (clips, seconds) per train() call and per inference pass
    train_runs: list[tuple[int, float]] = []
    infer_runs: list[tuple[int, float]] = []
    pass_pct: list[np.ndarray] = []   # untraced (p50, p95) latency per pass, ms
    probs: list[float] = []
    reference: dict[str, object] = {}
    state: dict[str, object] = {"params": data.params}

    def infer_pass(params, on: bool) -> float:
        pass_lat: list[float] = []
        pass_probs: list[float] = []
        with hooks(on):
            t0 = time.perf_counter()
            done = _infer_pass(data.heldout, params, mcfg, out, pass_lat, pass_probs)
            dt = time.perf_counter() - t0
        if not w.trains:
            clips_done[on] += done
            wall_s[on] += dt
        if not on:
            infer_runs.append((done, dt))
            if pass_lat:
                pass_pct.append(np.percentile(pass_lat, [50, 95]))
        probs.extend(pass_probs)
        # the same parameters give the same probabilities, hooks or not
        reference.setdefault("probs", pass_probs)
        out.checks["infer_repeatable"] = (out.checks.get("infer_repeatable", True)
                                          and pass_probs == reference["probs"])
        return dt

    def train_step(on: bool) -> float:
        clips = w.train_clips * w.epochs
        out.attempted += clips
        with hooks(on):
            t0 = time.perf_counter()
            try:
                res = vt.train(data.train, data.val, data.header, cfg)
            except VlgraphError:
                res = None
            dt = time.perf_counter() - t0
        if res is None:
            # without hooks the clips a failed call completed are unknown
            out.failed += clips
            return dt
        clips_done[on] += clips
        wall_s[on] += dt
        if not on:
            train_runs.append((clips, dt))
        # train() is deterministic given the seed and data, hooks or not
        reference.setdefault("metrics", res.metrics)
        out.checks["train_repeatable"] = (out.checks.get("train_repeatable", True)
                                          and res.metrics == reference["metrics"])
        out.checks["train_finite"] = (out.checks.get("train_finite", True)
                                      and _epochs_ok(res.metrics, w.epochs))
        state["params"] = res.params
        return dt + infer_pass(res.params, on=False)

    _timed(seconds, train_step if w.trains else lambda on: infer_pass(data.params, on),
           alternate=traced, min_calls=MIN_PASSES)
    params = state["params"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # correctness gate, outside the timed region
    out.checks["probabilities_in_unit_interval"] = _probabilities_ok(probs)
    if params is not None:
        out.checks["no_grad_matches_tape"] = _no_grad_matches(data.heldout, params, mcfg)
    if w.trains:
        out.checks["grad_check"] = params is not None and _grad_check_ok(
            cfg, data.train[0], params, seed)
    else:
        out.checks["checkpoint_roundtrip"] = all(
            np.array_equal(data.params[n].data, p.data.astype("<f4").astype(np.float64))
            for n, p in saved.items()
        ) and data.params.names() == saved.names()

    if traced:
        traced_rate = clips_done[True] / wall_s[True] if wall_s[True] else 0.0
        plain_rate = clips_done[False] / wall_s[False] if wall_s[False] else 0.0
        out.metrics = layers.per_layer(
            tracer, clips_done[True], wall_s[True],
            traced_rate / plain_rate if plain_rate else 0.0, len(missing))
        out.lines = [f"hooks_missing {missing}", f"traced_clips {clips_done[True]}"]
        return out

    p50, p95 = (float(v) for v in np.median(pass_pct or [np.zeros(2)], axis=0))
    infer_rate = _throughput(infer_runs)
    rate = _throughput(train_runs) if w.trains else infer_rate
    out.metrics = {
        "clips_per_s": rate,
        "infer_ms_p50": p50,
        "infer_ms_p95": p95,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_s),
    }
    n = f"median over {len(pass_pct)} passes of {w.heldout_clips} clips"
    out.lines = [f"train_clips_per_s {rate:.6g} clips/s ({len(train_runs)} train() calls)"
                 ] if w.trains else []
    out.lines += [
        f"infer_clips_per_s {infer_rate:.6g} clips/s ({len(infer_runs)} passes)",
        f"infer_ms_p50 {p50:.6g} ms ({n})",
        f"infer_ms_p95 {p95:.6g} ms ({n})",
        f"peak_rss_mb {peak_rss_mb:.6g} MB",
        f"setup_s {out.metrics['setup_s']:.6g} s (median of {SETUP_REPS})",
        f"failed_ratio {out.failed / max(out.attempted, 1):.6g} ratio ({out.failed}/{out.attempted})",
    ]
    return out
