import dataclasses
import gc
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import vlgraph
from vlgraph import synth
from vlgraph.errors import ContractError, EmptyInputError, FormatError, NumericalError
from vlgraph.graph import Clip, FrameNode, SubtitleLine, parse_clip, read_dataset, validate_dataset
from vlgraph.mi import NegativeBuffer
from vlgraph.model import forward, forward_batch, init_params, param_shapes
from vlgraph.tensor import ParamStore, Tensor, backward
from vlgraph.train import (
    CKPT_DTYPE,
    CKPT_MAGIC,
    Adam,
    TrainConfig,
    evaluate,
    evaluate_accuracy,
    load_checkpoint,
    run_clips,
    save_checkpoint,
    sub_windows,
    total_loss,
    train,
)

DIMS = (32, 32, 32)
HEADER = {"d_v": 32, "d_s": 32, "d_h": 32}


def small_cfg(**kw):
    base = dict(dim=16, lr=1e-3, effective_batch=4, epochs=1, seed=0,
                ot_sinkhorn_iters=100, ot_gw_outer_iters=3)
    base.update(kw)
    return TrainConfig(**base)


def clips_of(n, seed=0, difficulty=1.0):
    return [parse_clip(r) for r in synth.generate_records(seed, n, DIMS, difficulty)]


# ------------------------------------------------------------------- losses

def test_training_step_leaves_no_reference_cycles():
    # a dropped tape is freed at once, not when the cycle collector next runs,
    # so tapes of past clips do not pile up in memory
    cfg = small_cfg()
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(1))
    buffer = NegativeBuffer(8)
    buffer.push([np.ones(cfg.dim)])
    clip = clips_of(1)[0]
    gc.collect()
    gc.disable()
    try:
        bundle, trace = run_clips([clip], params, cfg, buffer)
        backward(bundle.total, params)
        del bundle, trace
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_entropy_loss_at_half_is_ln2():
    cfg = small_cfg(alpha=0.0, beta=0.0, query_cost=0.0)
    rng = np.random.default_rng(0)
    params = init_params(cfg.model_config(), *DIMS, rng)
    params["head.hidden.w"].data[:] = 0.0
    params["head.hidden.b"].data[:] = 0.0
    params["head.out.w"].data[:] = 0.0
    params["head.out.b"].data[:] = 0.0
    clip = clips_of(1)[0]
    for label in (0, 1):
        clip.label = label
        bundle, trace = run_clips([clip], params, cfg)
        assert trace.prob.item() == 0.5
        assert abs(bundle.ent.item() - math.log(2.0)) <= 1e-12


@pytest.mark.parametrize("logit", [40.0, 60.0, 800.0])
def test_entropy_loss_of_confident_wrong_logit_is_the_logit(logit):
    cfg = small_cfg(alpha=0.0, beta=0.0, query_cost=0.0)
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(0))
    params["head.out.w"].data[:] = 0.0
    params["head.out.b"].data[:] = logit
    clip = [c for c in clips_of(4) if c.label == 0][0]
    bundle, trace = run_clips([clip], params, cfg)
    assert trace.logit.item() == logit
    assert abs(bundle.as_floats()[0]["l_ent"] - logit) <= 1e-9


def test_total_reduces_to_entropy_when_weights_zero():
    cfg = small_cfg(alpha=0.0, beta=0.0, query_cost=0.0)
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(1))
    bundle, _ = run_clips([clips_of(1)[0]], params, cfg)
    assert bundle.total.item() == bundle.ent.item()
    assert bundle.qe.item() == 0.0 and bundle.cm.item() == 0.0 and bundle.cl.item() == 0.0


def test_total_is_exact_sum_of_components():
    cfg = small_cfg()
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(2))
    bundle, _ = run_clips([clips_of(1)[0]], params, cfg, NegativeBuffer(8))
    expected = ((bundle.ent.item() + bundle.qe.item()) + bundle.cm.item()) + bundle.cl.item()
    assert bundle.total.item() == expected
    example = ((0.693 + 0.16) + 0.02) + 0.05
    assert abs(example - 0.923) <= 1e-12


def test_loss_components_finite_and_signed_as_specified():
    cfg = small_cfg()
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(3))
    for clip in clips_of(6, seed=5):
        bundle, _ = run_clips([clip], params, cfg, NegativeBuffer(16))
        vals = bundle.as_floats()[0]
        assert all(math.isfinite(v) for v in vals.values())
        assert vals["l_ent"] >= 0.0 and vals["l_qe_surrogate"] >= 0.0 and vals["l_cm"] >= 0.0


def test_nonfinite_loss_aborts_with_component_name():
    cfg = small_cfg()
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(4))
    params["head.out.w"].data[:] = np.nan
    bundle, _ = run_clips([clips_of(1)[0]], params, cfg)
    with pytest.raises(NumericalError, match="l_ent"):
        bundle.check_finite(["clip"])


def test_nonfinite_loss_in_training_names_the_clip_and_epoch(monkeypatch):
    clips = clips_of(3)
    bad = clips[1].clip_id

    def forward_with_nan_logit(clips, params, cfg, frozen=None):
        batch = forward_batch(clips, params, cfg, frozen)
        ids = np.array([clip.clip_id for clip in clips])
        batch.logit = Tensor(np.where(ids == bad, math.nan, batch.logit.data))
        return batch

    monkeypatch.setattr("vlgraph.train.forward_batch", forward_with_nan_logit)
    with pytest.raises(NumericalError, match=rf"clip '{re.escape(bad)}', epoch 1: loss component l_ent"):
        train(clips, [], HEADER, small_cfg())


def test_nonfinite_loss_names_the_clip_not_the_first_of_its_sub_window(monkeypatch):
    seen = []

    def forward_with_nan_logits(clips, params, cfg, frozen=None):
        batch = forward_batch(clips, params, cfg, frozen)
        seen.append([clip.clip_id for clip in clips])
        batch.logit = Tensor(np.where(np.arange(len(clips)) > 0, math.nan, batch.logit.data))
        return batch

    monkeypatch.setattr("vlgraph.train.SUB_WINDOW_NODES", 10 ** 6)
    monkeypatch.setattr("vlgraph.train.forward_batch", forward_with_nan_logits)
    with pytest.raises(NumericalError) as err:
        train(clips_of(3), [], HEADER, small_cfg())
    assert len(seen) == 1 and len(seen[0]) == 3
    assert str(err.value).startswith(f"clip {seen[0][1]!r}, epoch 1: loss component l_ent")


# ---------------------------------------------------------------- optimizer

def test_zero_learning_rate_leaves_parameters_unchanged():
    cfg = small_cfg(lr=0.0, epochs=1)
    clips = clips_of(8)
    result = train(clips, [], HEADER, cfg)
    fresh = init_params(cfg.model_config(), *DIMS, np.random.default_rng(cfg.seed))
    for name, p in result.params.items():
        assert np.array_equal(p.data, fresh[name].data), name


def test_training_is_deterministic_given_seed(tmp_path):
    cfg = small_cfg(epochs=2)
    clips = clips_of(10)
    r1 = train(clips, [], HEADER, cfg)
    r2 = train(clips, [], HEADER, cfg)
    assert r1.metrics[0]["l_ent"] == r2.metrics[0]["l_ent"]
    assert r1.metrics == r2.metrics
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(str(p1), r1.params, cfg)
    save_checkpoint(str(p2), r2.params, cfg)
    assert p1.read_bytes() == p2.read_bytes()


def test_gradient_accumulation_matches_mean_loss_step():
    cfg = small_cfg(alpha=0.0, beta=0.0)  # keep both paths plan-free
    clips = clips_of(4)
    rng_seed = 7

    def fresh():
        return init_params(cfg.model_config(), *DIMS, np.random.default_rng(rng_seed))

    # accumulate per-clip gradients, then one scaled step
    pa = fresh()
    opt_a = Adam(pa, cfg.lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    for clip in clips:
        bundle, _ = run_clips([clip], pa, cfg)
        backward(bundle.total, pa)
    opt_a.step(grad_scale=1.0 / len(clips))

    # one step on the mean loss
    pb = fresh()
    opt_b = Adam(pb, cfg.lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    from vlgraph import tensor as tn
    losses = [run_clips([clip], pb, cfg)[0].total for clip in clips]
    mean_loss = tn.mul(tn.concat(losses, axis=0).sum(), 1.0 / len(clips))
    backward(mean_loss, pb)
    opt_b.step()

    for name, p in pa.items():
        assert np.allclose(p.data, pb[name].data, atol=1e-10), name


def reference_adam_steps(params, grads, lr, b1, b2, eps, grad_scale):
    """The textbook Adam update with full-size temporaries: the oracle for
    the in-place `Adam.step`. `grads` holds one {name: grad or None} per step."""
    data = {name: p.data.copy() for name, p in params.items()}
    m = {name: np.zeros_like(d) for name, d in data.items()}
    v = {name: np.zeros_like(d) for name, d in data.items()}
    for t, step in enumerate(grads, start=1):
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for name in sorted(data):
            g = (step[name] if step[name] is not None else np.zeros_like(data[name])) * grad_scale
            m[name] *= b1
            m[name] += (1 - b1) * g
            v[name] *= b2
            v[name] += (1 - b2) * g * g
            data[name] -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
    return data


def test_adam_step_is_bitwise_the_reference_update():
    rng = np.random.default_rng(21)
    # "wide" spans several of the step's blocks, the last one partial
    shapes = {"big": (7, 9), "col": (5, 1), "idle": (3, 4), "small": (2, 2), "wide": (300, 400)}
    ps = ParamStore()
    for name, shape in shapes.items():
        ps.add(name, rng.standard_normal(shape))
    grads = [{name: (None if name == "idle" and t != 1 else rng.standard_normal(shape) * 10.0 ** t)
              for name, shape in shapes.items()} for t in range(4)]
    want = reference_adam_steps(ps, grads, 3e-3, 0.9, 0.999, 1e-8, 0.25)
    opt = Adam(ps, 3e-3, 0.9, 0.999, 1e-8)
    for step in grads:
        for name, p in ps.items():
            p.grad = None if step[name] is None else step[name].copy()
        opt.step(grad_scale=0.25)
    for name, p in ps.items():
        assert np.array_equal(p.data, want[name]), name
        # the step reads the gradients and leaves them as they were
        assert grads[-1][name] is None or np.array_equal(p.grad, grads[-1][name]), name


# ------------------------------------------- weight gradients per window

def one_segment_clip(seed=3):
    rng = np.random.default_rng(seed)
    frames = [FrameNode(t=0.2 + 0.5 * k, feature=rng.standard_normal(DIMS[0])) for k in range(3)]
    subs = [SubtitleLine(t0=0.0, t1=2.0, tokens=rng.standard_normal((2, DIMS[1])))]
    return Clip(clip_id="one-segment", frames=frames, subs=subs,
                statement=rng.standard_normal((DIMS[2], 3)), label=1)


def window_setup():
    """Both coherence terms on, a filled buffer, and four clips, the last
    of them a one-segment clip."""
    cfg = small_cfg(alpha=0.1, beta=0.1)
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(5))
    buffer = NegativeBuffer(16)
    buffer.push(list(np.random.default_rng(6).standard_normal((16, cfg.dim))))
    return cfg, params, buffer, clips_of(3) + [one_segment_clip()]


def test_window_gradient_is_the_sum_of_per_clip_gradients():
    cfg, params, buffer, clips = window_setup()
    want = {name: np.zeros_like(p.data) for name, p in params.items()}
    for clip in clips:
        params.zero_grad()
        for name, g in backward(run_clips([clip], params, cfg, buffer)[0].total, params).items():
            want[name] += g
    params.zero_grad()
    for clip in clips:
        backward(run_clips([clip], params, cfg, buffer)[0].total)
    assert len(params["temporal.gate.w"].factors) == len(clips)
    for name, p in params.items():
        got = p.form_grad(np.empty_like(p.data))
        assert np.linalg.norm(got - want[name]) <= 1e-12 * np.linalg.norm(want[name]), name


def test_no_gate_input_stack_is_kept_for_the_backward():
    # every gate reads [guidance; nodes; guidance] through a (d, 3d) weight;
    # neither the tape of a sub-window nor the weight factors left for the
    # optimizer step hold that (3d, n) stack
    cfg, params, buffer, clips = window_setup()
    loss = run_clips(clips, params, cfg, buffer)[0].total.sum()
    seen, stack, stacks = set(), [loss], []
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stacks += [t.shape] if t.shape[0] == 3 * cfg.dim else []
            stack.extend(t._parents)
    assert len(seen) > 100 and stacks == []
    backward(loss)
    gates = ("inter.v", "inter.s", "intra.v", "intra.s", "pool.fuse", "temporal.gate")
    for name in gates:
        factors = params[f"{name}.w"].factors
        assert len(factors) == 1 and len(factors[0]) == 3, name
        assert all(x.shape[0] == cfg.dim for _, x, _ in factors[0]), name


def test_adam_step_forms_the_deferred_weight_gradients():
    cfg, _, buffer, clips = window_setup()
    clips = clips[:3]

    def window(form_in_backward):
        params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(5))
        opt = Adam(params, cfg.lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
        for i, clip in enumerate(clips):
            loss = run_clips([clip], params, cfg, buffer)[0].total
            backward(loss, params if form_in_backward and i == len(clips) - 1 else None)
        return params, opt

    deferred, opt = window(form_in_backward=False)
    # no full-size weight gradient exists before the step
    assert deferred["inter.v.w"].grad is None
    opt.step(grad_scale=1.0 / len(clips))
    formed, opt_formed = window(form_in_backward=True)
    assert not formed["inter.v.w"].factors
    opt_formed.step(grad_scale=1.0 / len(clips))
    for name, p in deferred.items():
        assert np.array_equal(p.data, formed[name].data), name


def test_zero_grad_between_clips_keeps_only_the_second_clip():
    cfg, params, buffer, clips = window_setup()
    backward(run_clips([clips[0]], params, cfg, buffer)[0].total)
    params.zero_grad()
    got = {name: g.copy() for name, g in
           backward(run_clips([clips[1]], params, cfg, buffer)[0].total, params).items()}
    params.zero_grad()
    want = backward(run_clips([clips[1]], params, cfg, buffer)[0].total, params)
    for name, g in want.items():
        assert np.array_equal(got[name], g), name


def benchmark_clips(shape: str, count: int) -> list[Clip]:
    """`count` clips of a benchmark workload shape (`workloads.PAPER` or
    `LONGSEG`), drawn by the benchmark's generator from seed 0."""
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import gen
    import workloads

    return [parse_clip(rec) for rec in gen.make_records(
        0, workloads.TRAIN, count, getattr(workloads, shape), workloads.WIDTH)]


def nodes_of(clip: Clip) -> int:
    return len(clip.frames) + sum(line.tokens.shape[0] for line in clip.subs)


def windows_within(clips: list[Clip], cap: int) -> list[list[str]]:
    """Clip ids of the runs of consecutive clips whose nodes stay within `cap`."""
    runs, nodes = [], cap + 1
    for clip in clips:
        if nodes + nodes_of(clip) > cap:
            runs.append([])
            nodes = 0
        runs[-1].append(clip.clip_id)
        nodes += nodes_of(clip)
    return runs


def test_sub_windows_are_sized_by_model_width():
    cap = vlgraph.train.SUB_WINDOW_NODES
    # at the paper's width, exactly the windows of a fixed 128-node cap
    paper = benchmark_clips("PAPER", 64)
    windows = [[clip.clip_id for clip in run] for run in sub_windows(paper, 512)]
    assert windows == windows_within(paper, 128)
    assert max(len(run) for run in windows) > 1
    # at dim=32 the dense (nodes x nodes) arrays cap the windows, not the width
    longseg = benchmark_clips("LONGSEG", 48)
    runs = list(sub_windows(longseg, 32))
    assert [clip.clip_id for run in runs for clip in run] == [clip.clip_id for clip in longseg]
    sizes = [sum(map(nodes_of, run)) for run in runs]
    assert max(sizes) > 128 and max(sizes) <= cap
    # a clip beyond the cap runs alone
    big = dataclasses.replace(longseg[0], clip_id="big",
                              frames=longseg[0].frames * (cap // len(longseg[0].frames) + 1))
    assert nodes_of(big) > cap
    clips = longseg[1:3] + [big] + longseg[3:5]
    assert [[clip.clip_id for clip in run] for run in sub_windows(clips, 32)] \
        == windows_within(longseg[1:3], cap) + [["big"]] + windows_within(longseg[3:5], cap)


def test_training_in_sub_windows_matches_one_clip_at_a_time(monkeypatch):
    cfg = small_cfg(alpha=0.1, beta=0.1, epochs=2, effective_batch=8)
    clips, val = clips_of(12), clips_of(6, seed=1)
    assert max(len(run) for run in sub_windows(clips[:8], cfg.dim)) > 1
    batched = train(clips, val, HEADER, cfg)
    monkeypatch.setattr("vlgraph.train.SUB_WINDOW_NODES", 1)
    assert all(len(run) == 1 for run in sub_windows(clips, cfg.dim))
    alone = train(clips, val, HEADER, cfg)
    for got, want in zip(batched.metrics, alone.metrics):
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-12 * abs(value), (got["epoch"], key, got[key], value)
    for name, p in alone.params.items():
        got = batched.params[name].data
        assert np.max(np.abs(got - p.data)) <= 1e-12 * np.max(np.abs(p.data)), name


# --------------------------------------------------------------- evaluation

# Minor page faults of three train() calls on 8 clips of 48 frames, which
# run one sub-window each at dim=32, in a fresh interpreter: there no large
# block freed earlier has raised glibc's trim threshold yet.
FAULTS_PER_TRAIN_CALL = """
import resource
import numpy as np
from vlgraph.graph import Clip, FrameNode, SubtitleLine
from vlgraph.train import TrainConfig, train
rng = np.random.default_rng(0)
clips = [Clip(f"c{i}", [FrameNode((j + 0.5) / 24, rng.normal(size=32)) for j in range(48)],
              [SubtitleLine(k, k + 1, rng.normal(size=(12, 32))) for k in range(2)],
              rng.normal(size=(32, 3)), i % 2) for i in range(8)]
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(clips, [], {"d_v": 32, "d_s": 32, "d_h": 32}, TrainConfig(dim=32, epochs=1, seed=0))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap trimming")
def test_training_does_not_fault_its_tape_back_in_each_sub_window():
    # without `_keep_freed_tapes` each later call took 1,900-2,900 faults, with it 8-25
    src = os.path.dirname(os.path.dirname(vlgraph.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_TRAIN_CALL], env=env,
                         capture_output=True, text=True, check=True).stdout
    _, *later = map(int, out.split())
    assert max(later) < 500, later


def test_evaluate_accuracy_tie_breaks_to_zero():
    cfg = small_cfg()
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(5))
    for name in ("head.hidden.w", "head.hidden.b", "head.out.w", "head.out.b"):
        params[name].data[:] = 0.0
    clips = clips_of(10)
    acc = evaluate_accuracy(clips, params, cfg.model_config())
    frac_zero = sum(1 for c in clips if c.label == 0) / len(clips)
    assert acc == frac_zero


def test_evaluate_all_correct_is_one():
    cfg = small_cfg()
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(6))
    params["head.out.b"].data[:] = 50.0  # constant positive predictor
    clips = [c for c in clips_of(12) if c.label == 1]
    assert evaluate_accuracy(clips, params, cfg.model_config()) == 1.0


def test_evaluate_empty_set_rejected():
    cfg = small_cfg()
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(7))
    with pytest.raises(EmptyInputError):
        evaluate([], params, cfg)


def test_batched_evaluate_uses_in_clip_negatives_only():
    cfg = small_cfg(alpha=0.1, beta=0.1)
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(9))
    clips = clips_of(8)
    assert max(len(run) for run in sub_windows(clips, cfg.dim)) > 1
    res = evaluate(clips, params, cfg)
    per_clip = [run_clips([clip], params, cfg)[0].as_floats()[0] for clip in clips]
    for key, value in res.mean_losses.items():
        want = sum(floats[key] for floats in per_clip) / len(clips)
        assert abs(value - want) <= 1e-12 * abs(want), (key, value, want)
    probs = [run_clips([clip], params, cfg)[1].prob.item() for clip in clips]
    assert res.accuracy == sum((p > 0.5) == bool(c.label) for p, c in zip(probs, clips)) / len(clips)


def test_evaluate_reports_mean_losses():
    cfg = small_cfg()
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(8))
    res = evaluate(clips_of(4), params, cfg)
    assert set(res.mean_losses) == {"l_ent", "l_qe_surrogate", "l_qe_literal",
                                    "l_cm", "l_cl", "total"}
    assert res.n_clips == 4


# --------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip_exact(tmp_path):
    cfg = small_cfg(epochs=1)
    clips = clips_of(6)
    result = train(clips, [], HEADER, cfg)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, result.params, cfg)
    loaded = load_checkpoint(path)
    acc1 = evaluate_accuracy(clips, loaded.params, loaded.config.model_config())
    path2 = str(tmp_path / "model2.ckpt")
    save_checkpoint(path2, loaded.params, loaded.config)
    assert (tmp_path / "model.ckpt").read_bytes() == (tmp_path / "model2.ckpt").read_bytes()
    acc2 = evaluate_accuracy(clips, load_checkpoint(path2).params,
                             loaded.config.model_config())
    assert acc1 == acc2
    assert loaded.config.to_dict() == cfg.to_dict()


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(str(path))


def _small_checkpoint(tmp_path):
    cfg = small_cfg()
    path = tmp_path / "model.ckpt"
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(0))
    save_checkpoint(str(path), params, cfg)
    return path


def test_checkpoint_truncated_payload_rejected(tmp_path):
    path = _small_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes()[:-5])
    # the payload is in sorted name order, so the cut lands in the last parameter
    with pytest.raises(FormatError, match=r"model\.ckpt: parameter 'temporal\.gate\.w'"):
        load_checkpoint(str(path))


def _edit_header(path, edit):
    blob = path.read_bytes()
    start = len(CKPT_MAGIC) + 8
    head_len = int.from_bytes(blob[len(CKPT_MAGIC) : start], "little")
    header = json.loads(blob[start : start + head_len])
    edit(header)
    head = json.dumps(header).encode("utf-8")
    path.write_bytes(CKPT_MAGIC + len(head).to_bytes(8, "little") + head
                     + blob[start + head_len :])


@pytest.mark.parametrize("key", ["params", "config"])
def test_checkpoint_header_without_key_rejected(tmp_path, key):
    path = _small_checkpoint(tmp_path)
    _edit_header(path, lambda header: header.pop(key))
    with pytest.raises(FormatError, match=rf"model\.ckpt.*'{key}'"):
        load_checkpoint(str(path))


def test_checkpoint_header_of_the_wrong_type_rejected(tmp_path):
    edits = [
        (lambda h: h.update(params=[]), r"'params' is not a JSON object"),
        (lambda h: h.update(config=[]), r"'config' is not a JSON object"),
        (lambda h: h["config"].update(dim="x"), r"'config'.*'dim': 'x' is not int"),
        (lambda h: h["config"].update(dim=0), r"'config'.*dim must be positive"),
        (lambda h: h["config"].update(temporal=1), r"'config'.*'temporal': 1 is not bool"),
        (lambda h: h["config"].update(lr=math.nan), r"'config'.*lr must be finite"),
        (lambda h: h["config"].update(lr=10 ** 400), r"'config'.*lr must be finite"),
    ]
    for edit, message in edits:
        path = _small_checkpoint(tmp_path)
        _edit_header(path, edit)
        with pytest.raises(FormatError, match=rf"model\.ckpt: checkpoint header {message}"):
            load_checkpoint(str(path))
    path.write_bytes(CKPT_MAGIC + (1).to_bytes(8, "little") + b"7")
    with pytest.raises(FormatError, match=r"model\.ckpt: checkpoint header is not a JSON object"):
        load_checkpoint(str(path))
    # an integer too long for Python to read (over 4,300 digits)
    head = b'{"params": {}, "config": {"lr": ' + b"1" * 5000 + b"}}"
    path.write_bytes(CKPT_MAGIC + len(head).to_bytes(8, "little") + head)
    with pytest.raises(FormatError, match=r"model\.ckpt: corrupt checkpoint header"):
        load_checkpoint(str(path))


def test_checkpoint_header_with_rng_state_still_loads(tmp_path):
    path = _small_checkpoint(tmp_path)
    _edit_header(path, lambda h: h.update(rng_state={"bit_generator": "PCG64"}))
    assert load_checkpoint(str(path)).config.to_dict() == small_cfg().to_dict()


@pytest.mark.parametrize("change, field", [
    (lambda e: {**e, "offset": -4}, "offset"),
    (lambda e: {**e, "dtype": "<U4"}, "dtype"),
    (lambda e: {**e, "dtype": "nonsense"}, "dtype"),
    (lambda e: [e["shape"], e["dtype"], e["offset"]], "not an object"),
    (lambda e: {k: v for k, v in e.items() if k != "shape"}, "shape"),
    (lambda e: {**e, "shape": [2, -3]}, "shape"),
    (lambda e: {**e, "dtype": "<f8"}, "dtype"),
    (lambda e: {**e, "offset": 0}, "offset"),
    (lambda e: {**e, "offset": e["offset"] + 4}, "offset"),
], ids=["negative offset", "string dtype", "unknown dtype", "list entry", "no shape",
        "negative dim", "float64 dtype", "aliased offset", "gap before"])
def test_checkpoint_bad_parameter_entry_rejected(tmp_path, change, field):
    path = _small_checkpoint(tmp_path)

    def edit(header):
        header["params"]["pool.fuse.w"] = change(header["params"]["pool.fuse.w"])

    _edit_header(path, edit)
    with pytest.raises(FormatError, match=rf"model\.ckpt: parameter 'pool\.fuse\.w'.*{field}"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_checkpoint_nonfinite_parameter_value_rejected(tmp_path, value):
    cfg = small_cfg()
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(0))
    params["head.out.b"].data[:] = value
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), params, cfg)
    with pytest.raises(FormatError, match=r"model\.ckpt: parameter 'head\.out\.b' holds a non-finite"):
        load_checkpoint(str(path))


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = _small_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00" * 13)
    with pytest.raises(FormatError, match=r"model\.ckpt: 13 trailing byte\(s\)"):
        load_checkpoint(str(path))


def test_checkpoint_header_length_beyond_the_file_rejected(tmp_path):
    path = _small_checkpoint(tmp_path)
    body = path.read_bytes()[len(CKPT_MAGIC) + 8 :]
    size = len(CKPT_MAGIC) + 8 + len(body)
    # one byte too many, and a forged length no read could allocate
    for head_len in (len(body) + 1, 2 ** 62):
        path.write_bytes(CKPT_MAGIC + head_len.to_bytes(8, "little") + body)
        with pytest.raises(FormatError, match=rf"model\.ckpt: header length {head_len} .*"
                                              rf"\({size} bytes\)"):
            load_checkpoint(str(path))


def test_checkpoint_save_rejects_a_finite_value_beyond_float32(tmp_path):
    cfg = small_cfg()
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(0))
    params["head.out.b"].data[0, 0] = -1e39      # float32 would store -inf
    path = tmp_path / "model.ckpt"
    with pytest.raises(NumericalError, match=r"model\.ckpt: parameter 'head\.out\.b' holds a "
                                             r"finite value beyond float32 range"):
        save_checkpoint(str(path), params, cfg)
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_failed_save_leaves_the_file_there_as_it_was(tmp_path):
    path = _small_checkpoint(tmp_path)
    before = path.read_bytes()
    cfg = small_cfg()
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(1))
    # the last parameter in name order fails after every other one is written
    assert params.names()[-1] == "temporal.gate.w"
    params["temporal.gate.w"].data[-1, -1] = 1e39
    with pytest.raises(NumericalError, match=r"'temporal\.gate\.w'"):
        save_checkpoint(str(path), params, cfg)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_save_acts_on_the_file_as_a_plain_open_would(tmp_path):
    plain = tmp_path / "plain"
    with open(plain, "wb"):
        pass
    path = _small_checkpoint(tmp_path)
    assert path.stat().st_mode == plain.stat().st_mode
    path.chmod(0o640)                   # a plain open keeps the mode of a file already there
    _small_checkpoint(tmp_path)
    assert path.stat().st_mode & 0o777 == 0o640
    # a link at the path is written through, not replaced
    (tmp_path / "runs").mkdir()
    real = tmp_path / "runs" / "run1.ckpt"
    real.write_bytes(b"old")
    link = tmp_path / "latest.ckpt"
    link.symlink_to(real)
    cfg = small_cfg()
    save_checkpoint(str(link), init_params(cfg.model_config(), *DIMS, np.random.default_rng(0)), cfg)
    assert link.is_symlink() and real.read_bytes() == path.read_bytes()
    assert [p.name for p in real.parent.iterdir()] == ["run1.ckpt"]


def _traced_peak(call) -> int:
    """Bytes that `call()` allocated at its peak, above what was traced before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        kept = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del kept
    return peak


def test_a_dim32_sub_window_keeps_its_tape_light():
    # the forward and backward of three train-longseg clips (379 nodes) as one
    # sub-window peaked at 20.1 MiB with dense 0/-inf block masks and the
    # transport structure's work arrays on the tape, and at 12.8 MiB without
    clips = benchmark_clips("LONGSEG", 48)[4:7]
    assert 360 <= sum(map(nodes_of, clips)) <= 400
    cfg = TrainConfig(dim=32, seed=0)
    params = init_params(cfg, 32, 32, 32, np.random.default_rng(0))
    buffer = NegativeBuffer(cfg.neg_buffer)

    def step():
        bundle, _ = run_clips(clips, params, cfg, buffer)
        backward(bundle.total.sum())
        return bundle

    assert _traced_peak(step) < 15 << 20


def test_checkpoint_save_and_load_hold_one_parameter_beyond_the_parameters(tmp_path):
    cfg = small_cfg(dim=64)
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(0))
    f64 = sum(p.data.nbytes for _, p in params.items())
    largest = max(p.data.size for _, p in params.items()) * CKPT_DTYPE.itemsize
    path = str(tmp_path / "model.ckpt")
    gc.collect()
    assert _traced_peak(lambda: save_checkpoint(path, params, cfg)) <= 2 * largest + 256 * 1024
    assert _traced_peak(lambda: load_checkpoint(path)) <= f64 + 2 * largest + 256 * 1024


def test_checkpoint_parameters_must_match_the_model_layout(tmp_path):
    edits = [
        (lambda h: h["params"].pop("head.out.w"), r"'head\.out\.w' is missing"),
        (lambda h: h["params"]["head.hidden.w"].update(shape=[8, 32]),
         r"'head\.hidden\.w' has shape \(8, 32\), but the model layout at dim=16 needs \(16, 16\)"),
        (lambda h: h["params"].update({"extra.w": h["params"]["disc.w"]}),
         r"'extra\.w' is not in the model layout"),
    ]
    for edit, message in edits:
        path = _small_checkpoint(tmp_path)
        _edit_header(path, edit)
        with pytest.raises(FormatError, match=rf"model\.ckpt: parameter {message}"):
            load_checkpoint(str(path))
    # a config that names another width than the parameters have
    cfg = small_cfg(dim=8)
    save_checkpoint(str(path), init_params(cfg.model_config(), *DIMS, np.random.default_rng(0)), cfg)
    _edit_header(path, lambda h: h["config"].update(dim=16))
    with pytest.raises(FormatError, match=r"model\.ckpt: parameter 'disc\.w' has shape \(8, 8\), "
                                          r"but the model layout at dim=16"):
        load_checkpoint(str(path))


def test_checkpoint_header_of_shapes_beyond_the_payload_rejected(tmp_path):
    # a 3 KB file whose header lays out the model at a width no address space
    # holds: the load must read what the file has, not what the header claims
    cfg = small_cfg(dim=2**24)
    entries, offset = {}, 0
    for name, shape in sorted(param_shapes(cfg.dim, *DIMS).items()):
        entries[name] = {"shape": list(shape), "dtype": CKPT_DTYPE.str, "offset": offset}
        offset += math.prod(shape) * CKPT_DTYPE.itemsize
    head = json.dumps({"params": entries, "config": cfg.to_dict()}).encode("utf-8")
    path = tmp_path / "forged.ckpt"
    path.write_bytes(CKPT_MAGIC + len(head).to_bytes(8, "little") + head + bytes(64))
    with pytest.raises(FormatError, match=rf"forged\.ckpt: parameter 'disc\.w' needs payload "
                                          rf"bytes 0\.\.{4 * 2**48}, but the payload has 64"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("field, value", [
    ("ot_eps_reg", 0.0), ("ot_sinkhorn_iters", 0), ("ot_gw_outer_iters", 0),
    ("fixed_queries", 6), ("fixed_queries", 0),
    ("lr", math.nan), ("alpha", math.inf), ("beta", math.nan), ("lam", math.inf),
    ("ot_tol", math.nan), ("query_cost", math.inf), ("ot_eps_reg", math.inf),
    ("adam_beta1", 1.0), ("adam_beta1", -0.1), ("adam_beta2", 1.0), ("adam_beta2", math.nan),
    ("adam_eps", 0.0), ("adam_eps", math.inf), ("seed", -1),
    pytest.param("lr", 10 ** 400, id="lr-int-beyond-float"),
    pytest.param("alpha", -10 ** 400, id="alpha-int-beyond-float"),
])
def test_config_rejects_bad_derived_settings(field, value):
    with pytest.raises(ContractError, match=field):
        TrainConfig(dim=8, max_queries=5, **{field: value})


def test_config_rejects_unknown_keys():
    with pytest.raises(ContractError, match="mystery"):
        TrainConfig.from_dict({"dim": 8, "mystery": 1})


@pytest.mark.parametrize("field, value", [
    ("inter_modal", 0), ("fixed_queries", 2.0), ("neg_buffer", True),
    ("epochs", np.int64(3)), ("halt_eps", "0.1"), ("dim", 2.5),
])
def test_config_checks_field_types_when_built_in_code(field, value):
    # the same check as for a JSON config, so that a checkpoint always loads
    with pytest.raises(ContractError, match=rf"config key '{field}': .* is not"):
        TrainConfig(**{field: value})


def test_metrics_have_specified_keys():
    cfg = small_cfg(epochs=1)
    result = train(clips_of(6), clips_of(4, seed=1), HEADER, cfg)
    assert set(result.metrics[0]) == {"epoch", "acc", "l_ent", "l_qe_surrogate",
                                      "l_qe_literal", "l_cm", "l_cl", "mean_N"}
    assert result.metrics[0]["epoch"] == 1
    assert 1.0 <= result.metrics[0]["mean_N"] <= cfg.max_queries


# ---------------------------------------------------------------- generator

def test_generator_deterministic(tmp_path):
    a = synth.gen_synthetic(3, 20, 10, str(tmp_path))
    first = (tmp_path / "train.jsonl").read_bytes()
    synth.gen_synthetic(3, 20, 10, str(tmp_path))
    assert (tmp_path / "train.jsonl").read_bytes() == first
    assert a["n_train"] == 20


def test_generator_labels_balanced_exactly():
    recs = synth.generate_records(0, 100, DIMS)
    labels = [r["label"] for r in recs]
    assert sum(labels) == 50
    assert labels[:4] == [1, 0, 1, 0]


def test_generated_records_validate(tmp_path):
    synth.gen_synthetic(1, 30, 10, str(tmp_path))
    rep = validate_dataset(str(tmp_path / "train.jsonl"))
    assert rep.n_failures == 0
    header, clips = read_dataset(str(tmp_path / "train.jsonl"))
    assert header == HEADER
    assert all(2 <= len(c.subs) <= 6 for c in clips)
    assert all(2 <= c.statement.shape[1] <= 4 for c in clips)


def test_generator_difficulty_zero_is_noiseless():
    recs = synth.generate_records(2, 4, DIMS, difficulty=0.0)
    f = np.array(recs[0]["frames"][0]["f"])
    assert np.all(np.isin(f[: synth.N_EVENTS + synth.POS_DIM], [0.0, 1.0]))
    assert np.all(f[synth.BASE_DIM :] == 0.0)


def probe_features(rec):
    base = synth.BASE_DIM
    f = np.array([fr["f"] for fr in rec["frames"]]).mean(axis=0)[:base]
    t = np.array([tok for s in rec["subs"] for tok in s["tokens"]]).mean(axis=0)[:base]
    s = np.array(rec["statement"]).mean(axis=0)[:base]
    u = (f + t) / 2.0
    return np.concatenate([u * s, u, s, [1.0]])


@pytest.mark.parametrize("difficulty", [0.0, 1.0])
def test_linear_probe_oracle_separates(difficulty):
    train_recs = synth.generate_records(0, 400, DIMS, difficulty)
    val_recs = synth.generate_records(0, 200, DIMS, difficulty, start_index=400)
    X = np.array([probe_features(r) for r in train_recs])
    y = np.array([r["label"] for r in train_recs], dtype=float)
    w, *_ = np.linalg.lstsq(X, y, rcond=None)
    Xv = np.array([probe_features(r) for r in val_recs])
    yv = np.array([r["label"] for r in val_recs])
    acc = float(((Xv @ w > 0.5).astype(int) == yv).mean())
    assert acc > 0.95, f"probe accuracy {acc}"


def one_sided_features(rec, side):
    base = synth.BASE_DIM
    if side == "clip":
        f = np.array([fr["f"] for fr in rec["frames"]]).mean(axis=0)[:base]
        t = np.array([tok for s in rec["subs"] for tok in s["tokens"]]).mean(axis=0)[:base]
        v = (f + t) / 2.0
    else:
        v = np.array(rec["statement"]).mean(axis=0)[:base]
    return np.concatenate([v, [1.0]])


@pytest.mark.parametrize("side", ["clip", "statement"])
@pytest.mark.parametrize("difficulty", [0.0, 1.0])
def test_linear_probe_on_one_side_stays_near_chance(difficulty, side):
    # the label must come from binding clip to statement, not from either alone
    train_recs = synth.generate_records(0, 400, DIMS, difficulty)
    val_recs = synth.generate_records(0, 200, DIMS, difficulty, start_index=400)
    X = np.array([one_sided_features(r, side) for r in train_recs])
    y = np.array([r["label"] for r in train_recs], dtype=float)
    w, *_ = np.linalg.lstsq(X, y, rcond=None)
    Xv = np.array([one_sided_features(r, side) for r in val_recs])
    yv = np.array([r["label"] for r in val_recs])
    acc = float(((Xv @ w > 0.5).astype(int) == yv).mean())
    assert acc < 0.65, f"{side}-only probe accuracy {acc}"


# ------------------------------------------------------------- input guards

def _checkpoint_without_projections(tmp_path):
    params = ParamStore()
    params.add("head.out.b", np.zeros((1, 1)))
    save_checkpoint(str(tmp_path / "bare.ckpt"), params, small_cfg())
    return load_checkpoint(str(tmp_path / "bare.ckpt"))


# (call on a temporary directory, error type, message fragment) of each input
# guard of `train`
GUARDS = {
    "halt-eps-outside-the-open-unit-interval": (lambda tmp: small_cfg(halt_eps=1.0),
                                                ContractError, "halt_eps must lie in (0, 1)"),
    "train-on-no-clips": (lambda tmp: train([], clips_of(2), HEADER, small_cfg()),
                          EmptyInputError, "training set is empty"),
    "accuracy-of-no-clips": (lambda tmp: evaluate_accuracy(
                                 [], init_params(small_cfg(), 32, 32, 32, np.random.default_rng(0)),
                                 small_cfg()),
                             EmptyInputError, "evaluation set is empty"),
    "checkpoint-without-projections": (_checkpoint_without_projections, FormatError,
                                       "parameter 'proj.v.w' is missing or not 2-D"),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_train_guards_raise_package_errors(case, tmp_path):
    call, error, fragment = GUARDS[case]
    with pytest.raises(error, match=re.escape(fragment)):
        call(tmp_path)


# (call, error type, message fragment) of each input guard of `synth`
SYNTH_GUARDS = {
    "generator-narrow-widths": (lambda: synth.generate_records(0, 1, (8, 32, 32)),
                                ContractError, "feature widths must be at least"),
    "generator-negative-difficulty": (lambda: synth.generate_records(0, 1, DIMS, difficulty=-0.5),
                                      ContractError, "difficulty must be nonnegative"),
}


@pytest.mark.parametrize("case", sorted(SYNTH_GUARDS))
def test_synth_guards_raise_package_errors(case):
    call, error, fragment = SYNTH_GUARDS[case]
    with pytest.raises(error, match=re.escape(fragment)):
        call()
