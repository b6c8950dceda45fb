import gc
import json
import math

import numpy as np
import pytest

from vlgraph import synth
from vlgraph.errors import EmptyInputError, FormatError, NumericalError
from vlgraph.graph import Clip, parse_clip, read_dataset, validate_dataset
from vlgraph.mi import NegativeBuffer
from vlgraph.model import forward, init_params
from vlgraph.tensor import ParamStore, Tensor, backward
from vlgraph.train import (
    CKPT_MAGIC,
    Adam,
    TrainConfig,
    evaluate,
    evaluate_accuracy,
    load_checkpoint,
    run_clip,
    save_checkpoint,
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
        bundle, trace = run_clip(clip, params, cfg, buffer)
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
        bundle, trace = run_clip(clip, params, cfg)
        assert trace.prob.item() == 0.5
        assert abs(bundle.ent.item() - math.log(2.0)) <= 1e-12


@pytest.mark.parametrize("logit", [40.0, 60.0, 800.0])
def test_entropy_loss_of_confident_wrong_logit_is_the_logit(logit):
    cfg = small_cfg(alpha=0.0, beta=0.0, query_cost=0.0)
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(0))
    params["head.out.w"].data[:] = 0.0
    params["head.out.b"].data[:] = logit
    clip = [c for c in clips_of(4) if c.label == 0][0]
    bundle, trace = run_clip(clip, params, cfg)
    assert trace.logit.item() == logit
    assert abs(bundle.as_floats()["l_ent"] - logit) <= 1e-9


def test_total_reduces_to_entropy_when_weights_zero():
    cfg = small_cfg(alpha=0.0, beta=0.0, query_cost=0.0)
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(1))
    bundle, _ = run_clip(clips_of(1)[0], params, cfg)
    assert bundle.total.item() == bundle.ent.item()
    assert bundle.qe.item() == 0.0 and bundle.cm.item() == 0.0 and bundle.cl.item() == 0.0


def test_total_is_exact_sum_of_components():
    cfg = small_cfg()
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(2))
    bundle, _ = run_clip(clips_of(1)[0], params, cfg, NegativeBuffer(8))
    expected = ((bundle.ent.item() + bundle.qe.item()) + bundle.cm.item()) + bundle.cl.item()
    assert bundle.total.item() == expected
    example = ((0.693 + 0.16) + 0.02) + 0.05
    assert abs(example - 0.923) <= 1e-12


def test_loss_components_finite_and_signed_as_specified():
    cfg = small_cfg()
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(3))
    for clip in clips_of(6, seed=5):
        bundle, _ = run_clip(clip, params, cfg, NegativeBuffer(16))
        vals = bundle.as_floats()
        assert all(math.isfinite(v) for v in vals.values())
        assert vals["l_ent"] >= 0.0 and vals["l_qe_surrogate"] >= 0.0 and vals["l_cm"] >= 0.0


def test_nonfinite_loss_aborts_with_component_name():
    cfg = small_cfg()
    params = init_params(cfg.model_config(), *DIMS, np.random.default_rng(4))
    params["head.out.w"].data[:] = np.nan
    bundle, _ = run_clip(clips_of(1)[0], params, cfg)
    with pytest.raises(NumericalError, match="l_ent"):
        bundle.check_finite()


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
    save_checkpoint(str(p1), r1.params, cfg, r1.rng_state)
    save_checkpoint(str(p2), r2.params, cfg, r2.rng_state)
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
        bundle, _ = run_clip(clip, pa, cfg)
        backward(bundle.total, pa)
    opt_a.step(grad_scale=1.0 / len(clips))

    # one step on the mean loss
    pb = fresh()
    opt_b = Adam(pb, cfg.lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    from vlgraph import tensor as tn
    losses = [run_clip(clip, pb, cfg)[0].total for clip in clips]
    mean_loss = tn.scale(tn.concat(losses, axis=0).sum(), 1.0 / len(clips))
    backward(mean_loss, pb)
    opt_b.step()

    for name, p in pa.items():
        assert np.allclose(p.data, pb[name].data, atol=1e-10), name


# --------------------------------------------------------------- evaluation

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
    save_checkpoint(path, result.params, cfg, result.rng_state)
    loaded = load_checkpoint(path)
    acc1 = evaluate_accuracy(clips, loaded.params, loaded.config.model_config())
    path2 = str(tmp_path / "model2.ckpt")
    save_checkpoint(path2, loaded.params, loaded.config, loaded.rng_state)
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


@pytest.mark.parametrize("key", ["params", "config"])
def test_checkpoint_header_without_key_rejected(tmp_path, key):
    path = _small_checkpoint(tmp_path)
    blob = path.read_bytes()
    start = len(CKPT_MAGIC) + 8
    head_len = int.from_bytes(blob[len(CKPT_MAGIC) : start], "little")
    header = json.loads(blob[start : start + head_len])
    del header[key]
    head = json.dumps(header).encode("utf-8")
    path.write_bytes(CKPT_MAGIC + len(head).to_bytes(8, "little") + head
                     + blob[start + head_len :])
    with pytest.raises(FormatError, match=rf"model\.ckpt.*'{key}'"):
        load_checkpoint(str(path))


def test_config_rejects_unknown_keys():
    from vlgraph.errors import ContractError
    with pytest.raises(ContractError, match="mystery"):
        TrainConfig.from_dict({"dim": 8, "mystery": 1})


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
