import dataclasses
import math
import re

import numpy as np
import pytest

from vlgraph import model as md
from vlgraph import tensor as tn
from vlgraph.errors import ContractError
from vlgraph.graph import Clip, FrameNode, SubtitleLine
from vlgraph.mi import NegativeBuffer, contrastive_loss
from vlgraph.model import (
    FrozenDecisions,
    forward_batch,
    extract_queries,
    forward,
    init_params,
    message_pass,
    predict_global,
    refine_segment,
    reason_over_segments,
    segment_pool,
    should_stop,
    temporal_pool,
)
from vlgraph.tensor import Tensor, grad_check
from vlgraph.train import TrainConfig


def cfg_of(d=4, **kw):
    return TrainConfig(dim=d, **kw)


def params_of(rng, d=4, d_v=3, d_s=3, d_h=3):
    return init_params(cfg_of(d), d_v, d_s, d_h, rng)


def cross_modal(V, S, ps):
    """Both cross-modal passes, from the nodes and means before either update."""
    g_v, g_s = V.mean(axis=1), S.mean(axis=1)
    v_sizes, s_sizes = (V.shape[1],), (S.shape[1],)
    V2, pass_v = message_pass(V, S, g_v, g_s, ps, "inter.v", v_sizes, s_sizes)
    S2, pass_s = message_pass(S, V, g_s, g_v, ps, "inter.s", s_sizes, v_sizes)
    return V2, S2, pass_v, pass_s


def self_pass(X, ps, name):
    """Intra-modal or temporal pass: the nodes exchange messages among themselves."""
    g = X.mean(axis=1)
    return message_pass(X, X, g, g, ps, name, (X.shape[1],), (X.shape[1],))


ONE_PAIR = (np.array([0]), np.array([0]))     # query 0 pools segment 0


def zero_group(ps, name):
    ps[f"{name}.w"].data[:] = 0.0
    if f"{name}.b" in ps:
        ps[f"{name}.b"].data[:] = 0.0


def make_clip(rng, d_v=3, d_s=3, d_h=3, n_segments=2, frames_per=2, tokens_per=2,
              clauses=3, clip_id="toy"):
    frames, subs = [], []
    for i in range(n_segments):
        t0 = 2.0 * i
        subs.append(SubtitleLine(t0=t0, t1=t0 + 2.0,
                                 tokens=rng.standard_normal((tokens_per, d_s))))
        for k in range(frames_per):
            frames.append(FrameNode(t=t0 + 0.3 + k * 0.5, feature=rng.standard_normal(d_v)))
    return Clip(clip_id=clip_id, frames=frames, subs=subs,
                statement=rng.standard_normal((d_h, clauses)), label=1)


# ------------------------------------------------- independent numpy oracle

def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def np_row_softmax(a):
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def ref_gate(w, b, g_left, X, g_right):
    n = X.shape[1]
    stacked = np.vstack([np.repeat(g_left, n, axis=1), X, np.repeat(g_right, n, axis=1)])
    return np_sigmoid(w @ stacked + b)


def ref_inter(V, S, p):
    g_v = V.mean(axis=1, keepdims=True)
    g_s = S.mean(axis=1, keepdims=True)
    raw = V.T @ S
    msg_v = S @ np_row_softmax(raw).T
    msg_s = V @ np_row_softmax(raw.T).T
    c_v = ref_gate(p["inter.v.w"].data, p["inter.v.b"].data, g_v, V, g_s)
    c_s = ref_gate(p["inter.s.w"].data, p["inter.s.b"].data, g_s, S, g_v)
    return (1 - c_v) * V + c_v * msg_v, (1 - c_s) * S + c_s * msg_s


def ref_intra(X, p, name):
    g = X.mean(axis=1, keepdims=True)
    msg = X @ np_row_softmax(X.T @ X).T
    c = ref_gate(p[f"{name}.w"].data, p[f"{name}.b"].data, g, X, g)
    return (1 - c) * X + c * msg


def ref_pool(V, S, q, p):
    attn_v = np_row_softmax((V.T @ (p["pool.attn_v.w"].data @ q)).T).T
    attn_s = np_row_softmax((S.T @ (p["pool.attn_s.w"].data @ q)).T).T
    v_q, s_q = V @ attn_v, S @ attn_s
    stacked = np.vstack([V.mean(axis=1, keepdims=True), q, S.mean(axis=1, keepdims=True)])
    gate = np_sigmoid(p["pool.fuse.w"].data @ stacked + p["pool.fuse.b"].data)
    return (1 - gate) * v_q + gate * s_q


# ------------------------------------------------------------- cross-modal

def test_inter_modal_zero_weights_average():
    rng = np.random.default_rng(0)
    ps = params_of(rng)
    zero_group(ps, "inter.v")
    zero_group(ps, "inter.s")
    V = Tensor(rng.standard_normal((4, 3)))
    S = Tensor(rng.standard_normal((4, 2)))
    V2, S2, pass_v, pass_s = cross_modal(V, S, ps)
    assert np.allclose(pass_v.gate, 0.5)
    assert np.allclose(V2.data, (V.data + pass_v.msg) / 2.0, atol=1e-14)
    assert np.allclose(S2.data, (S.data + pass_s.msg) / 2.0, atol=1e-14)


def test_inter_modal_single_subtitle_token():
    rng = np.random.default_rng(1)
    ps = params_of(rng)
    V = Tensor(rng.standard_normal((4, 3)))
    S = Tensor(rng.standard_normal((4, 1)))
    _, _, pass_v, _ = cross_modal(V, S, ps)
    assert np.allclose(pass_v.adj, np.ones((3, 1)))
    assert np.allclose(pass_v.msg, np.repeat(S.data, 3, axis=1))


def test_inter_modal_hand_instance():
    # d=2, one visual node (1,0), subtitle nodes (1,0) and (0,1)
    rng = np.random.default_rng(2)
    ps = init_params(cfg_of(2), 2, 2, 2, rng)
    V = Tensor([[1.0], [0.0]])
    S = Tensor([[1.0, 0.0], [0.0, 1.0]])
    _, _, pass_v, _ = cross_modal(V, S, ps)
    e = math.e
    assert np.allclose(pass_v.adj, [[e / (e + 1), 1 / (e + 1)]], atol=1e-12)
    assert np.allclose(pass_v.msg.ravel(), [0.7310586, 0.2689414], atol=1e-6)


def test_inter_modal_matches_reference_oracle():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ps = params_of(rng)
        V = Tensor(rng.standard_normal((4, 3)))
        S = Tensor(rng.standard_normal((4, 2)))
        V2, S2, _, _ = cross_modal(V, S, ps)
        rv, rs = ref_inter(V.data, S.data, ps)
        assert np.allclose(V2.data, rv, atol=1e-12)
        assert np.allclose(S2.data, rs, atol=1e-12)


# ------------------------------------------------------------- intra-modal

def test_intra_modal_single_node_fixed_point():
    rng = np.random.default_rng(3)
    ps = params_of(rng)
    X = Tensor(rng.standard_normal((4, 1)))
    X2, p = self_pass(X, ps, "intra.v")
    assert np.allclose(X2.data, X.data, atol=1e-14)
    assert np.allclose(p.adj, [[1.0]])


def test_intra_modal_zero_weights_average():
    rng = np.random.default_rng(4)
    ps = params_of(rng)
    zero_group(ps, "intra.s")
    X = Tensor(rng.standard_normal((4, 3)))
    X2, p = self_pass(X, ps, "intra.s")
    assert np.allclose(X2.data, (X.data + p.msg) / 2.0, atol=1e-14)


def test_intra_modal_matches_reference_oracle():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ps = init_params(cfg_of(2), 2, 2, 2, rng)
        X = Tensor(rng.standard_normal((2, 3)))
        X2, _ = self_pass(X, ps, "intra.v")
        assert np.allclose(X2.data, ref_intra(X.data, ps, "intra.v"), atol=1e-12)


# ------------------------------------------------------------------ pooling

def test_segment_pool_zero_fuse_weights_average():
    rng = np.random.default_rng(5)
    ps = params_of(rng)
    zero_group(ps, "pool.fuse")
    seg = refine_segment(Tensor(rng.standard_normal((4, 3))),
                         Tensor(rng.standard_normal((4, 2))), ps, cfg_of(), (3,), (2,))
    q = Tensor(rng.standard_normal((4, 1)))
    node, info = segment_pool(seg, q, ps, ONE_PAIR)
    v_q = seg.visual.data @ info["attn_v"]
    s_q = seg.text.data @ info["attn_s"]
    assert np.allclose(node.data, (v_q + s_q) / 2.0, atol=1e-14)


def test_segment_pool_singletons_ignore_query():
    rng = np.random.default_rng(6)
    ps = params_of(rng)
    V = Tensor(rng.standard_normal((4, 1)))
    S = Tensor(rng.standard_normal((4, 1)))
    seg = md.SegmentTrace(visual=V, text=S, v_sizes=(1,), s_sizes=(1,))
    for qseed in (1, 2):
        q = Tensor(np.random.default_rng(qseed).standard_normal((4, 1)))
        _, info = segment_pool(seg, q, ps, ONE_PAIR)
        assert np.allclose(info["attn_v"], [[1.0]])
        assert np.allclose(info["attn_s"], [[1.0]])


def test_segment_pool_matches_reference_oracle():
    rng = np.random.default_rng(7)
    ps = params_of(rng)
    seg = md.SegmentTrace(visual=Tensor(rng.standard_normal((4, 3))),
                          text=Tensor(rng.standard_normal((4, 2))), v_sizes=(3,), s_sizes=(2,))
    q = Tensor(rng.standard_normal((4, 1)))
    node, _ = segment_pool(seg, q, ps, ONE_PAIR)
    assert np.allclose(node.data, ref_pool(seg.visual.data, seg.text.data, q.data, ps),
                       atol=1e-12)


def test_segment_pool_token_permutation_invariance():
    rng = np.random.default_rng(8)
    ps = params_of(rng)
    V = rng.standard_normal((4, 3))
    S = rng.standard_normal((4, 4))
    q = Tensor(rng.standard_normal((4, 1)))
    node1, _ = segment_pool(refine_segment(Tensor(V), Tensor(S), ps, cfg_of(), (3,), (4,)), q, ps,
                            ONE_PAIR)
    perm = rng.permutation(4)
    node2, _ = segment_pool(refine_segment(Tensor(V), Tensor(S[:, perm]), ps, cfg_of(), (3,), (4,)),
                            q, ps, ONE_PAIR)
    assert np.allclose(node1.data, node2.data, atol=1e-9)


# ------------------------------------------------------------------ halting

def simulate_halting(h_values: list[float], halt_eps: float, max_queries: int,
                     query_cost: float) -> tuple[int, float, float, float]:
    """Replay the stop rule on a given halt sequence.

    Returns (n, remainder, surrogate, literal): `remainder` is 1 minus the
    accumulator before the final step, the surrogate cost is
    query_cost * (n + remainder), and the literal cost is query_cost * n.
    """
    cum = prev = 0.0
    n = 0
    for h in h_values[:max_queries]:
        n += 1
        prev = cum
        cum += h
        if should_stop(cum, n, halt_eps, max_queries):
            break
    remainder = 1.0 - prev
    return n, remainder, query_cost * (n + remainder), query_cost * n


def test_halting_schedule_examples():
    n, rem, surrogate, literal = simulate_halting([0.5, 0.3, 0.3], 0.1, 5, 0.05)
    assert n == 3
    assert abs(rem - 0.2) < 1e-12
    assert abs(surrogate - 0.16) < 1e-12
    assert abs(literal - 0.15) < 1e-12

    n, *_ = simulate_halting([0.95, 0.9], 0.1, 5, 0.05)
    assert n == 1

    n, *_ = simulate_halting([0.2] * 5, 0.1, 5, 0.05)
    assert n == 5


def _halting_params(rng, h_value, d=4, d_h=3):
    ps = params_of(rng, d=d, d_h=d_h)
    ps["query.halt.w"].data[:] = 0.0
    ps["query.halt.b"].data[:] = math.log(h_value / (1.0 - h_value))
    return ps


def test_forced_high_halt_stops_at_one():
    rng = np.random.default_rng(9)
    ps = _halting_params(rng, 0.95)
    qs = extract_queries(Tensor(rng.standard_normal((4, 3))), ps, cfg_of(), (3,))
    assert qs.n_queries == 1 and qs.stopped_early
    assert abs(qs.halts[0].item() - 0.95) < 1e-12


def test_constant_low_halt_runs_to_cap():
    rng = np.random.default_rng(10)
    ps = _halting_params(rng, 0.2)
    qs = extract_queries(Tensor(rng.standard_normal((4, 3))), ps, cfg_of(), (3,))
    assert qs.n_queries == 5
    cums = [c.item() for c in qs.cum]
    assert np.allclose(cums, [0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-12)


def test_halting_invariants_over_random_draws():
    cfg = cfg_of()
    for seed in range(300):
        rng = np.random.default_rng(seed)
        ps = params_of(rng)
        qs = extract_queries(Tensor(rng.standard_normal((4, 3))), ps, cfg, (3,))
        assert 1 <= qs.n_queries <= cfg.max_queries
        cums = [c.item() for c in qs.cum]
        assert all(b > a for a, b in zip(cums, cums[1:]))
        assert qs.stopped_early or qs.n_queries == cfg.max_queries


def test_forced_query_count():
    rng = np.random.default_rng(11)
    ps = _halting_params(rng, 0.95)
    qs = extract_queries(Tensor(rng.standard_normal((4, 3))), ps, cfg_of(), (3,), force_n=[4])
    assert qs.n_queries == 4


@pytest.mark.parametrize("force_n", [[2], [2, 3, 1]])
def test_forced_query_counts_must_match_the_statements(force_n):
    rng = np.random.default_rng(11)
    ps = params_of(rng)
    with pytest.raises(ContractError, match=f"{len(force_n)} forced query counts for 2 statements"):
        extract_queries(Tensor(rng.standard_normal((4, 5))), ps, cfg_of(), force_n=force_n,
                        sizes=(3, 2))


def test_forced_query_count_outside_the_range_rejected():
    rng = np.random.default_rng(11)
    ps = params_of(rng)
    clip = make_clip(rng)
    cfg = cfg_of(max_queries=5)
    for n in (0, -2, 9):
        with pytest.raises(ContractError, match=rf"max_queries=5\], got {n}"):
            forward(clip, ps, cfg, frozen=FrozenDecisions(n_queries=n))


def test_query_attention_rows_are_probabilities():
    rng = np.random.default_rng(12)
    ps = params_of(rng)
    qs = extract_queries(Tensor(rng.standard_normal((4, 5))), ps, cfg_of(), (5,))
    for w in qs.attn:
        assert abs(w.data.sum() - 1.0) <= 1e-12 and np.all(w.data > 0)


# ----------------------------------------------------------------- temporal

def test_temporal_single_segment_fixed_point():
    rng = np.random.default_rng(13)
    ps = params_of(rng)
    X = Tensor(rng.standard_normal((4, 1)))
    X2, _ = self_pass(X, ps, "temporal.gate")
    assert np.allclose(X2.data, X.data, atol=1e-14)


def test_temporal_pool_single_node_and_uniform():
    rng = np.random.default_rng(14)
    ps = params_of(rng)
    t1 = Tensor(rng.standard_normal((4, 1)))
    o, w = temporal_pool(t1, Tensor(rng.standard_normal((4, 1))), ps, (1,))
    assert np.allclose(o.data, t1.data) and np.allclose(w.data, [[1.0]])

    # zero attention weight matrix gives uniform logits, so the mean node
    ps["temporal.attn.w"].data[:] = 0.0
    T = Tensor(rng.standard_normal((4, 3)))
    o, w = temporal_pool(T, Tensor(rng.standard_normal((4, 1))), ps, (3,))
    assert np.allclose(w.data, np.full((3, 1), 1 / 3))
    assert np.allclose(o.data, T.data.mean(axis=1, keepdims=True), atol=1e-14)


def test_temporal_pool_matches_hand_attention():
    rng = np.random.default_rng(15)
    ps = params_of(rng)
    T = Tensor(rng.standard_normal((4, 3)))
    q = Tensor(rng.standard_normal((4, 1)))
    o, w = temporal_pool(T, q, ps, (3,))
    logits = T.data.T @ (ps["temporal.attn.w"].data @ q.data)
    e = np.exp(logits - logits.max())
    ref_w = e / e.sum()
    assert np.allclose(w.data, ref_w, atol=1e-12)
    assert np.allclose(o.data, T.data @ ref_w, atol=1e-12)


# ------------------------------------------------------------------- global

def test_predict_zero_head_gives_half():
    rng = np.random.default_rng(16)
    ps = params_of(rng)
    zero_group(ps, "head.hidden")
    zero_group(ps, "head.out")
    p, _ = predict_global(Tensor(rng.standard_normal((4, 1))), ps, (1,))
    assert p.item() == 0.5


def test_predict_mean_idempotent_on_duplicates():
    rng = np.random.default_rng(17)
    ps = params_of(rng)
    o = Tensor(rng.standard_normal((4, 1)))
    p1, _ = predict_global(o, ps, (1,))
    p2, _ = predict_global(tn.concat([o, Tensor(o.data)], axis=1), ps, (2,))
    assert abs(p1.item() - p2.item()) < 1e-14


# ------------------------------------------------------------- full forward

def test_forward_deterministic():
    rng = np.random.default_rng(18)
    ps = params_of(rng)
    clip = make_clip(np.random.default_rng(99))
    p1 = forward(clip, ps, cfg_of()).prob.item()
    p2 = forward(clip, ps, cfg_of()).prob.item()
    assert p1 == p2


def test_forward_permutation_invariance():
    cfg = cfg_of()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ps = params_of(rng)
        clip = make_clip(rng, n_segments=2, frames_per=3, tokens_per=3)
        base = forward(clip, ps, cfg).prob.item()

        shuffled_tokens = [
            SubtitleLine(t0=s.t0, t1=s.t1, tokens=s.tokens[rng.permutation(s.tokens.shape[0])])
            for s in clip.subs
        ]
        clip_tok = Clip(clip.clip_id, clip.frames, shuffled_tokens, clip.statement, clip.label)
        assert abs(forward(clip_tok, ps, cfg).prob.item() - base) <= 1e-9

        # swap the two frames inside the first segment
        frames = list(clip.frames)
        frames[0], frames[1] = frames[1], frames[0]
        clip_frm = Clip(clip.clip_id, frames, clip.subs, clip.statement, clip.label)
        assert abs(forward(clip_frm, ps, cfg).prob.item() - base) <= 1e-9


def test_forward_convex_combination_bounds():
    rng = np.random.default_rng(20)
    ps = params_of(rng)
    clip = make_clip(rng, n_segments=3, frames_per=3, tokens_per=2)
    trace = forward(clip, ps, cfg_of())
    seg, V0 = trace.segments, md.project_nodes([trace.graphs[0].frames], ps, "proj.v")
    assert seg.n_segments == 3
    inter_v, intra_v = seg.passes["inter.v"], seg.passes["intra.v"]
    lo = np.minimum(V0.data, inter_v.msg) - 1e-12
    hi = np.maximum(V0.data, inter_v.msg) + 1e-12
    assert np.all(inter_v.out >= lo) and np.all(inter_v.out <= hi)
    lo2 = np.minimum(inter_v.out, intra_v.msg) - 1e-12
    hi2 = np.maximum(inter_v.out, intra_v.msg) + 1e-12
    assert np.all(seg.visual.data >= lo2) and np.all(seg.visual.data <= hi2)
    for name in ("inter.v", "inter.s", "intra.v", "intra.s"):
        g = seg.passes[name].gate
        assert np.all(g > 0.0) and np.all(g < 1.0)


def test_forward_attention_vectors_are_probabilities():
    rng = np.random.default_rng(21)
    ps = params_of(rng)
    trace = forward(make_clip(rng, n_segments=3), ps, cfg_of())
    t = trace.temporal
    for q in range(trace.n_queries):
        block = t.pool_weights[t.query_ids == q, q]
        assert abs(block.sum() - 1.0) <= 1e-12
        assert np.all(block > 0)
    for attn, sizes in ((t.attn_v, trace.segments.v_sizes), (t.attn_s, trace.segments.s_sizes)):
        bounds = np.cumsum((0,) + sizes)
        for j in range(attn.shape[1]):
            s = j % trace.segments.n_segments
            assert abs(attn[bounds[s]:bounds[s + 1], j].sum() - 1.0) <= 1e-12


def test_forward_ablation_flags():
    rng = np.random.default_rng(22)
    ps = params_of(rng)
    clip = make_clip(rng)
    base = forward(clip, ps, cfg_of()).prob.item()
    for flags in ({"inter_modal": False}, {"intra_modal": False}, {"temporal": False},
                  {"fixed_queries": 3}):
        alt = forward(clip, ps, cfg_of(**flags))
        assert np.isfinite(alt.prob.item())
        if flags != {"fixed_queries": 3}:
            assert alt.prob.item() != base  # flag actually changes the path
    fixed = forward(clip, ps, cfg_of(fixed_queries=3))
    assert fixed.n_queries == 3


def test_forward_gradcheck_composite_probability():
    rng = np.random.default_rng(23)
    ps = params_of(rng)
    clip = make_clip(rng, n_segments=2, frames_per=2, tokens_per=2)
    cfg = cfg_of()
    n = forward(clip, ps, cfg).n_queries
    frozen = FrozenDecisions(n_queries=n)
    rep = grad_check(lambda: forward(clip, ps, cfg, frozen=frozen).prob, ps)
    assert rep.passed(1e-4), repr(rep)


# ------------------------------------------------- batched column blocks

def test_batched_levels_match_one_segment_and_one_query_at_a_time():
    rng = np.random.default_rng(24)
    ps = params_of(rng)
    cfg = cfg_of()
    v_sizes, s_sizes = (2, 1, 3), (3, 1, 2)
    V = Tensor(rng.standard_normal((4, sum(v_sizes))))
    S = Tensor(rng.standard_normal((4, sum(s_sizes))))
    seg = refine_segment(V, S, ps, cfg, v_sizes, s_sizes)
    queries = [Tensor(rng.standard_normal((4, 1))) for _ in range(2)]
    temporal = reason_over_segments(seg, tn.concat(queries, axis=1), ps, cfg, ((3, 2),))
    v_bounds = np.cumsum((0,) + v_sizes)
    s_bounds = np.cumsum((0,) + s_sizes)
    alone = [refine_segment(Tensor(V.data[:, v_bounds[i]:v_bounds[i + 1]]),
                            Tensor(S.data[:, s_bounds[i]:s_bounds[i + 1]]), ps, cfg,
                            (v_sizes[i],), (s_sizes[i],))
             for i in range(3)]
    for i, one in enumerate(alone):
        assert np.allclose(seg.visual.data[:, v_bounds[i]:v_bounds[i + 1]], one.visual.data,
                           rtol=0, atol=1e-14)
        assert np.allclose(seg.text.data[:, s_bounds[i]:s_bounds[i + 1]], one.text.data,
                           rtol=0, atol=1e-14)
    for q, query in enumerate(queries):
        block = temporal.query_ids == q
        nodes = [segment_pool(one, query, ps, ONE_PAIR)[0] for one in alone]
        assert np.allclose(temporal.nodes.data[:, block], np.hstack([n.data for n in nodes]),
                           rtol=0, atol=1e-14)
        T, _ = self_pass(tn.concat(nodes, axis=1), ps, "temporal.gate")
        glob, weights = temporal_pool(T, query, ps, (3,))
        assert np.allclose(temporal.global_nodes.data[:, q : q + 1], glob.data, rtol=0, atol=1e-14)
        assert np.allclose(temporal.pool_weights[block, q : q + 1], weights.data, rtol=0, atol=1e-14)


def test_perturbing_one_segment_leaves_the_others_unchanged():
    rng = np.random.default_rng(25)
    ps = params_of(rng)
    cfg = cfg_of(fixed_queries=2)
    clip = make_clip(rng, n_segments=3, frames_per=3, tokens_per=2)
    frames = list(clip.frames)
    for k in (3, 4, 5):                          # the frames of the middle segment
        frames[k] = FrameNode(t=frames[k].t, feature=frames[k].feature + rng.standard_normal(3))
    base = forward(clip, ps, cfg)
    moved = forward(Clip(clip.clip_id, frames, clip.subs, clip.statement, clip.label), ps, cfg)
    keep_v, keep_s = [0, 1, 2, 6, 7, 8], [0, 1, 4, 5]   # node columns of segments 0 and 2

    def same(a, b):
        return np.max(np.abs(a - b)) <= 1e-15

    assert same(base.segments.visual.data[:, keep_v], moved.segments.visual.data[:, keep_v])
    assert same(base.segments.text.data[:, keep_s], moved.segments.text.data[:, keep_s])
    assert not same(base.segments.visual.data[:, 3:6], moved.segments.visual.data[:, 3:6])
    for name, p in base.segments.passes.items():
        q = moved.segments.passes[name]
        keep = keep_v if name.endswith(".v") else keep_s
        for field in ("gate", "msg", "out"):
            assert same(getattr(p, field)[:, keep], getattr(q, field)[:, keep]), (name, field)
        assert same(p.adj[keep], q.adj[keep]), name
    t, u = base.temporal, moved.temporal
    kept = [0, 2, 3, 5]                          # segments 0 and 2 under queries 0 and 1
    assert same(t.nodes.data[:, kept], u.nodes.data[:, kept])
    assert same(t.fuse_gates[:, kept], u.fuse_gates[:, kept])
    assert same(t.attn_v[:, kept], u.attn_v[:, kept])
    assert same(t.attn_s[:, kept], u.attn_s[:, kept])


def test_trace_arrays_are_views_of_the_batched_arrays():
    rng = np.random.default_rng(26)
    ps = params_of(rng)
    trace = forward(make_clip(rng, n_segments=3), ps, cfg_of(fixed_queries=2))
    graph = trace.graphs[0]
    assert graph.n_segments == 3
    assert all(np.shares_memory(v, graph.frames) for v in graph.visual)
    t = trace.temporal
    assert t.nodes.shape == (4, 6) and t.global_nodes.shape == (4, 2)
    # G = T @ weights, and P = (1 - gate) * (V @ attn_v) + gate * (S @ attn_s):
    # the record holds the very arrays of those tape tensors
    refined, weights = t.global_nodes._parents
    assert refined.data is t.refine.out and weights.data is t.pool_weights
    keep, take = t.nodes._parents
    assert take._parents[0].data is t.fuse_gates
    assert keep._parents[1]._parents[1].data is t.attn_v
    assert take._parents[1]._parents[1].data is t.attn_s


def test_tape_size_does_not_grow_with_the_query_count():
    rng = np.random.default_rng(27)
    ps = params_of(rng)
    cfg = cfg_of()
    seg = refine_segment(Tensor(rng.standard_normal((4, 6))), Tensor(rng.standard_normal((4, 6))),
                         ps, cfg, (2, 1, 3), (3, 1, 2))
    buffer = NegativeBuffer(4)
    buffer.push(list(rng.standard_normal((4, 4))))
    counts = []
    for n_q in (2, 3):
        Q = tn.concat([Tensor(rng.standard_normal((4, 1))) for _ in range(n_q)], axis=1)
        start = Tensor(0.0).tape_id
        temporal = reason_over_segments(seg, Q, ps, cfg, ((3, n_q),))
        predict_global(temporal.global_nodes, ps, (n_q,))
        contrastive_loss(temporal, ps, beta=0.1, sizes=(n_q,), buffer=buffer)
        counts.append(Tensor(0.0).tape_id - start)
    assert counts[0] == counts[1], counts


# ------------------------------------------------- clips in lockstep

BATCH_CASES = {
    "default": {},
    "no_inter_modal": {"inter_modal": False},
    "no_intra_modal": {"intra_modal": False},
    "no_temporal": {"temporal": False},
    "fixed_queries_1": {"fixed_queries": 1},
    "fixed_queries_3": {"fixed_queries": 3},
    "no_transport": {"alpha": 0.0},
    "no_contrastive": {"beta": 0.0},
}


def lockstep_setup(seed=10, d=6):
    """Four clips of mixed layout: one segment, single-frame segments, and
    (under the stop rule) 3, 4, 2 and 3 queries."""
    rng = np.random.default_rng(seed)
    ps = params_of(rng, d=d)
    ps["query.halt.w"].data *= 8.0            # halt probabilities that differ by statement
    layouts = [(1, 3), (3, 1), (2, 2), (2, 3)]  # (segments, frames per segment)
    clips = [make_clip(rng, n_segments=n, frames_per=f, tokens_per=1 + i % 2,
                       clauses=2 + i % 3, clip_id=f"c{i}")
             for i, (n, f) in enumerate(layouts)]
    buffer = NegativeBuffer(8)
    buffer.push(list(rng.standard_normal((8, d))))
    return ps, clips, buffer


def rel_close(got, want, tol=1e-12):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.max(np.abs(got - want), initial=0.0) <= tol * np.max(np.abs(want), initial=0.0)


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_lockstep_batch_matches_clips_run_one_at_a_time(case):
    from vlgraph.tensor import backward
    from vlgraph.train import run_clips
    ps, clips, buffer = lockstep_setup()
    cfg = cfg_of(d=6, **BATCH_CASES[case])
    want_grads = {name: np.zeros_like(p.data) for name, p in ps.items()}
    alone = []
    for clip in clips:
        ps.zero_grad()
        bundle, trace = run_clips([clip], ps, cfg, buffer)
        for name, g in backward(bundle.total, ps).items():
            want_grads[name] += g
        alone.append((trace.prob.item(), bundle.as_floats()[0], trace.n_queries))
    if case == "default":
        assert len({n for _, _, n in alone}) == 3      # the clips halt at different steps
    ps.zero_grad()
    bundle, batch = run_clips(clips, ps, cfg, buffer)
    got_grads = backward(bundle.total.sum(), ps)
    for clip, (prob, floats, n), got_prob, got_n, got_floats in zip(
            clips, alone, batch.prob.data[0], batch.query.counts, bundle.as_floats()):
        assert rel_close(got_prob, prob), (clip.clip_id, got_prob, prob)
        assert got_n == n
        for key, value in got_floats.items():
            assert rel_close(value, floats[key]), (clip.clip_id, key, value, floats[key])
    for term, weight in ((bundle.cm, "alpha"), (bundle.cl, "beta")):
        if cfg.to_dict()[weight] == 0.0:           # the shortcut gives one zero per clip
            assert term.shape == (1, len(clips)) and np.all(term.data == 0.0)
    for name, want in want_grads.items():
        got = got_grads[name]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name


def test_project_nodes_maps_every_column_to_model_width():
    rng = np.random.default_rng(0)
    ps = params_of(rng)
    a, b = rng.standard_normal((3, 2)), rng.standard_normal((3, 1))
    both = md.project_nodes([a, b], ps, "proj.v")
    assert both.shape == (4, 3) and np.all(np.abs(both.data) < 1.0)
    assert rel_close(both.data[:, 2:], md.project_nodes([b], ps, "proj.v").data, 1e-15)


def test_batch_projects_each_modality_in_one_product():
    from vlgraph.tensor import backward
    from vlgraph.train import run_clips
    ps, clips, buffer = lockstep_setup()
    bundle, _ = run_clips(clips, ps, cfg_of(d=6), buffer)
    backward(bundle.total.sum())
    # one pending weight-gradient factor per projection map, whatever the clip count
    for name in ("proj.v.w", "proj.s.w", "proj.h.w"):
        assert len(ps[name].factors) == 1, name


def test_lockstep_batch_has_no_cross_clip_weight():
    ps, clips, _ = lockstep_setup()
    cfg = cfg_of(d=6)
    batch = forward_batch(clips, ps, cfg)
    graphs = batch.graphs
    counts = batch.query.counts
    frame_clip = np.repeat(np.arange(4), [g.frames.shape[1] for g in graphs])
    token_clip = np.repeat(np.arange(4), [g.tokens.shape[1] for g in graphs])
    query_clip = np.repeat(np.arange(4), counts)
    pair_clip = np.repeat(np.arange(4), [n * g.n_segments for n, g in zip(counts, graphs)])
    statement_clip = np.repeat(np.arange(4), [c.statement.shape[1] for c in clips])

    def cross(rows, cols):
        return rows[:, None] != cols[None, :]

    nodes = {"v": frame_clip, "s": token_clip}
    for name, p in batch.segments.passes.items():
        receivers, senders = nodes[name[-1]], nodes[name[-1]]
        if name.startswith("inter"):
            senders = nodes["s" if name.endswith(".v") else "v"]
        assert np.all(p.adj[cross(receivers, senders)] == 0.0), name
    t = batch.temporal
    assert np.all(t.pool_weights[cross(pair_clip, query_clip)] == 0.0)
    assert np.all(t.attn_v[cross(frame_clip, pair_clip)] == 0.0)
    assert np.all(t.attn_s[cross(token_clip, pair_clip)] == 0.0)
    assert np.all(t.refine.adj[cross(pair_clip, pair_clip)] == 0.0)
    for attn in batch.query.attn:
        assert np.all(attn.data[cross(statement_clip, np.arange(4))] == 0.0)


def test_perturbing_one_clip_leaves_its_batch_mates_unchanged():
    ps, clips, _ = lockstep_setup()
    cfg = cfg_of(d=6)
    rng = np.random.default_rng(40)
    base = forward_batch(clips, ps, cfg)
    frames = [FrameNode(t=f.t, feature=f.feature + rng.standard_normal(3)) for f in clips[2].frames]
    subs = [SubtitleLine(t0=s.t0, t1=s.t1, tokens=s.tokens + 1.0) for s in clips[2].subs]
    moved = list(clips)
    moved[2] = Clip(clips[2].clip_id, frames, subs, clips[2].statement + 0.5, clips[2].label)
    after = forward_batch(moved, ps, cfg)
    for i, (a, b) in enumerate(zip(base.prob.data[0], after.prob.data[0])):
        if i == 2:
            assert a != b
        else:
            assert rel_close(b, a), (i, a, b)


def test_one_node_clip_without_negatives_is_skipped_beside_its_batch_mates():
    from vlgraph.tensor import backward
    from vlgraph.train import run_clips
    ps, clips, _ = lockstep_setup()
    cfg = cfg_of(d=6, fixed_queries=1)
    clips = clips[1:3] + [clips[0]] + clips[3:]       # the one-segment clip, inside the batch
    empty = NegativeBuffer(8)
    want_grads = {name: np.zeros_like(p.data) for name, p in ps.items()}
    alone = []
    for clip in clips:
        ps.zero_grad()
        bundle, _ = run_clips([clip], ps, cfg, empty)
        for name, g in backward(bundle.total, ps).items():
            want_grads[name] += g
        alone.append(bundle.as_floats()[0])
    ps.zero_grad()
    bundle, batch = run_clips(clips, ps, cfg, empty)
    got_grads = backward(bundle.total.sum(), ps)
    assert batch.temporal.sizes == (3, 2, 1, 2)         # the third clip has one temporal node
    assert bundle.as_floats()[2]["l_cl"] == 0.0
    res = contrastive_loss(batch.temporal, ps, cfg.beta, batch.query.counts, empty)
    assert res.n_skipped == 1 and res.n_pairs == 7
    for i, (got, want) in enumerate(zip(bundle.as_floats(), alone)):
        for key, value in want.items():
            assert rel_close(got[key], value), (i, key, got[key], value)
    for name, want in want_grads.items():
        got = got_grads[name]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name


@pytest.mark.parametrize("frozen", [[1, 5, 3], None])
def test_query_cost_row_is_the_ponder_cost_of_each_statement(frozen):
    from vlgraph.train import total_loss
    ps, clips, buffer = lockstep_setup()
    cfg = cfg_of(d=6)
    if frozen is not None:
        clips = clips[:len(frozen)]
        frozen = [FrozenDecisions(n_queries=n) for n in frozen]
    batch = forward_batch(clips, ps, cfg, frozen)
    qs = batch.query
    assert qs.counts == ((1, 5, 3) if frozen else (3, 4, 2, 3))
    assert qs.surrogate.shape == (1, len(clips))
    assert qs.stopped_early == (0 if frozen else 4)          # every free count is under the cap
    floats = total_loss(batch, [clip.label for clip in clips], ps, cfg, buffer).as_floats()
    for b, n in enumerate(qs.counts):
        c = 0.0 if n == 1 else qs.cum[n - 2].data[0, b]
        assert qs.surrogate.data[0, b] == cfg.query_cost * ((1.0 - c) + n)
        assert floats[b]["l_qe_surrogate"] == qs.surrogate.data[0, b]
        assert floats[b]["l_qe_literal"] == cfg.query_cost * n


@pytest.mark.parametrize("n_frozen", [1, 3])
def test_frozen_decisions_must_match_the_clips(n_frozen):
    ps, clips, _ = lockstep_setup()
    with pytest.raises(ContractError, match=f"{n_frozen} frozen decisions for 2 clips"):
        forward_batch(clips[:2], ps, cfg_of(d=6), [FrozenDecisions(n_queries=1)] * n_frozen)


# ------------------------------------------------------------- input guards

def _guard_nodes(*shape):
    return Tensor(np.random.default_rng(0).standard_normal(shape))


def _one_segment():
    return md.SegmentTrace(visual=_guard_nodes(4, 2), text=_guard_nodes(4, 3), v_sizes=(2,),
                           s_sizes=(3,))


# (call, error type, message fragment) of each input guard of `model`
GUARDS = {
    "batch-without-clips": (lambda: forward_batch([], params_of(np.random.default_rng(0)),
                                                  cfg_of()),
                            ContractError, "a batch needs at least one clip"),
    "statement-without-columns": (
        lambda: forward_batch([dataclasses.replace(make_clip(np.random.default_rng(0)),
                                                   statement=np.zeros((3, 0)))],
                              params_of(np.random.default_rng(0)), cfg_of()),
        ContractError, "statement must have at least one token"),
    "message-pass-block-counts": (
        lambda: message_pass(_guard_nodes(4, 2), _guard_nodes(4, 2), _guard_nodes(4, 1),
                             _guard_nodes(4, 2), params_of(np.random.default_rng(0)),
                             "intra.v", (2,), (1, 1)),
        ContractError, "intra.v: 1 receiving blocks but 2 sending"),
    "segment-trace-block-counts": (
        lambda: md.SegmentTrace(visual=_guard_nodes(4, 2), text=_guard_nodes(4, 2),
                                v_sizes=(2,), s_sizes=(1, 1)),
        ContractError, "every segment needs a visual and a text block"),
    "reason-over-uncovered-segments": (
        lambda: reason_over_segments(_one_segment(), _guard_nodes(4, 1),
                                     params_of(np.random.default_rng(0)), cfg_of(), ((3, 1),)),
        ContractError, "do not cover 1 segments and 1 queries"),
    "predict-without-global-nodes": (
        lambda: predict_global(_guard_nodes(4, 0), params_of(np.random.default_rng(0)), ()),
        ContractError, "prediction needs at least one global node"),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_model_guards_raise_package_errors(case):
    call, error, fragment = GUARDS[case]
    with pytest.raises(error, match=re.escape(fragment)):
        call()
