import itertools
import re

import numpy as np
import pytest

from vlgraph import tensor as tn
from vlgraph.errors import ContractError, NumericalError, ShapeError
from vlgraph.graph import block_bounds
from vlgraph.model import SegmentTrace
from vlgraph.tensor import ParamStore, Tensor, backward, grad_check
from vlgraph.train import TrainConfig
from vlgraph.transport import (
    Coupling,
    sinkhorn,
    solve_plan,
    transport_loss,
)


def np_cosine_cost(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine distances between the columns of a and b, clipped to [0, 2]."""
    na = np.linalg.norm(a, axis=0, keepdims=True)
    nb = np.linalg.norm(b, axis=0, keepdims=True)
    if na.min() <= 1e-12 or nb.min() <= 1e-12:
        raise ContractError("cosine cost: zero-norm node")
    return np.clip(1.0 - (a / na).T @ (b / nb), 0.0, 2.0)


def solve(node_cost, intra_a, intra_b, cfg, a_sizes=None, b_sizes=None) -> Coupling:
    """`solve_plan` on the structure of the two intra costs, as
    `transport_loss` builds it: blocks of `a_sizes` and `b_sizes` nodes, or
    one segment of all of them when the sizes are not given."""
    a_sizes = (len(intra_a),) if a_sizes is None else a_sizes
    b_sizes = (len(intra_b),) if b_sizes is None else b_sizes
    return solve_plan(node_cost, tn.SortedStructure(intra_a, intra_b, a_sizes, b_sizes), cfg)


def solve_distance(node_cost, intra_a, intra_b, cfg, a_sizes=None,
                   b_sizes=None) -> tuple[np.ndarray, Coupling]:
    """`solve` and each segment's fused distance at the plan it returns
    (`dense_distance` of the segment's blocks), as an (n_segments,) array."""
    a_sizes = (len(intra_a),) if a_sizes is None else a_sizes
    b_sizes = (len(intra_b),) if b_sizes is None else b_sizes
    coupling = solve(node_cost, intra_a, intra_b, cfg, a_sizes, b_sizes)
    distance = [dense_distance(coupling.plan[a0:a1, b0:b1], node_cost[a0:a1, b0:b1],
                               intra_a[a0:a1, a0:a1], intra_b[b0:b1, b0:b1], cfg)
                for (a0, a1), (b0, b1) in zip(block_bounds(a_sizes), block_bounds(b_sizes))]
    return np.array(distance), coupling


def got_distance(a: np.ndarray, b: np.ndarray, cfg: TrainConfig) -> tuple[np.ndarray, Coupling]:
    """Fused transport distance between two node matrices (columns = nodes)."""
    return solve_distance(np_cosine_cost(a, b), np_cosine_cost(a, a), np_cosine_cost(b, b), cfg)


def brute_force_wd(cost: np.ndarray) -> float:
    """Exact uniform-marginal transport cost by permutation enumeration.

    Valid for square costs up to 6x6, where the optimum sits on a
    permutation vertex of the doubly stochastic polytope.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ShapeError(f"brute_force_wd: cost must be square, got {cost.shape}")
    n = cost.shape[0]
    if n > 6:
        raise ContractError(f"brute_force_wd: n={n} exceeds the enumeration limit of 6")
    rows = np.arange(n)
    return min(float(cost[rows, perm].mean()) for perm in itertools.permutations(range(n)))


def dense_gap(intra_a, intra_b):
    """The (n, m, n, m) structure gap |A_ik - B_jl| of one segment."""
    return np.abs(intra_a[:, None, :, None] - intra_b[None, :, None, :])


def dense_distance(plan, node_cost, intra_a, intra_b, cfg) -> float:
    """One segment's fused distance at `plan`, sum T * (lam C + L_T), with
    the linearisation L_T taken through the dense gap: the reference for the
    distance that `transport_loss` computes."""
    fused = cfg.lam * node_cost + np.einsum("ijkl,kl->ij", dense_gap(intra_a, intra_b), plan)
    return float((plan * fused).sum())


def dense_solve_plan(node_cost, intra_a, intra_b, cfg):
    """Fused transport of one segment with the structure term linearized
    through the dense gap: the reference for `solve_plan`. Returns the plan,
    its distance (`dense_distance`) and the Sinkhorn calls."""
    n, m = node_cost.shape
    p, q = uniform(n), uniform(m)
    gap = dense_gap(intra_a, intra_b)
    plan = np.outer(p, q)
    warm = None
    for rounds in range(1, cfg.ot_gw_outer_iters + 1):
        linear = cfg.lam * node_cost + np.einsum("ijkl,kl->ij", gap, plan)
        new_plan, _, warm = sinkhorn_one(linear, p, q, cfg.ot_eps_reg, cfg.ot_sinkhorn_iters,
                                         cfg.ot_tol, warm)
        delta = float(np.abs(new_plan - plan).max())
        plan = new_plan
        if delta <= cfg.ot_tol:
            break
    return plan, dense_distance(plan, node_cost, intra_a, intra_b, cfg), rounds


def uniform(n):
    return np.full(n, 1.0 / n)


def sinkhorn_one(cost, p, q, *args, **kwargs):
    """`sinkhorn` on one problem, run as a batch of one."""
    plans, errs, warm = sinkhorn(np.asarray(cost)[None], np.asarray(p)[None],
                                 np.asarray(q)[None], *args, **kwargs)
    return plans[0], errs[0], warm


def tight_cfg(eps=1e-3, lam=1.0, alpha=0.1, tol=1e-5):
    # at eps=1e-3 the marginal error stalls near 1e-6 in float64 while the
    # transported cost is already accurate at 1e-5; don't burn the iter cap
    return TrainConfig(lam=lam, alpha=alpha, ot_eps_reg=eps, ot_sinkhorn_iters=20000,
                       ot_gw_outer_iters=10, ot_tol=tol)


# ----------------------------------------------------------------- sinkhorn

def test_zero_cost_gives_outer_product():
    p, q = uniform(3), uniform(4)
    plan, err, _ = sinkhorn_one(np.zeros((3, 4)), p, q, eps_reg=0.1, iters=10, tol=1e-6)
    assert np.allclose(plan, np.outer(p, q), atol=1e-15)
    assert err <= 1e-15


def test_permutation_cost_concentrates_on_diagonal():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    plan, _, _ = sinkhorn_one(cost, uniform(2), uniform(2), eps_reg=1e-3, iters=5000, tol=1e-12)
    assert np.allclose(plan, np.diag([0.5, 0.5]), atol=1e-6)
    assert float((plan * cost).sum()) <= 1e-3


def test_marginal_contract_random_5x7():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0.0, 1.0, size=(5, 7))
        plan, err, _ = sinkhorn_one(cost, uniform(5), uniform(7), eps_reg=0.05,
                                iters=500, tol=1e-6)
        assert err <= 1e-6
        assert np.abs(plan.sum(axis=1) - uniform(5)).max() <= 1e-6
        assert np.abs(plan.sum(axis=0) - uniform(7)).max() <= 1e-6
        assert np.all(plan >= 0.0)


def test_sinkhorn_input_contracts():
    with pytest.raises(ContractError):
        sinkhorn_one(np.zeros((2, 2)), np.array([0.7, 0.7]), uniform(2), 0.1, 10, 1e-6)
    with pytest.raises(ShapeError):
        sinkhorn_one(np.zeros((2, 2)), uniform(3), uniform(2), 0.1, 10, 1e-6)
    with pytest.raises(ContractError):
        sinkhorn_one(np.array([[np.inf, 0.0], [0.0, 0.0]]), uniform(2), uniform(2), 0.1, 10, 1e-6)


@pytest.mark.parametrize("eps_reg, iters, named", [
    (-0.05, 10, "eps_reg must be positive, got -0.05"),
    (0.0, 10, "eps_reg must be positive, got 0.0"),
    (0.1, 0, "iters must be at least 1, got 0"),
])
def test_sinkhorn_rejects_a_nonpositive_eps_reg_or_no_iterations(eps_reg, iters, named):
    with pytest.raises(ContractError, match=named):
        sinkhorn_one(np.ones((2, 3)), uniform(2), uniform(3), eps_reg, iters, 1e-6)


# -------------------------------------------------------------- brute force

def test_brute_force_examples():
    assert brute_force_wd(1.0 - np.eye(3)) == 0.0
    assert abs(brute_force_wd(np.array([[0.2, 0.9], [0.8, 0.1]])) - 0.15) < 1e-15
    with pytest.raises(ContractError):
        brute_force_wd(np.zeros((7, 7)))
    with pytest.raises(ShapeError):
        brute_force_wd(np.zeros((2, 3)))


def test_entropic_gap_bound_random_4x4():
    # plan cost can exceed the exact optimum by at most eps * log(n)
    eps = 0.01
    for seed in range(10):
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0.0, 2.0, size=(4, 4))
        plan, _, _ = sinkhorn_one(cost, uniform(4), uniform(4), eps, iters=20000, tol=1e-10)
        sink_val = float((plan * cost).sum())
        exact = brute_force_wd(cost)
        assert exact <= sink_val + 1e-9
        assert sink_val <= exact + eps * np.log(4) + 1e-9


# ------------------------------------------------------------ fused distance

def test_degenerate_structure_2x2_matches_hand_value():
    node_cost = np.array([[0.2, 0.9], [0.8, 0.1]])
    zero = np.zeros((2, 2))
    distance, _ = solve_distance(node_cost, zero, zero, tight_cfg())
    assert abs(distance - 0.15) <= 0.02 * 0.15


def test_degenerate_structure_matches_brute_force_2pct():
    cfg = tight_cfg()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        node_cost = rng.uniform(0.0, 2.0, size=(n, n))
        zero = np.zeros((n, n))
        got = solve_distance(node_cost, zero, zero, cfg)[0]
        exact = brute_force_wd(node_cost)
        assert abs(got - exact) <= 0.02 * exact
        assert got >= 0.0


def test_self_distance_near_zero():
    rng = np.random.default_rng(3)
    nodes = rng.standard_normal((6, 4))
    d, coupling = got_distance(nodes, nodes, tight_cfg(tol=1e-7))
    assert 0.0 <= d <= 1e-2
    assert coupling.converged


def test_distance_nonincreasing_in_regularization():
    # self-distance on a fixed random node set, and pure node-cost transport:
    # both shrink (non-strictly) as the regularization is tightened
    rng = np.random.default_rng(4)
    nodes = rng.standard_normal((5, 4))
    cost = rng.uniform(0.0, 2.0, size=(5, 4))
    self_vals, wd_vals = [], []
    for eps in (0.1, 0.05, 0.01, 0.001):
        cfg = TrainConfig(lam=0.5, ot_eps_reg=eps, ot_sinkhorn_iters=20000,
                          ot_gw_outer_iters=10, ot_tol=1e-8)
        self_vals.append(got_distance(nodes, nodes, cfg)[0])
        cfg_wd = TrainConfig(lam=1.0, ot_eps_reg=eps, ot_sinkhorn_iters=20000,
                             ot_gw_outer_iters=10, ot_tol=1e-8)
        wd_vals.append(solve_distance(cost, np.zeros((5, 5)), np.zeros((4, 4)), cfg_wd)[0])
    for series in (self_vals, wd_vals):
        for hi, lo in zip(series, series[1:]):
            assert lo <= hi + 1e-6
        assert all(v >= 0.0 for v in series)


def test_node_relabeling_invariance():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((5, 4))
    cfg = tight_cfg(tol=1e-6)
    base = got_distance(a, b, cfg)[0]
    perm = rng.permutation(4)
    assert abs(got_distance(a[:, perm], b, cfg)[0] - base) <= 1e-8
    assert abs(got_distance(a, b[:, perm], cfg)[0] - base) <= 1e-8


def test_solve_plan_matches_dense_structure_oracle():
    cfg = TrainConfig(ot_sinkhorn_iters=500)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        k, t = (int(x) for x in rng.integers(1, 9, size=2))
        a = rng.standard_normal((5, t))
        b = rng.standard_normal((5, k))
        costs = (np_cosine_cost(a, b), np_cosine_cost(a, a), np_cosine_cost(b, b))
        plan, distance, _ = dense_solve_plan(*costs, cfg)
        got, coupling = solve_distance(*costs, cfg)
        assert np.abs(coupling.plan - plan).max() <= 1e-12 * plan.max()
        assert abs(got - distance) <= 1e-12 * distance


def test_marginals_satisfied_on_coupling():
    rng = np.random.default_rng(6)
    _, coupling = got_distance(rng.standard_normal((4, 5)), rng.standard_normal((4, 3)),
                               TrainConfig(ot_sinkhorn_iters=2000))
    assert np.abs(coupling.plan.sum(axis=1) - 1 / 5).max() <= 1e-6
    assert np.abs(coupling.plan.sum(axis=0) - 1 / 3).max() <= 1e-6


# -------------------------------------------------------------- loss wiring

def seg_of(rng, d=4, k=3, n_tokens=2):
    return SegmentTrace(visual=Tensor(rng.standard_normal((d, k))),
                        text=Tensor(rng.standard_normal((d, n_tokens))), v_sizes=(k,),
                        s_sizes=(n_tokens,))


def test_loss_zero_when_alpha_zero():
    rng = np.random.default_rng(7)
    loss, plans = transport_loss(seg_of(rng), TrainConfig(alpha=0.0))
    assert loss.item() == 0.0 and plans == []


def test_loss_identical_modalities_small():
    rng = np.random.default_rng(8)
    nodes = rng.standard_normal((4, 3))
    seg = SegmentTrace(visual=Tensor(nodes), text=Tensor(nodes.copy()), v_sizes=(3,), s_sizes=(3,))
    loss, _ = transport_loss(seg, tight_cfg(alpha=0.1))
    assert 0.0 <= loss.item() <= 0.1 * 1e-2


def test_loss_is_mean_over_segments():
    rng = np.random.default_rng(9)
    s1, s2 = seg_of(rng), seg_of(rng, k=2, n_tokens=3)
    cfg = TrainConfig(alpha=0.2, ot_sinkhorn_iters=2000)
    l1 = transport_loss(s1, cfg)[0].item()
    l2 = transport_loss(s2, cfg)[0].item()
    s12 = SegmentTrace(visual=tn.concat([s1.visual, s2.visual], axis=1),
                       text=tn.concat([s1.text, s2.text], axis=1), v_sizes=(3, 2), s_sizes=(2, 3))
    both = transport_loss(s12, cfg)[0].item()
    assert abs(both - (l1 + l2) / 2.0) <= 1e-12


def test_loss_gradients_flow_through_costs_with_frozen_plan():
    rng = np.random.default_rng(10)
    ps = ParamStore()
    ps.add("v", rng.standard_normal((3, 3)))
    ps.add("s", rng.standard_normal((3, 2)))
    cfg = TrainConfig(alpha=0.3, ot_sinkhorn_iters=2000)

    def seg():
        return SegmentTrace(visual=ps["v"], text=ps["s"], v_sizes=(3,), s_sizes=(2,))

    _, plans = transport_loss(seg(), cfg)
    rep = grad_check(lambda: transport_loss(seg(), cfg, frozen_plans=plans)[0], ps)
    assert rep.passed(1e-4), repr(rep)


def test_frozen_plans_reproduce_solution():
    rng = np.random.default_rng(11)
    seg = seg_of(rng)
    cfg = TrainConfig(ot_sinkhorn_iters=2000)
    l1, plans = transport_loss(seg, cfg)
    l2, _ = transport_loss(seg, cfg, frozen_plans=plans)
    assert l1.item() == l2.item()


def test_loss_backward_reaches_upstream_parameters():
    rng = np.random.default_rng(12)
    ps = ParamStore()
    ps.add("v", rng.standard_normal((3, 4)))
    ps.add("s", rng.standard_normal((3, 2)))
    loss, _ = transport_loss(SegmentTrace(visual=ps["v"], text=ps["s"], v_sizes=(4,), s_sizes=(2,)),
                             TrainConfig(ot_sinkhorn_iters=500))
    grads = backward(loss, ps)
    assert np.any(grads["v"] != 0) and np.any(grads["s"] != 0)


def two_segments(rng):
    return SegmentTrace(visual=Tensor(rng.standard_normal((4, 5))),
                        text=Tensor(rng.standard_normal((4, 5))), v_sizes=(3, 2), s_sizes=(2, 3))


def test_frozen_plan_count_must_match_segments():
    both = two_segments(np.random.default_rng(13))
    _, plans = transport_loss(both, TrainConfig())
    for wrong in (plans[:1], plans + plans[:1]):
        with pytest.raises(ContractError, match=rf"{len(wrong)} frozen plans for 2 segments"):
            transport_loss(both, TrainConfig(), frozen_plans=wrong)


def test_structure_is_built_once_per_call(monkeypatch):
    built = []

    class Counted(tn.SortedStructure):
        def __init__(self, a, b, a_sizes, b_sizes):
            built.append((a.shape, b.shape, tuple(a_sizes), tuple(b_sizes)))
            super().__init__(a, b, a_sizes, b_sizes)

    monkeypatch.setattr(tn, "SortedStructure", Counted)
    both = two_segments(np.random.default_rng(14))
    _, plans = transport_loss(both, TrainConfig())
    # one structure serves both segments, for the solve and the loss term alike
    assert built == [((5, 5), (5, 5), (2, 3), (3, 2))]
    # and on frozen plans, one again
    transport_loss(both, TrainConfig(), frozen_plans=plans)
    assert built == [((5, 5), (5, 5), (2, 3), (3, 2))] * 2


# ------------------------------------------------------ batched segments

def mixed_segments(rng):
    """(node cost, intra A, intra B) of segments that exercise the batch:
    1x1, 1xm and nx1 blocks, intra costs on four shared levels (ties
    everywhere), all-zero intra costs, all-zero costs (the first plan is the
    answer, so round 1 ends it) and random ones that run to the round cap."""
    def cosine(n, m):
        a, b = rng.standard_normal((5, n)), rng.standard_normal((5, m))
        return np_cosine_cost(a, b), np_cosine_cost(a, a), np_cosine_cost(b, b)

    return [
        cosine(1, 1),
        cosine(1, 4),
        cosine(3, 1),
        (rng.uniform(0.0, 2.0, (4, 3)), rng.integers(0, 4, (4, 4)) / 2.0,
         rng.integers(0, 4, (3, 3)) / 2.0),
        (rng.uniform(0.0, 2.0, (3, 4)), np.zeros((3, 3)), np.zeros((4, 4))),
        (np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((3, 3))),
        cosine(4, 4),
        cosine(3, 5),
        cosine(4, 4),
    ]


def batch_of(segments, rng):
    """Whole-batch cost matrices with each segment's costs in its diagonal
    blocks and large random values between segments, which must never be
    read; and the block sizes."""
    n = tuple(c.shape[0] for c, _, _ in segments)
    m = tuple(c.shape[1] for c, _, _ in segments)
    node = rng.uniform(5.0, 9.0, (sum(n), sum(m)))
    intra_a = rng.uniform(5.0, 9.0, (sum(n), sum(n)))
    intra_b = rng.uniform(5.0, 9.0, (sum(m), sum(m)))
    for (c, a, b), (a0, a1), (b0, b1) in zip(segments, block_bounds(n), block_bounds(m)):
        node[a0:a1, b0:b1], intra_a[a0:a1, a0:a1], intra_b[b0:b1, b0:b1] = c, a, b
    return node, intra_a, intra_b, n, m


def test_batched_solve_matches_each_segment_solved_alone():
    rng = np.random.default_rng(21)
    cfg = TrainConfig(ot_sinkhorn_iters=500)
    segments = mixed_segments(rng)
    node, intra_a, intra_b, n, m = batch_of(segments, rng)
    distances, batch = solve_distance(node, intra_a, intra_b, cfg, n, m)
    outside = np.ones(batch.plan.shape, dtype=bool)
    converged = 0
    for s, (costs, (a0, a1), (b0, b1)) in enumerate(zip(segments, block_bounds(n),
                                                          block_bounds(m))):
        plan, distance, rounds = dense_solve_plan(*costs, cfg)
        alone = solve(*costs, cfg)
        got = batch.plan[a0:a1, b0:b1]
        assert np.abs(got - plan).max() <= 1e-12 * plan.max(), s
        assert abs(distances[s] - distance) <= 1e-12 * distance, s
        assert batch.rounds[s] == rounds == alone.rounds[0], s
        assert batch.marginal_err[s] == pytest.approx(alone.marginal_err[0], rel=1e-6, abs=1e-15)
        converged += alone.converged
        outside[a0:a1, b0:b1] = False
    assert np.all(batch.plan[outside] == 0.0)
    assert batch.converged == converged
    # the batch holds a segment that stops in round 1 beside ones at the cap
    assert batch.rounds.min() == 1 and batch.rounds.max() == cfg.ot_gw_outer_iters


def test_padding_and_other_segments_never_leak_into_a_segment():
    rng = np.random.default_rng(22)
    cfg = TrainConfig(ot_sinkhorn_iters=500)
    segments = mixed_segments(rng)
    node, intra_a, intra_b, n, m = batch_of(segments, rng)
    base = solve(node, intra_a, intra_b, cfg, n, m)
    # zero the costs of segment 6, so that it leaves the batch after round 1
    # instead of at the cap, and change every value between segments
    node2, intra_a2, intra_b2, _, _ = batch_of(segments, rng)
    (a0, a1), (b0, b1) = block_bounds(n)[6], block_bounds(m)[6]
    node2[a0:a1, b0:b1] = intra_a2[a0:a1, a0:a1] = intra_b2[b0:b1, b0:b1] = 0.0
    other = solve(node2, intra_a2, intra_b2, cfg, n, m)
    assert (base.rounds[6], other.rounds[6]) == (cfg.ot_gw_outer_iters, 1)
    for s, ((r0, r1), (c0, c1)) in enumerate(zip(block_bounds(n), block_bounds(m))):
        same = np.array_equal(base.plan[r0:r1, c0:c1], other.plan[r0:r1, c0:c1])
        assert same == (s != 6), s
    assert np.array_equal(np.delete(base.rounds, 6), np.delete(other.rounds, 6))


def test_solve_plan_rejects_a_node_cost_off_the_structure_blocks():
    rng = np.random.default_rng(16)
    node, intra_a, intra_b, n, m = batch_of(mixed_segments(rng)[:3], rng)
    structure = tn.SortedStructure(intra_a, intra_b, n, m)
    for wrong in (node[:-1], node[:, :-1], node.T):
        with pytest.raises(ShapeError, match=rf"node cost \({wrong.shape[0]}, {wrong.shape[1]}\) "
                                             r"does not fit the structure's blocks"):
            solve_plan(wrong, structure, TrainConfig())


def test_sinkhorn_padding_carries_no_mass():
    rng = np.random.default_rng(24)
    cost = rng.uniform(0.0, 1.0, (3, 4))
    alone, err, _ = sinkhorn_one(cost, uniform(3), uniform(4), 0.05, 500, 1e-9)
    costs = rng.uniform(0.0, 1.0, (2, 5, 6))
    costs[0, :3, :4] = cost
    p, q = np.zeros((2, 5)), np.zeros((2, 6))
    p[0, :3], q[0, :4], p[1], q[1] = uniform(3), uniform(4), uniform(5), uniform(6)
    plans, errs, _ = sinkhorn(costs, p, q, 0.05, 500, 1e-9)
    assert np.array_equal(plans[0, :3, :4], alone) and errs[0] == err
    assert np.all(plans[0, 3:] == 0.0) and np.all(plans[0, :, 4:] == 0.0)


def per_segment_loss(segments, cfg, sizes):
    """The transport row taken one segment at a time, each with the dense
    oracle's plan and its own cosine costs: the reference for the batched
    `transport_loss`."""
    terms, plans = [], []
    for (v0, v1), (s0, s1) in zip(block_bounds(segments.v_sizes), block_bounds(segments.s_sizes)):
        visual = tn.gather(segments.visual, np.arange(v0, v1))
        text = tn.gather(segments.text, np.arange(s0, s1))
        node = tn.cosine_cost(text, visual)
        intra_s, intra_v = tn.cosine_cost(text, text), tn.cosine_cost(visual, visual)
        plan, _, _ = dense_solve_plan(node.data, intra_s.data, intra_v.data, cfg)
        plans.append(plan)
        structure = tn.SortedStructure(intra_s.data, intra_v.data, (s1 - s0,), (v1 - v0,))
        terms.append(tn.add(tn.mul(node, Tensor(cfg.lam * plan)).sum(),
                            tn.gw_pair_cost(intra_s, intra_v, plan, structure)))
    return tn.mul(tn.block_mean(tn.concat(terms, axis=1), sizes), cfg.alpha), plans


def test_batched_loss_and_gradients_match_segments_taken_one_at_a_time():
    rng = np.random.default_rng(23)
    cfg = TrainConfig(alpha=0.3, ot_sinkhorn_iters=500)
    tokens, frames = (1, 1, 3, 2, 4, 3), (1, 4, 1, 2, 3, 3)
    ps = ParamStore()
    ps.add("v", rng.standard_normal((5, sum(frames))))
    ps.add("s", rng.standard_normal((5, sum(tokens))))
    # a repeated frame and token: the last segment's intra costs tie
    ps["v"].data[:, -1] = ps["v"].data[:, -2]
    ps["s"].data[:, -1] = ps["s"].data[:, -3]

    def segments():
        return SegmentTrace(visual=ps["v"], text=ps["s"], v_sizes=frames, s_sizes=tokens)

    sizes = (2, 1, 3)
    row, plans = transport_loss(segments(), cfg, sizes=sizes)
    want, want_plans = per_segment_loss(segments(), cfg, sizes)
    assert row.shape == (1, 3)
    assert np.abs(row.data - want.data).max() <= 1e-12 * np.abs(want.data).max()
    for got, ref in zip(plans, want_plans):
        assert got.shape == ref.shape and np.abs(got - ref).max() <= 1e-12 * ref.max()
    got_grads = {k: g.copy() for k, g in backward(row.sum(), ps).items()}
    ps.zero_grad()
    for name, ref in backward(want.sum(), ps).items():
        assert np.abs(got_grads[name] - ref).max() <= 1e-12 * np.abs(ref).max(), name


def test_loss_row_is_the_dense_distance_of_its_plans():
    # alpha = 1 and one segment per clip: each entry of the row is its
    # segment's fused distance at the plan the loss returns
    rng = np.random.default_rng(25)
    cfg = TrainConfig(alpha=1.0, ot_sinkhorn_iters=500)
    tokens, frames = (1, 1, 3, 2, 4, 3, 5), (1, 4, 1, 2, 3, 3, 2)
    visual = rng.standard_normal((5, sum(frames)))
    text = rng.standard_normal((5, sum(tokens)))
    visual[:, -4] = visual[:, -5]            # a repeated frame: intra costs tie
    segments = SegmentTrace(visual=Tensor(visual), text=Tensor(text), v_sizes=frames,
                            s_sizes=tokens)
    row, plans = transport_loss(segments, cfg, sizes=(1,) * len(tokens))
    assert row.shape == (1, len(tokens)) and len(plans) == len(tokens)
    for s, (plan, (s0, s1), (v0, v1)) in enumerate(zip(plans, block_bounds(tokens),
                                                       block_bounds(frames))):
        t, v = text[:, s0:s1], visual[:, v0:v1]
        want = dense_distance(plan, np_cosine_cost(t, v), np_cosine_cost(t, t),
                              np_cosine_cost(v, v), cfg)
        assert abs(row.data[0, s] - want) <= 1e-12 * want, (s, row.data[0, s], want)


def test_frozen_plans_are_checked_segment_by_segment():
    both = two_segments(np.random.default_rng(15))
    _, plans = transport_loss(both, TrainConfig())
    for frozen, message in (
        ([plans[0], plans[1].T], r"frozen plan 1 has shape \(2, 3\), segment 1 needs \(3, 2\)"),
        ([plans[0][:, :2], plans[1]], r"frozen plan 0 has shape \(2, 2\), segment 0 needs \(2, 3\)"),
        ([plans[0] * np.nan, plans[1]], "frozen plan 0 must be finite and nonnegative"),
        ([plans[0], -plans[1]], "frozen plan 1 must be finite and nonnegative"),
        ([plans[0], np.where(plans[1] > plans[1].min(), plans[1], np.inf)],
         "frozen plan 1 must be finite and nonnegative"),
    ):
        with pytest.raises(ContractError, match=message):
            transport_loss(both, TrainConfig(), frozen_plans=frozen)


# ------------------------------------------------- structure-only matching

def test_structure_term_recovers_a_planted_matching():
    # lam = 0: only the structure term |A_ik - B_jl| drives the plan. Each
    # trial's visual nodes are its text nodes permuted plus noise, so the two
    # intra costs share their structure up to the planted matching; an
    # unrelated segment pairs the same text nodes with independent ones. Over
    # seeds 0-19 at 120 trials, rows recovered read 0.83-0.90 and aligned
    # below unrelated 0.89-0.98; chance is about 1/n and 1/2.
    rng = np.random.default_rng(0)
    d, noise, trials = 32, 0.3, 120
    segments, partners = [], []
    for _ in range(trials):
        n = int(rng.integers(3, 9))
        text = rng.standard_normal((d, n))
        perm = rng.permutation(n)
        aligned = text[:, perm] + noise * rng.standard_normal((d, n))
        for visual in (aligned, rng.standard_normal((d, n))):
            segments.append((np_cosine_cost(text, visual), np_cosine_cost(text, text),
                             np_cosine_cost(visual, visual)))
        partners.append(np.argsort(perm))          # text node i went to visual column partner[i]
    node, intra_a, intra_b, n, m = batch_of(segments, rng)
    distance, coupling = solve_distance(node, intra_a, intra_b, TrainConfig(lam=0.0), n, m)
    blocks = list(zip(block_bounds(n), block_bounds(m)))
    hits = [coupling.plan[a0:a1, b0:b1].argmax(axis=1) == partner
            for ((a0, a1), (b0, b1)), partner in zip(blocks[0::2], partners)]
    recovered = np.concatenate(hits).mean()
    aligned_closer = np.mean(distance[0::2] < distance[1::2])
    assert recovered >= 0.75, recovered
    assert aligned_closer >= 0.8, aligned_closer


# ------------------------------------------------------------- input guards

def _overflowing_sinkhorn():
    # cost / eps_reg overflows to inf in a whole row; numpy warns before the check
    cost = np.zeros((1, 2, 2))
    cost[0, 0] = 1e308
    half = np.full((1, 2), 0.5)
    with np.errstate(all="ignore"):
        sinkhorn(cost, half, half, 1e-300, 5, 1e-6)


# (call, error type, message fragment) of each input guard of `transport`
GUARDS = {
    "sinkhorn-cost-not-3d": (lambda: sinkhorn(np.zeros((2, 2)), np.full((1, 2), 0.5),
                                              np.full((1, 2), 0.5), 0.1, 5, 1e-6),
                             ShapeError, "cost must be (problems, n, m), got (2, 2)"),
    "sinkhorn-non-finite-scaling": (_overflowing_sinkhorn, NumericalError,
                                    "non-finite values in problem 0; increase eps_reg"),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_transport_guards_raise_package_errors(case):
    call, error, fragment = GUARDS[case]
    with pytest.raises(error, match=re.escape(fragment)):
        call()
