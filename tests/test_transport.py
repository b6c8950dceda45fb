import itertools

import numpy as np
import pytest

from vlgraph import tensor as tn
from vlgraph.errors import ContractError, ShapeError
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


def got_distance(a: np.ndarray, b: np.ndarray, cfg: TrainConfig) -> tuple[float, Coupling]:
    """Fused transport distance between two node matrices (columns = nodes)."""
    coupling = solve_plan(np_cosine_cost(a, b), np_cosine_cost(a, a), np_cosine_cost(b, b), cfg)
    return coupling.distance, coupling


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


def dense_solve_plan(node_cost, intra_a, intra_b, cfg):
    """Fused transport with the structure term linearized through the dense
    (n, m, n, m) gap |A_ik - B_jl|: the reference for `solve_plan`."""
    n, m = node_cost.shape
    p, q = uniform(n), uniform(m)
    gap = np.abs(intra_a[:, None, :, None] - intra_b[None, :, None, :])
    plan = np.outer(p, q)
    warm = None
    for _ in range(cfg.ot_gw_outer_iters):
        linear = cfg.lam * node_cost + np.einsum("ijkl,kl->ij", gap, plan)
        new_plan, _, warm = sinkhorn(linear, p, q, cfg.ot_eps_reg, cfg.ot_sinkhorn_iters,
                                     cfg.ot_tol, warm)
        delta = float(np.abs(new_plan - plan).max())
        plan = new_plan
        if delta <= cfg.ot_tol:
            break
    fused = cfg.lam * node_cost + np.einsum("ijkl,kl->ij", gap, plan)
    return plan, float((plan * fused).sum())


def uniform(n):
    return np.full(n, 1.0 / n)


def tight_cfg(eps=1e-3, lam=1.0, alpha=0.1, tol=1e-5):
    # at eps=1e-3 the marginal error stalls near 1e-6 in float64 while the
    # transported cost is already accurate at 1e-5; don't burn the iter cap
    return TrainConfig(lam=lam, alpha=alpha, ot_eps_reg=eps, ot_sinkhorn_iters=20000,
                       ot_gw_outer_iters=10, ot_tol=tol)


# ----------------------------------------------------------------- sinkhorn

def test_zero_cost_gives_outer_product():
    p, q = uniform(3), uniform(4)
    plan, err, _ = sinkhorn(np.zeros((3, 4)), p, q, eps_reg=0.1, iters=10)
    assert np.allclose(plan, np.outer(p, q), atol=1e-15)
    assert err <= 1e-15


def test_permutation_cost_concentrates_on_diagonal():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    plan, _, _ = sinkhorn(cost, uniform(2), uniform(2), eps_reg=1e-3, iters=5000, tol=1e-12)
    assert np.allclose(plan, np.diag([0.5, 0.5]), atol=1e-6)
    assert float((plan * cost).sum()) <= 1e-3


def test_marginal_contract_random_5x7():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0.0, 1.0, size=(5, 7))
        plan, err, _ = sinkhorn(cost, uniform(5), uniform(7), eps_reg=0.05,
                                iters=500, tol=1e-6)
        assert err <= 1e-6
        assert np.abs(plan.sum(axis=1) - uniform(5)).max() <= 1e-6
        assert np.abs(plan.sum(axis=0) - uniform(7)).max() <= 1e-6
        assert np.all(plan >= 0.0)


def test_sinkhorn_input_contracts():
    with pytest.raises(ContractError):
        sinkhorn(np.zeros((2, 2)), np.array([0.7, 0.7]), uniform(2), 0.1, 10)
    with pytest.raises(ShapeError):
        sinkhorn(np.zeros((2, 2)), uniform(3), uniform(2), 0.1, 10)
    with pytest.raises(ContractError):
        sinkhorn(np.array([[np.inf, 0.0], [0.0, 0.0]]), uniform(2), uniform(2), 0.1, 10)


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
        plan, _, _ = sinkhorn(cost, uniform(4), uniform(4), eps, iters=20000, tol=1e-10)
        sink_val = float((plan * cost).sum())
        exact = brute_force_wd(cost)
        assert exact <= sink_val + 1e-9
        assert sink_val <= exact + eps * np.log(4) + 1e-9


# ------------------------------------------------------------ fused distance

def test_degenerate_structure_2x2_matches_hand_value():
    node_cost = np.array([[0.2, 0.9], [0.8, 0.1]])
    zero = np.zeros((2, 2))
    coupling = solve_plan(node_cost, zero, zero, tight_cfg())
    assert abs(coupling.distance - 0.15) <= 0.02 * 0.15


def test_degenerate_structure_matches_brute_force_2pct():
    cfg = tight_cfg()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        node_cost = rng.uniform(0.0, 2.0, size=(n, n))
        zero = np.zeros((n, n))
        got = solve_plan(node_cost, zero, zero, cfg).distance
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
        wd_vals.append(solve_plan(cost, np.zeros((5, 5)), np.zeros((4, 4)), cfg_wd).distance)
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
        plan, distance = dense_solve_plan(*costs, cfg)
        coupling = solve_plan(*costs, cfg)
        assert np.abs(coupling.plan - plan).max() <= 1e-12 * plan.max()
        assert abs(coupling.distance - distance) <= 1e-12 * distance


def test_marginals_satisfied_on_coupling():
    rng = np.random.default_rng(6)
    _, coupling = got_distance(rng.standard_normal((4, 5)), rng.standard_normal((4, 3)),
                               TrainConfig(ot_sinkhorn_iters=2000))
    assert np.abs(coupling.plan.sum(axis=1) - coupling.p).max() <= 1e-6
    assert np.abs(coupling.plan.sum(axis=0) - coupling.q).max() <= 1e-6


# -------------------------------------------------------------- loss wiring

def seg_of(rng, d=4, k=3, n_tokens=2):
    return SegmentTrace(visual=Tensor(rng.standard_normal((d, k))),
                        text=Tensor(rng.standard_normal((d, n_tokens))))


def test_loss_zero_when_alpha_zero():
    rng = np.random.default_rng(7)
    loss, plans = transport_loss(seg_of(rng), TrainConfig(alpha=0.0))
    assert loss.item() == 0.0 and plans == []


def test_loss_identical_modalities_small():
    rng = np.random.default_rng(8)
    nodes = rng.standard_normal((4, 3))
    seg = SegmentTrace(visual=Tensor(nodes), text=Tensor(nodes.copy()))
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
        return SegmentTrace(visual=ps["v"], text=ps["s"])

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
    loss, _ = transport_loss(SegmentTrace(visual=ps["v"], text=ps["s"]),
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


def test_structure_is_built_once_per_segment(monkeypatch):
    built = []

    class Counted(tn.SortedStructure):
        def __init__(self, a, b):
            built.append((a.shape, b.shape))
            super().__init__(a, b)

    monkeypatch.setattr(tn, "SortedStructure", Counted)
    both = two_segments(np.random.default_rng(14))
    _, plans = transport_loss(both, TrainConfig())
    # the solve's structure is handed on to the loss term
    assert built == [((2, 2), (3, 3)), ((3, 3), (2, 2))]
    # frozen plans come without one, so the loss term builds its own
    transport_loss(both, TrainConfig(), frozen_plans=plans)
    assert len(built) == 4
