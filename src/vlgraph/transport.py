"""Entropic optimal transport between the two node sets of a segment.

The per-segment coherence distance fuses a node-matching cost (pairwise
cosine distances between subtitle and visual nodes) with a structure
mismatch cost comparing intra-graph cosine distances. The fused problem is
solved by alternating rounds of linearizing the structure term at the
current plan and re-solving the linear problem with log-domain Sinkhorn
scaling under uniform marginals.

The structure term sum T_ij T_kl |A_ik - B_jl| is never expanded into an
(n, m, n, m) array. Once per segment, `tensor.SortedStructure` sorts each
row of B and ranks every entry of A in it; the linearization and both
gradients then come from prefix sums of the plan along the sorted rows, in
O(n^2 m + n m^2) memory. `solve_plan` returns that structure on the
`Coupling`, and `transport_loss` hands it on to `tensor.gw_pair_cost` for
the loss and its gradients.

Training gradients use the envelope convention: the converged plan is a
constant and gradients flow through the cost matrices only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as tn
from .errors import ContractError, NumericalError, ShapeError
from .model import SegmentTrace
from .tensor import Tensor

if TYPE_CHECKING:
    from .train import TrainConfig

log = logging.getLogger(__name__)


@dataclass
class Coupling:
    plan: np.ndarray              # (n, m), rows index the first node set
    p: np.ndarray
    q: np.ndarray
    distance: float
    marginal_err: float
    converged: bool
    structure: tn.SortedStructure   # of the two intra costs, reused by the loss


def _logsumexp_rows(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))


def sinkhorn(
    cost: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    eps_reg: float,
    iters: int,
    tol: float = 1e-6,
    warm: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, float, tuple[np.ndarray, np.ndarray]]:
    """Alternating marginal scaling in the log domain.

    Returns (plan, marginal_err, potentials). Stops at `iters` or once both
    marginal residuals drop to `tol`. `warm` reuses scaled potentials from a
    previous call on a nearby cost.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if not np.all(np.isfinite(cost)):
        raise ContractError("sinkhorn: cost matrix must be finite")
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    n, m = cost.shape
    if p.shape != (n,) or q.shape != (m,):
        raise ShapeError(f"sinkhorn: marginals {p.shape}/{q.shape} do not fit cost {cost.shape}")
    if np.any(p <= 0) or np.any(q <= 0) or abs(p.sum() - 1) > 1e-8 or abs(q.sum() - 1) > 1e-8:
        raise ContractError("sinkhorn: marginals must be positive and sum to 1")

    scaled = cost / eps_reg
    logp = np.log(p)
    logq = np.log(q)
    if warm is not None:
        phi, psi = warm[0].copy(), warm[1].copy()
    else:
        phi = np.zeros(n)
        psi = np.zeros(m)
    plan = np.empty_like(scaled)
    err = np.inf
    for _ in range(iters):
        phi = logp - _logsumexp_rows(psi[None, :] - scaled, axis=1).reshape(-1)
        psi = logq - _logsumexp_rows(phi[:, None] - scaled, axis=0).reshape(-1)
        plan = np.exp(phi[:, None] + psi[None, :] - scaled)
        err = max(
            float(np.abs(plan.sum(axis=1) - p).max()),
            float(np.abs(plan.sum(axis=0) - q).max()),
        )
        if err <= tol:
            break
    if not (np.all(np.isfinite(plan)) and np.isfinite(err)):
        raise NumericalError(
            "sinkhorn scaling produced non-finite values; increase eps_reg "
            f"(eps_reg={eps_reg}, cost range {cost.min():.3g}..{cost.max():.3g})"
        )
    return plan, err, (phi, psi)


def solve_plan(
    node_cost: np.ndarray,
    intra_a: np.ndarray,
    intra_b: np.ndarray,
    cfg: TrainConfig,
) -> Coupling:
    """Fused node/structure transport with uniform marginals."""
    node_cost = np.asarray(node_cost, dtype=np.float64)
    n, m = node_cost.shape
    if n < 1 or m < 1:
        raise ContractError("solve_plan: both node sets must be nonempty")
    p = np.full(n, 1.0 / n)
    q = np.full(m, 1.0 / m)
    structure = tn.SortedStructure(np.asarray(intra_a, float), np.asarray(intra_b, float))
    plan = np.outer(p, q)
    warm = None
    err = np.inf
    for _ in range(cfg.ot_gw_outer_iters):
        linear = cfg.lam * node_cost + structure.linearize(plan)
        new_plan, err, warm = sinkhorn(
            linear, p, q, cfg.ot_eps_reg, cfg.ot_sinkhorn_iters, cfg.ot_tol, warm
        )
        delta = float(np.abs(new_plan - plan).max())
        plan = new_plan
        if delta <= cfg.ot_tol:
            break
    fused = cfg.lam * node_cost + structure.linearize(plan)
    distance = float((plan * fused).sum())
    return Coupling(plan=plan, p=p, q=q, distance=distance, marginal_err=err,
                    converged=err <= cfg.ot_tol, structure=structure)


def transport_loss(
    segments: SegmentTrace,
    cfg: TrainConfig,
    frozen_plans: list[np.ndarray] | None = None,
) -> tuple[Tensor, list[np.ndarray]]:
    """Mean per-segment fused distance, scaled by alpha, on the tape.

    Plans come from `solve_plan` on the current values (or `frozen_plans`,
    one per segment) and are treated as constants; gradients reach the node
    matrices through the cosine cost matrices only.
    """
    if cfg.alpha == 0.0:
        return Tensor(0.0), []
    if frozen_plans is not None and len(frozen_plans) != segments.n_segments:
        raise ContractError(f"transport_loss: {len(frozen_plans)} frozen plans "
                            f"for {segments.n_segments} segments")
    plans: list[np.ndarray] = []
    terms: list[Tensor] = []
    for si, (visual, text) in enumerate(segments.split()):
        node_cost = tn.cosine_cost(text, visual)
        intra_s = tn.cosine_cost(text, text)
        intra_v = tn.cosine_cost(visual, visual)
        if frozen_plans is not None:
            plan, structure = frozen_plans[si], None
        else:
            coupling = solve_plan(node_cost.data, intra_s.data, intra_v.data, cfg)
            plan, structure = coupling.plan, coupling.structure
        plans.append(plan)
        node_term = tn.mul(node_cost, Tensor(cfg.lam * plan)).sum()
        terms.append(tn.add(node_term, tn.gw_pair_cost(intra_s, intra_v, plan, structure)))
    total = tn.concat(terms, axis=0).sum()
    return tn.scale(total, cfg.alpha / len(terms)), plans
