"""Entropic fused transport between the two node sets of every segment of a batch.

Each segment's coherence distance fuses a node-matching cost (pairwise
cosine distances between its subtitle and visual nodes) with a structure
mismatch cost comparing intra-graph cosine distances. The fused problem is
solved by alternating rounds of linearizing the structure term at the
current plan and re-solving the linear problem with log-domain Sinkhorn
scaling under uniform marginals.

A batch comes as whole matrices over all of its nodes: the node cost (L, K)
between its L subtitle and K visual nodes, and the intra costs (L, L) and
(K, K). Segment s owns the diagonal blocks of `a_sizes[s]` rows and
`b_sizes[s]` columns; entries between segments are never read, and a plan
is zero outside its segment's block. A lone segment is a batch of one.

`solve_plan` runs the rounds of all segments together. `sinkhorn` scales
the blocks padded to the batch's largest one: a padded row or column has
zero marginal mass and a -inf potential, so it gets no plan mass and adds
nothing to a log-sum-exp over real entries. Every segment keeps its own warm
potentials and stopping rules (its Sinkhorn iterations stop at marginal
residual `ot_tol`, its rounds once its plan moves by at most `ot_tol`), and
a finished segment leaves the batch. So each segment runs the iterations and
rounds it would run alone.

The structure term sum T_ij T_kl |A_ik - B_jl| is never expanded into an
(n, m, n, m) array. Once per batch, `tensor.SortedStructure` sorts the rows
of every segment's B block and ranks its A entries in them; linearizations
and both gradients then come from prefix sums of the plan along the sorted
rows. `transport_loss` builds that structure, on a solved plan and on a
frozen one alike, and hands it to `solve_plan` for the rounds and to
`tensor.gw_pair_cost` for the loss and its gradients; the blocks of both
come from it. `solve_plan` returns the plan and its diagnostics only: the
loss is the one place that computes each segment's distance, sum T * (lam C
+ L_T) over its block, in a fixed number of tape ops per batch.

Training gradients use the envelope convention: the converged plan is a
constant and gradients flow through the cost matrices only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as tn
from .errors import ContractError, NumericalError, ShapeError
from .graph import block_bounds
from .model import SegmentTrace
from .tensor import Tensor

if TYPE_CHECKING:
    from .train import TrainConfig


@dataclass
class Coupling:
    plan: np.ndarray              # (L, K): each segment's plan in its block, zero elsewhere;
                                  # an n x m block has row sums 1/n and column sums 1/m
    marginal_err: np.ndarray      # (n_segments,) of each segment's last Sinkhorn call
    rounds: np.ndarray            # (n_segments,) Sinkhorn calls of each segment
    converged: int                # segments whose last call reached ot_tol


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def sinkhorn(
    cost: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    eps_reg: float,
    iters: int,
    tol: float,
    warm: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Alternating marginal scaling in the log domain, for a batch of problems.

    `cost` is (S, n, m) and the marginals are (S, n) and (S, m); a zero
    marginal entry pads a problem smaller than the batch, and its row or
    column gets no mass. Returns (plans, marginal_errs, potentials), one of
    each per problem. A problem stops at `iters` or once both of its marginal
    residuals drop to `tol`, and leaves the batch with the results of its own
    last iteration. `warm` reuses scaled potentials from a previous call on
    nearby costs.
    """
    if not eps_reg > 0:
        raise ContractError(f"sinkhorn: eps_reg must be positive, got {eps_reg}")
    if iters < 1:
        raise ContractError(f"sinkhorn: iters must be at least 1, got {iters}")
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 3:
        raise ShapeError(f"sinkhorn: cost must be (problems, n, m), got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ContractError("sinkhorn: cost matrix must be finite")
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    S, n, m = cost.shape
    if p.shape != (S, n) or q.shape != (S, m):
        raise ShapeError(f"sinkhorn: marginals {p.shape}/{q.shape} do not fit cost {cost.shape}")
    if (np.any(p < 0) or np.any(q < 0) or np.any(np.abs(p.sum(axis=1) - 1) > 1e-8)
            or np.any(np.abs(q.sum(axis=1) - 1) > 1e-8)):
        raise ContractError("sinkhorn: marginals must be nonnegative and sum to 1")

    scaled = cost / eps_reg
    logp = np.log(p, out=np.full_like(p, -np.inf), where=p > 0)
    logq = np.log(q, out=np.full_like(q, -np.inf), where=q > 0)
    if warm is not None:
        phi, psi = warm[0].copy(), warm[1].copy()
    else:
        phi = np.zeros((S, n))
        psi = np.where(q > 0, 0.0, -np.inf)
    plans = np.zeros_like(scaled)
    errs = np.full(S, np.inf)
    potentials = (phi.copy(), psi.copy())
    live = np.arange(S)
    for it in range(iters):
        phi = logp - _logsumexp(psi[:, None, :] - scaled, axis=2)
        psi = logq - _logsumexp(phi[:, :, None] - scaled, axis=1)
        plan = np.exp(phi[:, :, None] + psi[:, None, :] - scaled)
        err = np.maximum(np.abs(plan.sum(axis=2) - p).max(axis=1),
                         np.abs(plan.sum(axis=1) - q).max(axis=1))
        done = (err <= tol) | (it == iters - 1)
        if done.any():
            ids = live[done]
            plans[ids], errs[ids] = plan[done], err[done]
            potentials[0][ids], potentials[1][ids] = phi[done], psi[done]
            keep = ~done
            live = live[keep]
            if not live.size:
                break
            scaled, logp, logq, p, q, phi, psi = (
                x[keep] for x in (scaled, logp, logq, p, q, phi, psi))
    bad = np.flatnonzero(~(np.isfinite(plans).all(axis=(1, 2)) & np.isfinite(errs)))
    if bad.size:
        raise NumericalError(
            f"sinkhorn scaling produced non-finite values in problem {bad[0]}; increase "
            f"eps_reg (eps_reg={eps_reg}, cost range {cost.min():.3g}..{cost.max():.3g})"
        )
    return plans, errs, potentials


def _padded_blocks(n: np.ndarray, m: np.ndarray, K: int) -> tuple[np.ndarray, ...]:
    """Each segment's block of an (L, K) plan, padded to the largest block:
    flat positions (S, n_max, m_max), L * K in the padding, and the uniform
    marginals (S, n_max) and (S, m_max), zero in the padding."""
    i, j = np.arange(n.max()), np.arange(m.max())
    row_ok, col_ok = i < n[:, None], j < m[:, None]
    first_row, first_col = np.cumsum(n) - n, np.cumsum(m) - m
    index = np.where(row_ok[:, :, None] & col_ok[:, None, :],
                     (first_row[:, None, None] + i[:, None]) * K + first_col[:, None, None] + j,
                     n.sum() * K)
    return (index, np.where(row_ok, 1.0 / n[:, None], 0.0),
            np.where(col_ok, 1.0 / m[:, None], 0.0))


def solve_plan(node_cost: np.ndarray, structure: tn.SortedStructure, cfg: TrainConfig) -> Coupling:
    """Fused node/structure transport with uniform marginals for every
    segment of a batch (module docstring). `structure` holds the two intra
    costs, and its blocks are the segments of `node_cost`. Returns the plan
    and its diagnostics; `transport_loss` computes the distance."""
    node_cost = np.asarray(node_cost, dtype=np.float64)
    n, m = np.asarray(structure.a_sizes), np.asarray(structure.b_sizes)
    L, K = structure.a.shape[0], structure.b.shape[0]
    if node_cost.shape != (L, K):
        raise ShapeError(f"solve_plan: node cost {node_cost.shape} does not fit the structure's "
                         f"blocks {structure.a_sizes} and {structure.b_sizes}")
    index, p, q = _padded_blocks(n, m, K)
    node = cfg.lam * node_cost.take(index, mode="clip")    # any finite cost in the padding
    flat = np.zeros(L * K + 1)                              # the padding writes the last slot
    flat[index] = p[:, :, None] * q[:, None, :]
    plan = flat[:-1].reshape(L, K)
    err = np.full(n.size, np.inf)
    rounds = np.zeros(n.size, dtype=np.intp)
    live = np.arange(n.size)                                # the segments still moving
    warm = None
    for _ in range(cfg.ot_gw_outer_iters):
        linear = node + structure.linearize(plan, live).take(index, mode="clip")
        new, err[live], warm = sinkhorn(linear, p, q, cfg.ot_eps_reg, cfg.ot_sinkhorn_iters,
                                        cfg.ot_tol, warm)
        moving = np.abs(new - flat[index]).max(axis=(1, 2)) > cfg.ot_tol
        flat[index] = new
        rounds[live] += 1
        if not moving.all():
            live = live[moving]
            if not live.size:
                break
            index, node, p, q = index[moving], node[moving], p[moving], q[moving]
            warm = (warm[0][moving], warm[1][moving])
    return Coupling(plan=plan, marginal_err=err, rounds=rounds,
                    converged=int(np.count_nonzero(err <= cfg.ot_tol)))


def _block_plan(frozen_plans: list[np.ndarray], segments: SegmentTrace) -> np.ndarray:
    """One plan per segment, checked, placed in an (L, K) array."""
    if len(frozen_plans) != segments.n_segments:
        raise ContractError(f"transport_loss: {len(frozen_plans)} frozen plans "
                            f"for {segments.n_segments} segments")
    plan = np.zeros((segments.text.shape[1], segments.visual.shape[1]))
    for si, (given, (a0, a1), (b0, b1)) in enumerate(zip(
            frozen_plans, block_bounds(segments.s_sizes), block_bounds(segments.v_sizes))):
        given = np.asarray(given, dtype=np.float64)
        if given.shape != (a1 - a0, b1 - b0):
            raise ContractError(f"transport_loss: frozen plan {si} has shape {given.shape}, "
                                f"segment {si} needs {(a1 - a0, b1 - b0)}")
        if not np.all(np.isfinite(given) & (given >= 0)):
            raise ContractError(f"transport_loss: frozen plan {si} must be finite and nonnegative")
        plan[a0:a1, b0:b1] = given
    return plan


def transport_loss(
    segments: SegmentTrace,
    cfg: TrainConfig,
    frozen_plans: list[np.ndarray] | None = None,
    sizes: tuple[int, ...] = (),     # one clip by default: the benchmark harness omits it
) -> tuple[Tensor, list[np.ndarray]]:
    """Each clip's mean per-segment fused distance, scaled by alpha, as a
    (1, n_clips) row on the tape, and each segment's plan.

    Clip b owns the next `sizes[b]` segments (one clip of all of them by
    default). The three cosine cost matrices are taken over the whole batch,
    and every segment reads its blocks of them. Plans come from one
    `solve_plan` of all segments on the current values (or `frozen_plans`,
    one per segment) and are treated as constants; gradients reach the node
    matrices through the cosine cost matrices only. Both paths build the
    one `SortedStructure` of the batch here.
    """
    sizes = tuple(sizes) or (segments.n_segments,)
    if cfg.alpha == 0.0:
        return Tensor(np.zeros((1, len(sizes)))), []
    node_cost = tn.cosine_cost(segments.text, segments.visual)
    intra_s = tn.cosine_cost(segments.text, segments.text)
    intra_v = tn.cosine_cost(segments.visual, segments.visual)
    structure = tn.SortedStructure(intra_s.data, intra_v.data, segments.s_sizes, segments.v_sizes)
    if frozen_plans is not None:
        plan = _block_plan(frozen_plans, segments)
    else:
        plan = solve_plan(node_cost.data, structure, cfg).plan
    # each segment's sum of lam T * C: column sums, then summed over its columns
    columns = Tensor(np.repeat(np.eye(segments.n_segments), segments.v_sizes, axis=0))
    node_term = tn.matmul(tn.mul(node_cost, Tensor(cfg.lam * plan)).sum(axis=0), columns)
    terms = tn.add(node_term, tn.gw_pair_cost(intra_s, intra_v, plan, structure))
    plans = [plan[a0:a1, b0:b1] for (a0, a1), (b0, b1) in
             zip(block_bounds(segments.s_sizes), block_bounds(segments.v_sizes))]
    return tn.mul(tn.block_mean(terms, sizes), cfg.alpha), plans
