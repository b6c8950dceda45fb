"""Contrastive coherence between temporal nodes and their global node.

A bilinear discriminator scores (temporal node, global node) pairs; the
coherence estimate for a pair is its score minus the log-sum-exp over a
candidate set containing the positive node and sampled negatives. Negatives
come from the other temporal nodes of the same clip plus a cross-clip ring
buffer of recent (detached) temporal nodes, refreshed between optimizer
steps.

All pairs of a batch of clips are scored at once from its one
`TemporalTrace`: the candidates are the node columns of every clip
(query-major) followed by the buffer, and score column q is every candidate
against query q's global node. A score of one clip's node under another
clip's query is masked to -inf, so each query's log-sum-exp sees exactly
its own clip's nodes and the buffer. The positive of node column j sits in
row j of column `query_ids[j]`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tn
from .errors import ContractError
from .model import TemporalTrace
from .tensor import ParamStore, Tensor

log = logging.getLogger(__name__)

DISC_WEIGHT = "disc.w"


class NegativeBuffer:
    """Ring buffer of recent temporal node values (no tape attachment).

    Single-writer: `push` only between optimizer steps. The contents are one
    constant (n, d) tensor of rows, rebuilt by `push`, so every clip between
    two pushes scores the same snapshot without copying it.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ContractError("buffer capacity must be positive")
        self.capacity = capacity
        self.rows: Tensor | None = None

    def push(self, nodes: list[np.ndarray]) -> None:
        new = [np.asarray(v, dtype=np.float64).reshape(1, -1) for v in nodes]
        if not new:
            return
        kept = [] if self.rows is None else [self.rows.data]
        self.rows = Tensor(np.concatenate(kept + new, axis=0)[-self.capacity :])
        self.rows.data.flags.writeable = False


@dataclass
class ContrastiveResult:
    loss: Tensor                         # (1, n_clips)
    estimates: list[float] = field(default_factory=list)  # per-pair values
    n_pairs: int = 0
    n_skipped: int = 0


def contrastive_loss(
    temporal: TemporalTrace,
    params: ParamStore,
    beta: float,
    sizes: tuple[int, ...],
    buffer: NegativeBuffer | None = None,
) -> ContrastiveResult:
    """-beta times the mean pair estimate over all (segment, query) pairs of
    each clip, as a (1, n_clips) row.

    Clip b owns the next `sizes[b]` queries. The candidate set of every
    pair is the union of its clip's temporal nodes and the buffer snapshot,
    which realizes "all other nodes plus buffered negatives" while sharing
    one score column per query. The pairs of a clip with no available
    negative (single node, empty buffer) are skipped and logged; their
    estimate is exactly zero.
    """
    if beta == 0.0:
        return ContrastiveResult(loss=Tensor(np.zeros((1, len(sizes)))))
    query_ids = temporal.query_ids
    query_clip = np.repeat(np.arange(len(sizes)), sizes)
    node_clip = query_clip[query_ids]
    pairs = np.bincount(node_clip, minlength=len(sizes))
    n_buf = 0 if buffer is None or buffer.rows is None else buffer.rows.shape[0]
    n_skipped = int(pairs[pairs + n_buf < 2].sum())
    if n_skipped:
        log.info("contrastive pairs skipped: no negatives available")
    key = tn.matmul(params[DISC_WEIGHT], temporal.global_nodes)     # (d, n_q)
    scores = tn.matmul(temporal.nodes.T, key)
    positive = np.zeros(scores.shape)
    positive[np.arange(len(query_ids)), query_ids] = 1.0
    # taken before the mask, where -inf * 0 would be NaN
    pos = tn.mul(scores, Tensor(positive, copy=False)).sum(axis=1).T    # (1, n_nodes)
    mask = np.where(node_clip[:, None] == query_clip[None, :], 0.0, -np.inf)
    cands = tn.add(scores, Tensor(mask, copy=False))
    if n_buf:
        # the buffer rows are constants: their block's backward feeds `key` only
        cands = tn.concat([cands, tn.matmul(buffer.rows, key)], axis=0)
    estimates = tn.sub(pos, tn.gather(tn.logsumexp(cands), query_ids))     # (1, n_nodes)
    return ContrastiveResult(
        loss=tn.mul(tn.block_mean(estimates, tuple(pairs)), -beta),
        estimates=estimates.data[0].tolist(),
        n_pairs=len(query_ids) - n_skipped,
        n_skipped=n_skipped,
    )
