"""Contrastive coherence between temporal nodes and their global node.

A bilinear discriminator scores (temporal node, global node) pairs; the
coherence estimate for a pair is its score minus the log-sum-exp over a
candidate set containing the positive node and sampled negatives. Negatives
come from the other temporal nodes of the same clip plus a cross-clip ring
buffer of recent (detached) temporal nodes, refreshed between optimizer
steps.

All pairs of a clip are scored at once from its one `TemporalTrace`: the
candidates are its node columns (query-major) followed by the buffer, and
score column q is every candidate against query q's global node. The
positive of node column j sits in row j of column `query_ids[j]`.
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
    two pushes scores the same snapshot without copying it; `matrix` is its
    (d, n) column view.
    """

    def __init__(self, capacity: int = 256):
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

    def matrix(self) -> np.ndarray | None:
        return None if self.rows is None else self.rows.data.T


@dataclass
class ContrastiveResult:
    loss: Tensor
    estimates: list[float] = field(default_factory=list)  # per-pair values
    n_pairs: int = 0
    n_skipped: int = 0


def contrastive_loss(
    temporal: TemporalTrace,
    params: ParamStore,
    beta: float,
    buffer: NegativeBuffer | None = None,
) -> ContrastiveResult:
    """-beta times the mean pair estimate over all (segment, query) pairs.

    The candidate set of every pair is the union of all in-clip temporal
    nodes and the buffer snapshot, which realizes "all other nodes plus
    buffered negatives" while sharing one score column per query. Pairs with
    no available negative (single node, empty buffer) are skipped and
    logged.
    """
    if beta == 0.0:
        return ContrastiveResult(loss=Tensor(0.0))
    n_nodes = temporal.nodes.shape[1]
    buf = buffer.rows if buffer is not None else None
    n_cands = n_nodes + (0 if buf is None else buf.shape[0])
    if n_cands < 2:
        log.info("contrastive pairs skipped: no negatives available")
        return ContrastiveResult(loss=Tensor(0.0), n_skipped=n_nodes)
    key = tn.matmul(params[DISC_WEIGHT], temporal.global_nodes)     # (d, n_q)
    scores = tn.matmul(temporal.nodes.T, key)
    if buf is not None:
        # the buffer rows are constants: their block's backward feeds `key` only
        scores = tn.concat([scores, tn.matmul(buf, key)], axis=0)
    lse = tn.logsumexp(scores)                   # (1, n_q)
    rows, cols = np.arange(n_nodes), temporal.query_ids
    positive = np.zeros(scores.shape)
    positive[rows, cols] = 1.0
    # every query owns n_segments pairs, so its log-sum-exp enters that often
    total = tn.sub(tn.mul(scores, Tensor(positive)).sum(),
                   tn.scale(lse.sum(), float(temporal.n_segments)))
    return ContrastiveResult(
        loss=tn.scale(total, -beta / n_nodes),
        estimates=(scores.data[rows, cols] - lse.data[0, cols]).tolist(),
        n_pairs=n_nodes,
    )
