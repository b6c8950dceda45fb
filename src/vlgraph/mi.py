"""Contrastive coherence between temporal nodes and their global node.

A bilinear discriminator scores (temporal node, global node) pairs; the
coherence estimate for a pair is its score minus the log-sum-exp over a
candidate set containing the positive node and sampled negatives. Negatives
come from the other temporal nodes of the same clip plus a cross-clip ring
buffer of recent (detached) temporal nodes, refreshed between optimizer
steps.
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

    Single-writer: `push` only between optimizer steps; `matrix` snapshots
    the current contents.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ContractError("buffer capacity must be positive")
        self.capacity = capacity
        self._items: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._items)

    def push(self, nodes: list[np.ndarray]) -> None:
        for v in nodes:
            self._items.append(np.array(v, dtype=np.float64).reshape(-1, 1))
        if len(self._items) > self.capacity:
            self._items = self._items[-self.capacity :]

    def matrix(self) -> np.ndarray | None:
        if not self._items:
            return None
        return np.concatenate(self._items, axis=1)


@dataclass
class ContrastiveResult:
    loss: Tensor
    estimates: list[float] = field(default_factory=list)  # per-pair values
    n_pairs: int = 0
    n_skipped: int = 0


def contrastive_loss(
    temporal: list[TemporalTrace],
    params: ParamStore,
    beta: float,
    buffer: NegativeBuffer | None = None,
) -> ContrastiveResult:
    """-beta times the mean pair estimate over all (segment, query) pairs.

    The candidate set of every pair is the union of all in-clip temporal
    nodes and the buffer snapshot, which realizes "all other nodes plus
    buffered negatives" while sharing one score vector per query. Pairs with
    no available negative (single node, empty buffer) are skipped and
    logged.
    """
    if not temporal:
        raise ContractError("contrastive_loss: need at least one query state")
    if beta == 0.0:
        return ContrastiveResult(loss=Tensor(0.0))
    parts = [trace.nodes for trace in temporal]
    n_nodes = sum(p.shape[1] for p in parts)
    buf = buffer.matrix() if buffer is not None else None
    n_cands = n_nodes + (0 if buf is None else buf.shape[1])
    if n_cands < 2:
        log.info("contrastive pairs skipped: no negatives available")
        return ContrastiveResult(loss=Tensor(0.0), n_skipped=n_nodes)
    if buf is not None:
        parts.append(Tensor(buf))
    cands = parts[0] if len(parts) == 1 else tn.concat(parts, axis=1)
    terms: list[Tensor] = []
    offset = 0
    for trace in temporal:
        scores = tn.matmul(cands.T, tn.matmul(params[DISC_WEIGHT], trace.global_node))
        lse = tn.logsumexp(scores)
        for i in range(trace.nodes.shape[1]):
            terms.append(tn.sub(tn.row(scores, offset + i), lse))
        offset += trace.nodes.shape[1]
    mean_est = terms[0] if len(terms) == 1 else tn.concat(terms, axis=0).mean()
    return ContrastiveResult(
        loss=tn.scale(mean_est, -beta),
        estimates=[t.item() for t in terms],
        n_pairs=len(terms),
    )
