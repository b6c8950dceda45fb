"""Three-hierarchy reasoning network over clip graphs, for a batch of clips.

Layout: a batch is one frame-node matrix V (d, K) and one token-node matrix
S (d, L) for all its clips. Their columns are grouped by clip, then by
segment in segmentation order, and each segment owns one block of
consecutive columns of each (`v_sizes`, `s_sizes`). Every level runs once
per batch over all blocks, so each weight meets one matmul per batch, not
one per clip, segment or query. This is the disjoint union of the
per-segment graphs of every clip as one block-diagonal graph: no weight of
attention, message passing or pooling crosses a block, so a clip's outputs
do not depend on its batch-mates. `forward` runs one clip as a batch of one
through the same code; `train` decides how many clips run together.

Every level does the same two things, each through one helper. `attend`
pools nodes under key columns, X @ softmax(X^T keys + mask), with a
constant mask that keeps each key inside its own block of nodes; message
passing (`message_pass`) is attention with the receivers as keys over the
senders. `_gated` fuses what a node had with what it pooled through a
learned per-coordinate convex-combination gate. A clip of one segment or
one query takes the same path as any other. Each message pass returns a
`Pass` record that holds references to the adjacency, gate, message and
output arrays it computed.

Segment level: cross-modal passing refines each modality with the other,
then intra-modal passing (Y = X) refines within a modality. Every segment
is then pooled under every semantic query of its own clip at once: pair
column j pools segment `pair_seg[j]` under query `pair_query[j]`, a clip's
pairs running query-major, and the gate fuses the two modalities' pools.

Temporal level: the queries are the blocks. The pooled nodes of each query
exchange messages (Y = X again) and are pooled into that query's global
node, all queries of all clips in one pass. The number of queries is
decided first, by a self-halting accumulator over per-query stop
probabilities. That loop stays sequential in the step, because each query
attends from the one before, but runs all statements in lockstep: step t
attends once over the statement tokens of every clip still extracting, and
a clip whose halting fires drops out of the next step.

Global level: the mean of each clip's global nodes feeds a small
prediction head, one column per clip.

The trace records (`Pass`, `SegmentTrace`, `TemporalTrace`) hold the batched
arrays themselves, never copies. A clip's `Trace` holds its own block of
each: numpy views of the record arrays and tape-connected column slices
(`tensor.gather`) of the tensors, which are the batch's own objects when
the batch is that one clip. A `TemporalTrace` is query-major: node column j
pools segment j of its query's block, `query_ids` names the query of each
node column, and column q of its global nodes is query q's global node.

All forward paths are pure given (params, inputs); the discrete halting
decision can be pinned via `FrozenDecisions` so that finite-difference
checks see a fully differentiable function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import tensor as tn
from .errors import ContractError
from .graph import Clip, ClipGraph, block_bounds, build_clip_graph, project_nodes
from .tensor import ParamStore, Tensor

if TYPE_CHECKING:
    from .train import TrainConfig


def linear_layout(d: int, d_v: int, d_s: int, d_h: int) -> list[tuple[str, int, int, bool]]:
    """(name, out_dim, in_dim, has_bias) of every affine map, in draw order."""
    return [
        ("proj.v", d, d_v, True),
        ("proj.s", d, d_s, True),
        ("proj.h", d, d_h, True),
        ("inter.v", d, 3 * d, True),
        ("inter.s", d, 3 * d, True),
        ("intra.v", d, 3 * d, True),
        ("intra.s", d, 3 * d, True),
        ("pool.attn_v", d, d, False),
        ("pool.attn_s", d, d, False),
        ("pool.fuse", d, 3 * d, True),
        ("query.attn", d, 2 * d, False),
        ("query.halt", d, d, True),
        ("temporal.gate", d, 3 * d, True),
        ("temporal.attn", d, d, False),
        ("head.hidden", d, d, True),
        ("head.out", 1, d, True),
        ("disc", d, d, False),
    ]


def param_shapes(d: int, d_v: int, d_s: int, d_h: int) -> dict[str, tuple[int, int]]:
    """Parameter name -> shape of the model `init_params` builds."""
    shapes = {}
    for name, out_dim, in_dim, bias in linear_layout(d, d_v, d_s, d_h):
        shapes[f"{name}.w"] = (out_dim, in_dim)
        if bias:
            shapes[f"{name}.b"] = (out_dim, 1)
    return shapes


def init_params(cfg: TrainConfig, d_v: int, d_s: int, d_h: int,
                rng: np.random.Generator) -> ParamStore:
    """All trainable tensors, including the MI discriminator weight."""
    ps = ParamStore()
    for name, out_dim, in_dim, bias in linear_layout(cfg.dim, d_v, d_s, d_h):
        ps.add_linear(name, out_dim, in_dim, rng, bias=bias)
    return ps


# --------------------------------------------------------------- building blocks

def _sizes(sizes: tuple[int, ...], X: Tensor) -> tuple[int, ...]:
    """Column block sizes of X; one block of all its columns when empty."""
    return tuple(sizes) or (X.shape[1],)


def _block_ids(sizes: tuple[int, ...]) -> np.ndarray:
    return np.repeat(np.arange(len(sizes)), sizes)


def _spans(part: slice, n: int) -> bool:
    return part.indices(n) == (0, n, 1)


def _part(a: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """Block [rows, cols] of a batch array as a view; the array itself when
    the block spans it."""
    return a if _spans(rows, a.shape[0]) and _spans(cols, a.shape[1]) else a[rows, cols]


def _cols(t: Tensor, cols: slice) -> Tensor:
    """Columns `cols` of a batch tensor, on the tape (the tensor itself when
    they are all of its columns)."""
    return t if _spans(cols, t.shape[1]) else tn.gather(t, np.arange(cols.start, cols.stop))


def attend(X: Tensor, keys: Tensor, x_ids: np.ndarray,
           key_ids: np.ndarray) -> tuple[Tensor, Tensor]:
    """Pool the nodes X under every key column: X @ softmax(X^T keys + mask).

    The softmax runs over X's columns, and the constant mask is -inf where a
    node's block id (`x_ids`) differs from the key's (`key_ids`), 0
    elsewhere, so a key pools only the nodes of its own block and cross-block
    weights are exactly zero; every key's block must hold a node. Returns the
    (d, n_keys) pooled nodes and the (n_x, n_keys) weights.
    """
    mask = Tensor(np.where(x_ids[:, None] == key_ids[None, :], 0.0, -np.inf), copy=False)
    weights = tn.softmax(tn.add(tn.matmul(X.T, keys), mask), axis=0)
    return tn.matmul(X, weights), weights


def _gated(keep: Tensor, take: Tensor, parts: list[Tensor], params: ParamStore,
           name: str) -> tuple[Tensor, Tensor]:
    """(1 - gate) * keep + gate * take, with gate = sigmoid(W [parts] + b)
    through the weights `name`; returns the result and the gate."""
    stacked = tn.concat(parts, axis=0)
    gate = tn.sigmoid(tn.add_col(tn.matmul(params[f"{name}.w"], stacked), params[f"{name}.b"]))
    return tn.add(tn.mul(tn.sub(1.0, gate), keep), tn.mul(gate, take)), gate


@dataclass
class Pass:
    """One message pass: references to the arrays it computed, no copies."""

    adj: np.ndarray                      # (n_x, n_y), rows sum to one, zero across blocks
    gate: np.ndarray                     # (d, n_x), share of the message taken
    msg: np.ndarray                      # (d, n_x), aggregated messages
    out: np.ndarray                      # (d, n_x), updated nodes

    def part(self, rows: slice, cols: slice) -> Pass:
        """The pass of receivers `rows` from senders `cols`, as views."""
        every = slice(None)
        return Pass(adj=_part(self.adj, rows, cols), gate=_part(self.gate, every, rows),
                    msg=_part(self.msg, every, rows), out=_part(self.out, every, rows))


def message_pass(X: Tensor, Y: Tensor, g_x: Tensor, g_y: Tensor, params: ParamStore,
                 name: str, x_sizes: tuple[int, ...] = (),
                 y_sizes: tuple[int, ...] = ()) -> tuple[Tensor, Pass]:
    """Nodes X absorb gated messages aggregated from nodes Y.

    The columns of X and Y form matching blocks (`x_sizes`, `y_sizes`; one
    block each by default), and a node only hears the nodes of its own block:
    each receiving node of X attends over the senders Y of its block, so the
    adjacency is softmax(X^T Y) over each receiver's row. `g_x` and `g_y`
    hold one guidance column per block; the gate reads [g_x; X; g_y], each
    guidance column repeated over its block's nodes, through the weights
    `name`. With Y = X, a single-node block is a fixed point.
    """
    x_sizes, y_sizes = _sizes(x_sizes, X), _sizes(y_sizes, Y)
    if len(x_sizes) != len(y_sizes):
        raise ContractError(f"{name}: {len(x_sizes)} receiving blocks but {len(y_sizes)} sending")
    x_ids = _block_ids(x_sizes)
    msg, weights = attend(Y, X, _block_ids(y_sizes), x_ids)     # (d, n_x)
    parts = [tn.gather(g_x, x_ids), X, tn.gather(g_y, x_ids)]
    out, gate = _gated(X, msg, parts, params, name)
    return out, Pass(adj=weights.data.T, gate=gate.data, msg=msg.data, out=out.data)


# the receiving and the sending modality of each segment-level pass
_PASS_NODES = {"inter.v": "vs", "inter.s": "sv", "intra.v": "vv", "intra.s": "ss"}


@dataclass
class SegmentTrace:
    """Refined nodes of every segment, as column blocks."""

    visual: Tensor                       # (d, K), segment by segment
    text: Tensor                         # (d, L)
    v_sizes: tuple[int, ...] = ()        # frame nodes per segment; () is one segment
    s_sizes: tuple[int, ...] = ()        # token nodes per segment
    passes: dict[str, Pass] = field(default_factory=dict)  # by gate name, in run order

    def __post_init__(self) -> None:
        self.v_sizes = _sizes(self.v_sizes, self.visual)
        self.s_sizes = _sizes(self.s_sizes, self.text)
        if len(self.v_sizes) != len(self.s_sizes):
            raise ContractError("every segment needs a visual and a text block")

    @property
    def n_segments(self) -> int:
        return len(self.v_sizes)

    def split(self) -> list[tuple[Tensor, Tensor]]:
        """Each segment's (visual, text) nodes, sliced on the tape."""
        return [(_cols(self.visual, slice(*v)), _cols(self.text, slice(*s)))
                for v, s in zip(block_bounds(self.v_sizes), block_bounds(self.s_sizes))]

    def part(self, v: slice, s: slice, v_sizes: tuple[int, ...],
             s_sizes: tuple[int, ...]) -> SegmentTrace:
        """The segments that own frame columns `v` and token columns `s`;
        this record itself when they are all of its segments."""
        if _spans(v, self.visual.shape[1]) and _spans(s, self.text.shape[1]):
            return self
        nodes = {"v": v, "s": s}
        return SegmentTrace(
            visual=_cols(self.visual, v), text=_cols(self.text, s), v_sizes=v_sizes,
            s_sizes=s_sizes, passes={name: p.part(nodes[_PASS_NODES[name][0]],
                                                  nodes[_PASS_NODES[name][1]])
                                     for name, p in self.passes.items()})


def refine_segment(V: Tensor, S: Tensor, params: ParamStore, cfg: TrainConfig,
                   v_sizes: tuple[int, ...] = (), s_sizes: tuple[int, ...] = ()) -> SegmentTrace:
    """Cross-modal then intra-modal refinement of all segments.

    V and S hold the segments' nodes as column blocks of `v_sizes` and
    `s_sizes` columns (one segment by default), and each level runs once for
    all of them. Both cross-modal passes read the nodes and means from before
    either update.
    """
    v_sizes, s_sizes = _sizes(v_sizes, V), _sizes(s_sizes, S)
    passes: dict[str, Pass] = {}
    if cfg.inter_modal:
        g_v, g_s = tn.block_mean(V, v_sizes), tn.block_mean(S, s_sizes)
        V2, passes["inter.v"] = message_pass(V, S, g_v, g_s, params, "inter.v", v_sizes, s_sizes)
        S, passes["inter.s"] = message_pass(S, V, g_s, g_v, params, "inter.s", s_sizes, v_sizes)
        V = V2
    if cfg.intra_modal:
        g_v = tn.block_mean(V, v_sizes)
        V, passes["intra.v"] = message_pass(V, V, g_v, g_v, params, "intra.v", v_sizes, v_sizes)
        g_s = tn.block_mean(S, s_sizes)
        S, passes["intra.s"] = message_pass(S, S, g_s, g_s, params, "intra.s", s_sizes, s_sizes)
    return SegmentTrace(visual=V, text=S, v_sizes=v_sizes, s_sizes=s_sizes, passes=passes)


def segment_pool(seg: SegmentTrace, Q: Tensor, params: ParamStore,
                 pairs: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[Tensor, dict]:
    """Pool segments under queries (the columns of Q), one pair per column.

    `pairs` holds the query and the segment of each pair; by default every
    segment is pooled under every query, column q * n_seg + s pooling
    segment s under query q. The attention arrays have one column per pair,
    zero outside the segment's rows.
    """
    if pairs is None:
        n_seg, n_q = seg.n_segments, Q.shape[1]
        pairs = (np.repeat(np.arange(n_q), n_seg), np.tile(np.arange(n_seg), n_q))
    pair_query, pair_seg = pairs
    V, S = seg.visual, seg.text
    v_q, attn_v = attend(V, tn.gather(tn.matmul(params["pool.attn_v.w"], Q), pair_query),
                         _block_ids(seg.v_sizes), pair_seg)
    s_q, attn_s = attend(S, tn.gather(tn.matmul(params["pool.attn_s.w"], Q), pair_query),
                         _block_ids(seg.s_sizes), pair_seg)
    g_v, g_s = tn.block_mean(V, seg.v_sizes), tn.block_mean(S, seg.s_sizes)
    parts = [tn.gather(g_v, pair_seg), tn.gather(Q, pair_query), tn.gather(g_s, pair_seg)]
    node, gate = _gated(v_q, s_q, parts, params, "pool.fuse")
    return node, dict(attn_v=attn_v.data, attn_s=attn_s.data, gate=gate.data)


# --------------------------------------------------------------- query halting

def should_stop(cum_halt: float, step: int, halt_eps: float, max_queries: int) -> bool:
    """Stop once the accumulated halt probability clears 1 - eps, or at the cap."""
    return cum_halt > 1.0 - halt_eps or step >= max_queries


@dataclass
class QueryCost:
    """One statement's share of a query extraction."""

    n_queries: int
    surrogate: Tensor                    # differentiable query-efficiency cost, (1, 1)
    literal: float                       # query_cost * n, logged as a metric
    stopped_early: bool                  # the halting fired before the cap


@dataclass
class QueryState:
    """Queries of one or more statements, extracted in lockstep.

    Step t runs the statements `active[t]` (indices, ascending); its
    `attn`, `halts` and `cum` hold one column per active statement. With one
    statement each step holds one column.
    """

    queries: Tensor                      # (d, n_queries), statement-major, `counts` columns each
    counts: tuple[int, ...]              # queries per statement
    attn: list[Tensor]                   # step t: (l, len(active[t])), l all statement tokens
    halts: list[Tensor]                  # step t: (1, len(active[t]))
    cum: list[Tensor]                    # step t: running sums, (1, len(active[t]))
    active: list[np.ndarray]
    costs: list[QueryCost]               # one per statement

    @property
    def n_queries(self) -> int:
        return sum(self.counts)

    @property
    def stopped_early(self) -> int:
        """How many statements halted before the cap."""
        return sum(c.stopped_early for c in self.costs)


def extract_queries(H: Tensor, params: ParamStore, cfg: TrainConfig,
                    force_n: int | Sequence[int | None] | None = None,
                    sizes: tuple[int, ...] = ()) -> QueryState:
    """Attentively extract semantic queries until self-halting fires.

    The columns of H are the statement tokens of one or more statements, in
    blocks of `sizes` (one statement by default), and all statements run in
    lockstep. A statement's summary (its mean token) seeds its first query
    and is reused, not recomputed, in every attention step. `force_n` pins
    the query count, of every statement or of each one (None leaves a
    statement to its stop rule); halt probabilities are still computed so
    the efficiency cost stays differentiable.
    """
    sizes = _sizes(sizes, H)
    if min(sizes) < 1:
        raise ContractError("statement must have at least one token")
    if force_n is None or isinstance(force_n, int):
        force_n = [force_n] * len(sizes)
    forced: list[int | None] = []
    for n in force_n:
        if n is None:
            n = cfg.fixed_queries
        elif not 1 <= n <= cfg.max_queries:
            raise ContractError(f"forced query count must lie in [1, max_queries={cfg.max_queries}], "
                                f"got {n}")
        forced.append(n)
    h_ids = _block_ids(sizes)
    g = tn.block_mean(H, sizes)
    q, cum = g, None
    active = np.arange(len(sizes))
    steps: list[Tensor] = []
    attn: list[Tensor] = []
    halts: list[Tensor] = []
    cums: list[Tensor] = []
    actives: list[np.ndarray] = []
    counts = [0] * len(sizes)
    early = [False] * len(sizes)
    while True:
        key = tn.matmul(params["query.attn.w"], tn.concat([g, q], axis=0))
        q, weights = attend(H, key, h_ids, active)
        halt = tn.sigmoid(
            tn.add_col(tn.matmul(params["query.halt.w"], q), params["query.halt.b"])
        ).mean(axis=0)
        cum = halt if cum is None else tn.add(cum, halt)
        steps.append(q)
        attn.append(weights)
        halts.append(halt)
        cums.append(cum)
        actives.append(active)
        n = len(steps)
        go_on = []
        for j, b in enumerate(active):
            total = float(cum.data[0, j])
            if forced[b] is not None:
                stop = n >= forced[b]
            else:
                stop = should_stop(total, n, cfg.halt_eps, cfg.max_queries)
            if stop:
                counts[b] = n
                early[b] = forced[b] is None and total > 1.0 - cfg.halt_eps
            else:
                go_on.append(j)
        if not go_on:
            break
        if len(go_on) < active.size:           # the halted statements drop out
            active = active[go_on]
            g, q, cum = tn.gather(g, go_on), tn.gather(q, go_on), tn.gather(cum, go_on)

    # query t of statement b is its column of step t
    offsets = np.cumsum([0] + [step.shape[1] for step in steps])
    queries = tn.gather(tn.concat(steps, axis=1),
                        [offsets[t] + np.searchsorted(actives[t], b)
                         for b, n in enumerate(counts) for t in range(n)])
    costs = []
    for b, n in enumerate(counts):
        if n == 1:
            remainder = Tensor(1.0)
        else:
            remainder = tn.sub(1.0, tn.gather(cums[n - 2], [np.searchsorted(actives[n - 2], b)]))
        costs.append(QueryCost(n_queries=n,
                               surrogate=tn.scale(tn.add(remainder, float(n)), cfg.query_cost),
                               literal=cfg.query_cost * n, stopped_early=early[b]))
    return QueryState(queries=queries, counts=tuple(counts), attn=attn, halts=halts, cum=cums,
                      active=actives, costs=costs)


# --------------------------------------------------------------- temporal level

@dataclass
class TemporalTrace:
    """The temporal level for all queries at once, laid out query-major:
    query q owns the next `sizes[q]` node columns, one per segment of its
    clip, so in a clip's own record node column q * n_segments + s is
    segment s pooled under query q."""

    nodes: Tensor                        # pooled nodes (d, sum(sizes))
    global_nodes: Tensor                 # (d, n_q), column q pools query q's block
    sizes: tuple[int, ...]               # node columns of each query
    pool_weights: np.ndarray             # (sum(sizes), n_q), zero outside query q's block
    attn_v: np.ndarray                   # (K, sum(sizes)), zero outside the segment's frames
    attn_s: np.ndarray                   # (L, sum(sizes)), zero outside the segment's tokens
    fuse_gates: np.ndarray               # (d, sum(sizes))
    refine: Pass | None = None           # the temporal pass, when enabled

    @property
    def query_ids(self) -> np.ndarray:
        """The query of each node column."""
        return _block_ids(self.sizes)

    @property
    def n_segments(self) -> int:
        """Node columns per query: the clip's segment count, in a clip's record."""
        if len(set(self.sizes)) != 1:
            raise ContractError(f"queries pool different segment counts: {self.sizes}")
        return self.sizes[0]

    def part(self, v: slice, s: slice, p: slice, q: slice, n_segments: int) -> TemporalTrace:
        """The queries `q`, whose node columns are `p`, of the clip that owns
        frame columns `v` and token columns `s`; this record itself when they
        are all of its queries."""
        if _spans(p, self.nodes.shape[1]) and _spans(q, self.global_nodes.shape[1]):
            return self
        every = slice(None)
        return TemporalTrace(
            nodes=_cols(self.nodes, p), global_nodes=_cols(self.global_nodes, q),
            sizes=(n_segments,) * (q.stop - q.start), pool_weights=_part(self.pool_weights, p, q),
            attn_v=_part(self.attn_v, v, p), attn_s=_part(self.attn_s, s, p),
            fuse_gates=_part(self.fuse_gates, every, p),
            refine=None if self.refine is None else self.refine.part(p, p))


def temporal_pool(T: Tensor, Q: Tensor, params: ParamStore,
                  sizes: tuple[int, ...] = ()) -> tuple[Tensor, Tensor]:
    """Attention-pool column block q of T (`sizes`; one block by default)
    under query q, column q of Q; returns the (d, n_q) pooled nodes and the
    weights."""
    sizes = _sizes(sizes, T)
    return attend(T, tn.matmul(params["temporal.attn.w"], Q), _block_ids(sizes),
                  np.arange(len(sizes)))


def reason_over_segments(seg: SegmentTrace, queries: list[Tensor], params: ParamStore,
                         cfg: TrainConfig,
                         clips: tuple[tuple[int, int], ...] = ()) -> TemporalTrace:
    """Pool every segment under every query of its clip, refine each query's
    block of nodes, and pool each block into that query's global node.

    The columns of `queries` are joined into one matrix. `clips` holds the
    (segments, queries) of each clip, in order, over consecutive segments
    and queries; by default one clip owns them all. All queries run at
    once: each query's pooled nodes form one column block, and blocks
    neither exchange messages nor pool into each other's global node.
    """
    Q = tn.concat(queries, axis=1)
    clips = clips or ((seg.n_segments, Q.shape[1]),)
    if sum(n_seg for n_seg, _ in clips) != seg.n_segments or sum(n for _, n in clips) != Q.shape[1]:
        raise ContractError(f"clips {clips} do not cover {seg.n_segments} segments "
                            f"and {Q.shape[1]} queries")
    seg_start = np.cumsum([0] + [n_seg for n_seg, _ in clips])
    q_start = np.cumsum([0] + [n for _, n in clips])
    pairs = (np.concatenate([np.repeat(np.arange(q0, q0 + n), n_seg)
                             for (n_seg, n), q0 in zip(clips, q_start)]),
             np.concatenate([np.tile(np.arange(s0, s0 + n_seg), n)
                             for (n_seg, n), s0 in zip(clips, seg_start)]))
    P, pool = segment_pool(seg, Q, params, pairs)
    sizes = tuple(n_seg for n_seg, n in clips for _ in range(n))
    T, refine = P, None
    if cfg.temporal:
        g = tn.block_mean(T, sizes)
        T, refine = message_pass(T, T, g, g, params, "temporal.gate", sizes, sizes)
    G, weights = temporal_pool(T, Q, params, sizes)
    return TemporalTrace(nodes=P, global_nodes=G, sizes=sizes, pool_weights=weights.data,
                         attn_v=pool["attn_v"], attn_s=pool["attn_s"], fuse_gates=pool["gate"],
                         refine=refine)


def predict_global(global_nodes: Tensor, params: ParamStore,
                   sizes: tuple[int, ...] = ()) -> tuple[Tensor, Tensor]:
    """Mean each block of `sizes` columns of the (d, n_q) global nodes (one
    block by default) and classify it; returns (prob, logit), one column per
    block."""
    if global_nodes.shape[1] < 1:
        raise ContractError("prediction needs at least one global node")
    pooled = tn.block_mean(global_nodes, _sizes(sizes, global_nodes))
    hidden = tn.tanh(tn.add_col(tn.matmul(params["head.hidden.w"], pooled),
                                params["head.hidden.b"]))
    logit = tn.add_col(tn.matmul(params["head.out.w"], hidden), params["head.out.b"])
    return tn.sigmoid(logit), logit


# --------------------------------------------------------------- full forward

@dataclass
class FrozenDecisions:
    """Discrete choices pinned across repeated evaluations (gradient checks)."""

    n_queries: int


@dataclass
class Trace:
    """One clip's share of a batch: its own blocks of every level."""

    clip_id: str
    prob: Tensor
    logit: Tensor
    graph: ClipGraph
    segments: SegmentTrace               # the clip's segments, as column blocks
    query: QueryCost
    temporal: TemporalTrace              # the clip's queries, as column blocks

    @property
    def n_queries(self) -> int:
        return self.query.n_queries


@dataclass
class BatchTrace:
    """A batch of clips run as one block-diagonal graph, and each clip's share."""

    traces: list[Trace]                  # one per clip, in batch order
    segments: SegmentTrace               # every clip's segments, clip by clip
    query: QueryState
    temporal: TemporalTrace              # every clip's queries, clip by clip
    prob: Tensor                         # (1, n_clips)


def forward_batch(clips: Sequence[Clip], params: ParamStore, cfg: TrainConfig,
                  frozen: Sequence[FrozenDecisions] | None = None) -> BatchTrace:
    """Run `clips` as blocks of one graph; `frozen` pins each clip's query count."""
    if not clips:
        raise ContractError("a batch needs at least one clip")
    graphs = [build_clip_graph(clip.frames, clip.subs, params) for clip in clips]
    H = project_nodes(np.concatenate([clip.statement for clip in clips], axis=1), params, "proj.h")
    qs = extract_queries(H, params, cfg, None if frozen is None else [f.n_queries for f in frozen],
                         tuple(clip.statement.shape[1] for clip in clips))
    segs = refine_segment(tn.concat([g.frame_nodes for g in graphs], axis=1),
                          tn.concat([g.token_nodes for g in graphs], axis=1), params, cfg,
                          sum((g.frame_sizes for g in graphs), ()),
                          sum((g.token_sizes for g in graphs), ()))
    temporal = reason_over_segments(segs, [qs.queries], params, cfg,
                                    tuple((g.n_segments, n) for g, n in zip(graphs, qs.counts)))
    prob, logit = predict_global(temporal.global_nodes, params, qs.counts)
    traces = []
    v0 = s0 = p0 = q0 = 0
    for b, (clip, graph, cost) in enumerate(zip(clips, graphs, qs.costs)):
        v = slice(v0, v0 + graph.frame_nodes.shape[1])
        s = slice(s0, s0 + graph.token_nodes.shape[1])
        p = slice(p0, p0 + cost.n_queries * graph.n_segments)
        q = slice(q0, q0 + cost.n_queries)
        traces.append(Trace(
            clip_id=clip.clip_id, prob=_cols(prob, slice(b, b + 1)),
            logit=_cols(logit, slice(b, b + 1)), graph=graph,
            segments=segs.part(v, s, graph.frame_sizes, graph.token_sizes), query=cost,
            temporal=temporal.part(v, s, p, q, graph.n_segments)))
        v0, s0, p0, q0 = v.stop, s.stop, p.stop, q.stop
    return BatchTrace(traces=traces, segments=segs, query=qs, temporal=temporal, prob=prob)


def forward(clip: Clip, params: ParamStore, cfg: TrainConfig,
            frozen: FrozenDecisions | None = None) -> Trace:
    """One clip, as a batch of one."""
    return forward_batch([clip], params, cfg, None if frozen is None else [frozen]).traces[0]
