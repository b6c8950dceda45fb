"""Three-hierarchy reasoning network over clip graphs, for a batch of clips.

Layout: a batch is one frame-node matrix V (d, K) and one token-node matrix
S (d, L) for all its clips. Their columns are grouped by clip, then by
segment in segmentation order, and each segment owns one block of
consecutive columns of each (`v_sizes`, `s_sizes`). `forward_batch` builds
them from the clips' raw features (`graph.ClipGraph`), one projection to
model width per modality for the whole batch, as it does the statement
tokens H (d, n_tokens); the projections run on the tape, so their maps
train with the rest of the model. Every level runs once
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
learned per-coordinate convex-combination gate. Its input is the stack
[guidance; nodes; guidance], such as [block means; nodes; block means],
which is never formed: each part meets its own column block of the (d, 3d)
weight at one column per block or node and is expanded after the product
(`tn.stacked_matmul`), so the tape and the weight's pending gradient
factors hold no (3d, n) array. A clip of one segment or one query takes
the same path as any other. Each message pass returns a
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
attends from the one before, but runs all statements in lockstep at a fixed
width: step t attends once over the statement tokens of every clip, and the
loop ends when the last statement stops. A statement that stopped earlier
stays in the later steps; their columns for it are computed and never read.

Global level: the mean of each clip's global nodes feeds a small
prediction head, one column per clip.

The trace records (`Pass`, `SegmentTrace`, `TemporalTrace`) hold the batched
arrays themselves, never copies, and a `BatchTrace` holds one of each for
the whole batch: the losses read every clip's blocks from it at once (see
`train.total_loss`), so no clip gets a record of its own. A
`TemporalTrace` is query-major: node column j pools segment j of its
query's block, `query_ids` names the query of each node column, and column
q of its global nodes is query q's global node.

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
from .graph import Clip, ClipGraph, build_clip_graph
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

def project_nodes(raw: Sequence[np.ndarray], params: ParamStore, prefix: str) -> Tensor:
    """Single-layer map to model width, tanh(W x + b), of every column of the
    raw feature matrices, side by side in one product."""
    x = Tensor(np.concatenate(raw, axis=1), copy=False)    # a new array, adopted as it is
    return tn.tanh(tn.add_col(tn.matmul(params[f"{prefix}.w"], x), params[f"{prefix}.b"]))


def _sizes(sizes: tuple[int, ...], X: Tensor) -> tuple[int, ...]:
    """Column block sizes of X; one block of all its columns when empty."""
    return tuple(sizes) or (X.shape[1],)


def _block_ids(sizes: tuple[int, ...]) -> np.ndarray:
    return np.repeat(np.arange(len(sizes)), sizes)


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


def _gated(keep: Tensor, take: Tensor, params: ParamStore, name: str,
           *parts) -> tuple[Tensor, Tensor]:
    """(1 - gate) * keep + gate * take, with gate = sigmoid(W [guide_a;
    nodes; guide_b] + b) through the weights `name`; returns the result and
    the gate. `parts` are guide_a, nodes, guide_b, guide_ids and optionally
    node_ids, as `tn.stacked_matmul` takes them: a guidance part costs one
    column per block, and the stack is never formed.
    """
    gate = tn.sigmoid(tn.add_col(tn.stacked_matmul(params[f"{name}.w"], *parts),
                                 params[f"{name}.b"]))
    return tn.add(tn.mul(tn.sub(1.0, gate), keep), tn.mul(gate, take)), gate


@dataclass
class Pass:
    """One message pass: references to the arrays it computed, no copies."""

    adj: np.ndarray                      # (n_x, n_y), rows sum to one, zero across blocks
    gate: np.ndarray                     # (d, n_x), share of the message taken
    msg: np.ndarray                      # (d, n_x), aggregated messages
    out: np.ndarray                      # (d, n_x), updated nodes


def message_pass(X: Tensor, Y: Tensor, g_x: Tensor, g_y: Tensor, params: ParamStore,
                 name: str, x_sizes: tuple[int, ...] = (),
                 y_sizes: tuple[int, ...] = ()) -> tuple[Tensor, Pass]:
    """Nodes X absorb gated messages aggregated from nodes Y.

    The columns of X and Y form matching blocks (`x_sizes`, `y_sizes`; one
    block each by default), and a node only hears the nodes of its own block:
    each receiving node of X attends over the senders Y of its block, so the
    adjacency is softmax(X^T Y) over each receiver's row. `g_x` and `g_y`
    hold one guidance column per block; the gate reads [g_x; X; g_y], each
    guidance column standing for all of its block's nodes, through the
    weights `name` (see `_gated`). With Y = X, a single-node block is a
    fixed point.
    """
    x_sizes, y_sizes = _sizes(x_sizes, X), _sizes(y_sizes, Y)
    if len(x_sizes) != len(y_sizes):
        raise ContractError(f"{name}: {len(x_sizes)} receiving blocks but {len(y_sizes)} sending")
    x_ids = _block_ids(x_sizes)
    msg, weights = attend(Y, X, _block_ids(y_sizes), x_ids)     # (d, n_x)
    out, gate = _gated(X, msg, params, name, g_x, X, g_y, x_ids)
    return out, Pass(adj=weights.data.T, gate=gate.data, msg=msg.data, out=out.data)


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
    node, gate = _gated(v_q, s_q, params, "pool.fuse", g_v, Q, g_s, pair_seg, pair_query)
    return node, dict(attn_v=attn_v.data, attn_s=attn_s.data, gate=gate.data)


# --------------------------------------------------------------- query halting

def should_stop(cum_halt: float, step: int, halt_eps: float, max_queries: int) -> bool:
    """Stop once the accumulated halt probability clears 1 - eps, or at the cap."""
    return cum_halt > 1.0 - halt_eps or step >= max_queries


@dataclass
class QueryState:
    """Queries of one or more statements, extracted in lockstep.

    Every step runs every statement, so its `attn`, `halts` and `cum` hold
    one column per statement; the columns of a step after a statement's last
    one are never read. With one statement each step holds one column.
    """

    queries: Tensor                      # (d, n_queries), statement-major, `counts` columns each
    counts: tuple[int, ...]              # queries per statement
    early: tuple[bool, ...]              # per statement: the halting fired before the cap
    attn: list[Tensor]                   # step t: (l, n_statements), l all statement tokens
    halts: list[Tensor]                  # step t: (1, n_statements)
    cum: list[Tensor]                    # step t: running sums, (1, n_statements)
    surrogate: Tensor                    # query-efficiency cost, (1, n_statements)

    @property
    def n_queries(self) -> int:
        return sum(self.counts)

    @property
    def stopped_early(self) -> int:
        """How many statements halted before the cap."""
        return sum(self.early)


def extract_queries(H: Tensor, params: ParamStore, cfg: TrainConfig,
                    force_n: Sequence[int] | None = None,
                    sizes: tuple[int, ...] = ()) -> QueryState:
    """Attentively extract semantic queries until self-halting fires.

    The columns of H are the statement tokens of one or more statements, in
    blocks of `sizes` (one statement by default), and all statements run in
    lockstep until the last one stops. A statement's summary (its mean
    token) seeds its first query and is reused, not recomputed, in every
    attention step. `force_n` pins the query count of each statement (None
    leaves them to `cfg.fixed_queries` or the stop rule); halt probabilities
    are still computed so the efficiency cost stays differentiable.

    A statement of n queries costs query_cost * ((1 - c) + n), c its running
    sum before its last step (0 for n = 1): the ponder cost of adaptive
    computation time (Graves 2016, arXiv:1603.08983).
    """
    sizes = _sizes(sizes, H)
    if min(sizes) < 1:
        raise ContractError("statement must have at least one token")
    width = len(sizes)
    forced = [cfg.fixed_queries] * width if force_n is None else list(force_n)
    if len(forced) != width:
        raise ContractError(f"{len(forced)} forced query counts for {width} statements")
    for n in () if force_n is None else forced:
        if not 1 <= n <= cfg.max_queries:
            raise ContractError(f"forced query count must lie in [1, max_queries={cfg.max_queries}], "
                                f"got {n}")
    h_ids = _block_ids(sizes)
    g = tn.block_mean(H, sizes)
    q, cum = g, None
    steps: list[Tensor] = []
    attn: list[Tensor] = []
    halts: list[Tensor] = []
    cums: list[Tensor] = []
    counts = [0] * width
    early = [False] * width
    while not all(counts):
        key = tn.matmul(params["query.attn.w"], tn.concat([g, q], axis=0))
        q, weights = attend(H, key, h_ids, np.arange(width))
        halt = tn.sigmoid(
            tn.add_col(tn.matmul(params["query.halt.w"], q), params["query.halt.b"])
        ).mean(axis=0)
        cum = halt if cum is None else tn.add(cum, halt)
        steps.append(q)
        attn.append(weights)
        halts.append(halt)
        cums.append(cum)
        n = len(steps)
        for b, total in enumerate(cum.data[0].tolist()):
            if counts[b]:
                continue
            if forced[b] is not None:
                stop = n >= forced[b]
            else:
                stop = should_stop(total, n, cfg.halt_eps, cfg.max_queries)
            if stop:
                counts[b] = n
                early[b] = forced[b] is None and total > 1.0 - cfg.halt_eps

    # query t of statement b is column b of step t; its running sums are
    # gathered from a zero column followed by those of every step but the last
    queries = tn.gather(tn.concat(steps, axis=1),
                        [t * width + b for b, n in enumerate(counts) for t in range(n)])
    before_last = tn.gather(tn.concat([Tensor(0.0)] + cums[:-1], axis=1),
                            [0 if n == 1 else 1 + (n - 2) * width + b
                             for b, n in enumerate(counts)])
    n_row = Tensor(np.array([counts], dtype=np.float64), copy=False)
    surrogate = tn.scale(tn.add(tn.sub(1.0, before_last), n_row), cfg.query_cost)
    return QueryState(queries=queries, counts=tuple(counts), early=tuple(early), attn=attn,
                      halts=halts, cum=cums, surrogate=surrogate)


# --------------------------------------------------------------- temporal level

@dataclass
class TemporalTrace:
    """The temporal level for all queries at once, laid out query-major:
    query q owns the next `sizes[q]` node columns, one per segment of its
    clip in segment order."""

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


def temporal_pool(T: Tensor, Q: Tensor, params: ParamStore,
                  sizes: tuple[int, ...] = ()) -> tuple[Tensor, Tensor]:
    """Attention-pool column block q of T (`sizes`; one block by default)
    under query q, column q of Q; returns the (d, n_q) pooled nodes and the
    weights."""
    sizes = _sizes(sizes, T)
    return attend(T, tn.matmul(params["temporal.attn.w"], Q), _block_ids(sizes),
                  np.arange(len(sizes)))


def reason_over_segments(seg: SegmentTrace, Q: Tensor, params: ParamStore,
                         cfg: TrainConfig,
                         clips: tuple[tuple[int, int], ...] = ()) -> TemporalTrace:
    """Pool every segment under every query of its clip, refine each query's
    block of nodes, and pool each block into that query's global node.

    The queries are the columns of Q. `clips` holds the (segments, queries)
    of each clip, in order, over consecutive segments and queries; by
    default one clip owns them all. All queries run at once: each query's
    pooled nodes form one column block, and blocks neither exchange messages
    nor pool into each other's global node.
    """
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
class BatchTrace:
    """A batch of clips run as one block-diagonal graph: every level's
    records, with the clips' blocks in batch order."""

    graphs: list[ClipGraph]              # one per clip
    segments: SegmentTrace               # every clip's segments, clip by clip
    query: QueryState                    # `counts` holds each clip's query count
    temporal: TemporalTrace              # every clip's queries, clip by clip
    prob: Tensor                         # (1, n_clips)
    logit: Tensor                        # (1, n_clips)

    @property
    def n_queries(self) -> int:
        """Queries of all clips; a batch of one clip's own count."""
        return self.query.n_queries


def forward_batch(clips: Sequence[Clip], params: ParamStore, cfg: TrainConfig,
                  frozen: Sequence[FrozenDecisions] | None = None) -> BatchTrace:
    """Run `clips` as blocks of one graph; `frozen` pins each clip's query count."""
    if not clips:
        raise ContractError("a batch needs at least one clip")
    if frozen is not None and len(frozen) != len(clips):
        raise ContractError(f"{len(frozen)} frozen decisions for {len(clips)} clips")
    graphs = [build_clip_graph(clip.frames, clip.subs) for clip in clips]
    V = project_nodes([g.frames for g in graphs], params, "proj.v")
    S = project_nodes([g.tokens for g in graphs], params, "proj.s")
    H = project_nodes([clip.statement for clip in clips], params, "proj.h")
    qs = extract_queries(H, params, cfg, None if frozen is None else [f.n_queries for f in frozen],
                         tuple(clip.statement.shape[1] for clip in clips))
    segs = refine_segment(V, S, params, cfg, sum((g.frame_sizes for g in graphs), ()),
                          sum((g.token_sizes for g in graphs), ()))
    temporal = reason_over_segments(segs, qs.queries, params, cfg,
                                    tuple((g.n_segments, n) for g, n in zip(graphs, qs.counts)))
    prob, logit = predict_global(temporal.global_nodes, params, qs.counts)
    return BatchTrace(graphs=graphs, segments=segs, query=qs, temporal=temporal, prob=prob,
                      logit=logit)


def forward(clip: Clip, params: ParamStore, cfg: TrainConfig,
            frozen: FrozenDecisions | None = None) -> BatchTrace:
    """One clip, as a batch of one."""
    return forward_batch([clip], params, cfg, None if frozen is None else [frozen])
