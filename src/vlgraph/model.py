"""Three-hierarchy reasoning network over clip graphs.

Layout: a clip is one frame-node matrix V (d, K) and one token-node matrix
S (d, L). Their columns are grouped by segment, in segmentation order, and
each segment owns one block of consecutive columns of each (`v_sizes`,
`s_sizes`). Every level runs once per clip over all blocks, so each weight
meets one matmul per clip, not one per segment or per query. This is the
disjoint union of the per-segment graphs as one block-diagonal graph.

All three hierarchies pass messages with one primitive, `message_pass`:
nodes X absorb messages from nodes Y over the row-normalized similarity
adjacency softmax(X^T Y), through a learned per-coordinate convex-combination
gate. A constant block mask, 0 where a row's block meets the same block's
columns and -inf elsewhere, is added before the softmax, so a node only
hears its own block and cross-block weights are exactly zero; a node's own
block is never empty. The gate reads each block's guidance column (a block
mean) repeated over the block's nodes. Each call returns a `Pass` record
that holds references to the adjacency, gate, message and output arrays it
computed.

Segment level: cross-modal passing refines each modality with the other,
then intra-modal passing (Y = X) refines within a modality. Every segment
is then pooled under every semantic query at once: the attention over a
modality's nodes is one masked (n, Q * n_seg) softmax, column q * n_seg + s
pooling segment s under query q.

Temporal level: the queries are the blocks. The pooled nodes of each query
exchange messages (Y = X again) and are pooled into that query's global
node, all queries in one pass. The number of queries is decided first, by a
self-halting accumulator over per-query stop probabilities; that loop stays
sequential because each query attends from the one before.

Global level: the mean of the global nodes feeds a small prediction head.

The trace records (`Pass`, `SegmentTrace`, `TemporalTrace`) hold the batched
arrays or numpy views of them, never copies. All forward paths are pure
given (params, inputs); the discrete halting decision can be pinned via
`FrozenDecisions` so that finite-difference checks see a fully
differentiable function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as tn
from .errors import ContractError
from .graph import Clip, ClipGraph, block_bounds, build_clip_graph, project_nodes
from .tensor import ParamStore, Tensor


@dataclass
class ModelConfig:
    dim: int
    halt_eps: float = 0.1
    max_queries: int = 5
    query_cost: float = 0.05
    inter_modal: bool = True
    intra_modal: bool = True
    temporal: bool = True
    fixed_queries: int | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ContractError("dim must be positive")
        if not 0.0 < self.halt_eps < 1.0:
            raise ContractError("halt_eps must lie in (0, 1)")
        if self.max_queries < 1:
            raise ContractError("max_queries must be at least 1")
        if self.fixed_queries is not None and not 1 <= self.fixed_queries <= self.max_queries:
            raise ContractError("fixed_queries must lie in [1, max_queries]")


def init_params(cfg: ModelConfig, d_v: int, d_s: int, d_h: int,
                rng: np.random.Generator) -> ParamStore:
    """All trainable tensors, including the MI discriminator weight."""
    d = cfg.dim
    ps = ParamStore()
    ps.add_linear("proj.v", d, d_v, rng)
    ps.add_linear("proj.s", d, d_s, rng)
    ps.add_linear("proj.h", d, d_h, rng)
    ps.add_linear("inter.v", d, 3 * d, rng)
    ps.add_linear("inter.s", d, 3 * d, rng)
    ps.add_linear("intra.v", d, 3 * d, rng)
    ps.add_linear("intra.s", d, 3 * d, rng)
    ps.add_linear("pool.attn_v", d, d, rng, bias=False)
    ps.add_linear("pool.attn_s", d, d, rng, bias=False)
    ps.add_linear("pool.fuse", d, 3 * d, rng)
    ps.add_linear("query.attn", d, 2 * d, rng, bias=False)
    ps.add_linear("query.halt", d, d, rng)
    ps.add_linear("temporal.gate", d, 3 * d, rng)
    ps.add_linear("temporal.attn", d, d, rng, bias=False)
    ps.add_linear("head.hidden", d, d, rng)
    ps.add_linear("head.out", 1, d, rng)
    ps.add_linear("disc", d, d, rng, bias=False)
    return ps


# --------------------------------------------------------------- building blocks

def _fuse(keep: Tensor, take: Tensor, gate: Tensor) -> Tensor:
    """Convex combination (1 - gate) * keep + gate * take."""
    return tn.add(tn.mul(tn.sub(1.0, gate), keep), tn.mul(gate, take))


def _sizes(sizes: tuple[int, ...], X: Tensor) -> tuple[int, ...]:
    """Column block sizes of X; one block of all its columns when empty."""
    return tuple(sizes) or (X.shape[1],)


def _block_ids(sizes: tuple[int, ...]) -> np.ndarray:
    return np.repeat(np.arange(len(sizes)), sizes)


def _mask(scores: Tensor, row_ids: np.ndarray, col_ids: np.ndarray) -> Tensor:
    """`scores` where row and column share a block id, -inf elsewhere.

    The constant is added before a softmax, so cross-block weights are exactly
    zero; every row and column meets its own block, which is never empty.
    """
    return tn.add(scores, Tensor(np.where(row_ids[:, None] == col_ids[None, :], 0.0, -np.inf)))


@dataclass
class Pass:
    """One message pass: references to the arrays it computed, no copies."""

    adj: np.ndarray                      # (n_x, n_y), rows sum to one, zero across blocks
    gate: np.ndarray                     # (d, n_x), share of the message taken
    msg: np.ndarray                      # (d, n_x), aggregated messages
    out: np.ndarray                      # (d, n_x), updated nodes

    def block(self, lo: int, hi: int) -> "Pass":
        """Views of the block of nodes lo..hi-1 of a pass with Y = X."""
        return Pass(adj=self.adj[lo:hi, lo:hi], gate=self.gate[:, lo:hi],
                    msg=self.msg[:, lo:hi], out=self.out[:, lo:hi])


def message_pass(X: Tensor, Y: Tensor, g_x: Tensor, g_y: Tensor, params: ParamStore,
                 name: str, x_sizes: tuple[int, ...] = (),
                 y_sizes: tuple[int, ...] = ()) -> tuple[Tensor, Pass]:
    """Nodes X absorb gated messages aggregated from nodes Y.

    The columns of X and Y form matching blocks (`x_sizes`, `y_sizes`; one
    block each by default), and a node only hears the nodes of its own block:
    the adjacency is softmax(X^T Y) over each receiving node's row, with
    cross-block entries masked out. `g_x` and `g_y` hold one guidance column
    per block; the gate reads [g_x; X; g_y], each guidance column repeated
    over its block's nodes, through the weights `name`. With Y = X, a
    single-node block is a fixed point.
    """
    x_sizes, y_sizes = _sizes(x_sizes, X), _sizes(y_sizes, Y)
    if len(x_sizes) != len(y_sizes):
        raise ContractError(f"{name}: {len(x_sizes)} receiving blocks but {len(y_sizes)} sending")
    scores = tn.matmul(X.T, Y)                   # (n_x, n_y)
    if len(x_sizes) > 1:
        scores = _mask(scores, _block_ids(x_sizes), _block_ids(y_sizes))
    adj = tn.softmax(scores, axis=1)
    msg = tn.matmul(Y, adj.T)                    # (d, n_x)
    stacked = tn.concat([tn.block_expand(g_x, x_sizes), X, tn.block_expand(g_y, x_sizes)], axis=0)
    gate = tn.sigmoid(tn.add_col(tn.matmul(params[f"{name}.w"], stacked), params[f"{name}.b"]))
    out = _fuse(X, msg, gate)
    return out, Pass(adj=adj.data, gate=gate.data, msg=msg.data, out=out.data)


@dataclass
class SegmentTrace:
    """Refined nodes of every segment of a clip, as column blocks."""

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
        if self.n_segments == 1:
            return [(self.visual, self.text)]
        return [(tn.col(self.visual, *v), tn.col(self.text, *s))
                for v, s in zip(block_bounds(self.v_sizes), block_bounds(self.s_sizes))]


def refine_segment(V: Tensor, S: Tensor, params: ParamStore, cfg: ModelConfig,
                   v_sizes: tuple[int, ...] = (), s_sizes: tuple[int, ...] = ()) -> SegmentTrace:
    """Cross-modal then intra-modal refinement of all segments of a clip.

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


def segment_pool(seg: SegmentTrace, Q: Tensor, params: ParamStore) -> tuple[Tensor, dict]:
    """Pool every segment under every query (the columns of Q).

    Column q * n_seg + s of the result is segment s pooled under query q; the
    attention arrays have one column per such pair, zero outside the
    segment's rows.
    """
    V, S = seg.visual, seg.text
    n_seg, n_q = seg.n_segments, Q.shape[1]
    pairs = (n_seg,) * n_q                       # each query repeated over the segments
    pair_seg = np.tile(np.arange(n_seg), n_q)    # the segment of each pair

    def attend(X: Tensor, sizes: tuple[int, ...], weight: str) -> Tensor:
        scores = tn.matmul(X.T, tn.matmul(params[weight], Q))   # (n, n_q)
        if n_seg > 1:
            scores = _mask(tn.block_expand(scores, pairs), _block_ids(sizes), pair_seg)
        return tn.softmax(scores, axis=0)

    attn_v = attend(V, seg.v_sizes, "pool.attn_v.w")
    attn_s = attend(S, seg.s_sizes, "pool.attn_s.w")
    v_q = tn.matmul(V, attn_v)
    s_q = tn.matmul(S, attn_s)
    g_v, g_s = tn.block_mean(V, seg.v_sizes), tn.block_mean(S, seg.s_sizes)
    if n_q > 1:
        g_v, g_s = tn.concat([g_v] * n_q, axis=1), tn.concat([g_s] * n_q, axis=1)
    q = Q if n_seg == 1 else tn.block_expand(Q, pairs)
    stacked = tn.concat([g_v, q, g_s], axis=0)
    gate = tn.sigmoid(tn.add_col(tn.matmul(params["pool.fuse.w"], stacked), params["pool.fuse.b"]))
    node = _fuse(v_q, s_q, gate)
    return node, dict(attn_v=attn_v.data, attn_s=attn_s.data, gate=gate.data)


# --------------------------------------------------------------- query halting

def should_stop(cum_halt: float, step: int, halt_eps: float, max_queries: int) -> bool:
    """Stop once the accumulated halt probability clears 1 - eps, or at the cap."""
    return cum_halt > 1.0 - halt_eps or step >= max_queries


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


@dataclass
class QueryState:
    queries: list[Tensor]                # each (d, 1)
    attn: list[Tensor]                   # each (l_h, 1)
    halts: list[Tensor]                  # each (1, 1)
    cum: list[Tensor]                    # running sums, each (1, 1)
    n_queries: int
    surrogate: Tensor                    # differentiable query-efficiency cost
    literal: float                       # query_cost * n, logged as a metric
    stopped_early: bool


def extract_queries(H: Tensor, params: ParamStore, cfg: ModelConfig,
                    force_n: int | None = None) -> QueryState:
    """Attentively extract semantic queries until self-halting fires.

    The statement summary (mean token) seeds the first query and is reused,
    not recomputed, in every attention step. `force_n` pins the query count,
    bypassing the stop rule (halt probabilities are still computed so the
    efficiency cost stays differentiable).
    """
    if H.shape[1] < 1:
        raise ContractError("statement must have at least one token")
    if force_n is None:
        force_n = cfg.fixed_queries
    g_h = H.mean(axis=1)
    q = g_h
    H_T = H.T
    queries: list[Tensor] = []
    attn: list[Tensor] = []
    halts: list[Tensor] = []
    cums: list[Tensor] = []
    n = 0
    stopped_early = False
    while True:
        n += 1
        key = tn.matmul(params["query.attn.w"], tn.concat([g_h, q], axis=0))
        weights = tn.softmax(tn.matmul(H_T, key), axis=0)
        q = tn.matmul(H, weights)
        halt = tn.sigmoid(
            tn.add(tn.matmul(params["query.halt.w"], q), params["query.halt.b"])
        ).mean()
        cum = halt if not cums else tn.add(cums[-1], halt)
        queries.append(q)
        attn.append(weights)
        halts.append(halt)
        cums.append(cum)
        if force_n is not None:
            if n >= force_n:
                break
        elif should_stop(cum.item(), n, cfg.halt_eps, cfg.max_queries):
            stopped_early = cum.item() > 1.0 - cfg.halt_eps
            break
    remainder = Tensor(1.0) if n == 1 else tn.sub(1.0, cums[-2])
    surrogate = tn.scale(tn.add(remainder, float(n)), cfg.query_cost)
    return QueryState(
        queries=queries, attn=attn, halts=halts, cum=cums, n_queries=n,
        surrogate=surrogate, literal=cfg.query_cost * n, stopped_early=stopped_early,
    )


# --------------------------------------------------------------- temporal level

@dataclass
class TemporalTrace:
    """The temporal level under one query; the arrays are views of the
    arrays computed for all queries at once."""

    nodes: Tensor                        # pooled per-segment nodes (d, n_seg)
    global_node: Tensor                  # (d, 1)
    pool_weights: np.ndarray             # (n_seg, 1)
    seg_attn_v: list[np.ndarray]         # per segment (K_i, 1)
    seg_attn_s: list[np.ndarray]         # per segment (L_i, 1)
    fuse_gates: list[np.ndarray]         # per segment (d, 1)
    refine: Pass | None = None           # the temporal pass, when enabled


def temporal_pool(T: Tensor, Q: Tensor, params: ParamStore,
                  sizes: tuple[int, ...] = ()) -> tuple[Tensor, Tensor]:
    """Attention-pool column block q of T (`sizes`; one block by default)
    under query q, column q of Q; returns the (d, n_q) pooled nodes and the
    weights."""
    scores = tn.matmul(T.T, tn.matmul(params["temporal.attn.w"], Q))   # (n, n_q)
    if len(sizes) > 1:
        scores = _mask(scores, _block_ids(sizes), np.arange(len(sizes)))
    weights = tn.softmax(scores, axis=0)
    return tn.matmul(T, weights), weights


def reason_over_segments(seg: SegmentTrace, queries: list[Tensor], params: ParamStore,
                         cfg: ModelConfig) -> list[TemporalTrace]:
    """Pool every segment under every query, refine each query's row of
    nodes, pool each row into its global node; one trace per query.

    All queries run at once: each query's pooled nodes form one column block,
    and blocks neither exchange messages nor pool into each other's global
    node.
    """
    n_seg, n_q = seg.n_segments, len(queries)
    Q = queries[0] if n_q == 1 else tn.concat(queries, axis=1)
    P, pool = segment_pool(seg, Q, params)
    sizes = (n_seg,) * n_q
    T, refine = P, None
    if cfg.temporal:
        g = tn.block_mean(T, sizes)
        T, refine = message_pass(T, T, g, g, params, "temporal.gate", sizes, sizes)
    G, weights = temporal_pool(T, Q, params, sizes)
    v_bounds, s_bounds = block_bounds(seg.v_sizes), block_bounds(seg.s_sizes)
    traces = []
    for q, (lo, hi) in enumerate(block_bounds(sizes)):
        traces.append(TemporalTrace(
            nodes=P if n_q == 1 else tn.col(P, lo, hi),
            global_node=G if n_q == 1 else tn.col(G, q),
            pool_weights=weights.data[lo:hi, q : q + 1],
            seg_attn_v=[pool["attn_v"][a:b, j : j + 1] for j, (a, b) in zip(range(lo, hi), v_bounds)],
            seg_attn_s=[pool["attn_s"][a:b, j : j + 1] for j, (a, b) in zip(range(lo, hi), s_bounds)],
            fuse_gates=[pool["gate"][:, j : j + 1] for j in range(lo, hi)],
            refine=None if refine is None else refine.block(lo, hi),
        ))
    return traces


def predict_global(globals_: list[Tensor], params: ParamStore) -> tuple[Tensor, Tensor]:
    """Mean the per-query global nodes and classify; returns (prob, logit)."""
    if not globals_:
        raise ContractError("prediction needs at least one global node")
    pooled = globals_[0] if len(globals_) == 1 else tn.concat(globals_, axis=1).mean(axis=1)
    hidden = tn.tanh(tn.add(tn.matmul(params["head.hidden.w"], pooled), params["head.hidden.b"]))
    logit = tn.add(tn.matmul(params["head.out.w"], hidden), params["head.out.b"])
    return tn.sigmoid(logit), logit


# --------------------------------------------------------------- full forward

@dataclass
class FrozenDecisions:
    """Discrete choices pinned across repeated evaluations (gradient checks)."""

    n_queries: int


@dataclass
class Trace:
    clip_id: str
    prob: Tensor
    logit: Tensor
    graph: ClipGraph
    segments: SegmentTrace               # all segments, as column blocks
    query: QueryState
    temporal: list[TemporalTrace]        # one per query

    @property
    def n_queries(self) -> int:
        return self.query.n_queries


def forward(clip: Clip, params: ParamStore, cfg: ModelConfig,
            frozen: FrozenDecisions | None = None) -> Trace:
    graph = build_clip_graph(clip.frames, clip.subs, params)
    H = project_nodes(clip.statement, params, "proj.h")
    qs = extract_queries(
        H, params, cfg, force_n=frozen.n_queries if frozen is not None else None
    )
    segs = refine_segment(graph.frame_nodes, graph.token_nodes, params, cfg,
                          graph.frame_sizes, graph.token_sizes)
    temporal = reason_over_segments(segs, qs.queries, params, cfg)
    prob, logit = predict_global([t.global_node for t in temporal], params)
    return Trace(
        clip_id=clip.clip_id, prob=prob, logit=logit, graph=graph,
        segments=segs, query=qs, temporal=temporal,
    )
