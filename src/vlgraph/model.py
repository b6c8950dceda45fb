"""Three-hierarchy reasoning network over clip graphs.

Layout: a clip is one frame-node matrix V (d, K) and one token-node matrix
S (d, L). Their columns are grouped by segment, in segmentation order, and
each segment owns one block of consecutive columns of each (`v_sizes`,
`s_sizes`). Every level runs once per clip over all blocks, so each weight
meets one matmul per clip, not one per segment or per query. This is the
disjoint union of the per-segment graphs as one block-diagonal graph.

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
is then pooled under every semantic query at once: the keys of a modality
are its query keys repeated over the segments, key q * n_seg + s pooling
segment s under query q, and the gate fuses the two modalities' pools.

Temporal level: the queries are the blocks. The pooled nodes of each query
exchange messages (Y = X again) and are pooled into that query's global
node, all queries in one pass. The number of queries is decided first, by a
self-halting accumulator over per-query stop probabilities; that loop stays
sequential because each query attends from the one before, over statement
tokens that form no blocks.

Global level: the mean of the global nodes feeds a small prediction head.

The trace records (`Pass`, `SegmentTrace`, `TemporalTrace`) hold the batched
arrays themselves, never copies or per-block slices; a reader takes the
blocks it needs. One `TemporalTrace` covers all queries, query-major: its
node column q * n_seg + s is segment s pooled under query q, column q of its
global nodes is query q's global node, and `query_ids` names the query of
each node column.

All forward paths are pure given (params, inputs); the discrete halting
decision can be pinned via `FrozenDecisions` so that finite-difference
checks see a fully differentiable function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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


def attend(X: Tensor, keys: Tensor, x_ids: np.ndarray,
           key_ids: np.ndarray) -> tuple[Tensor, Tensor]:
    """Pool the nodes X under every key column: X @ softmax(X^T keys + mask).

    The softmax runs over X's columns, and the constant mask is -inf where a
    node's block id (`x_ids`) differs from the key's (`key_ids`), 0
    elsewhere, so a key pools only the nodes of its own block and cross-block
    weights are exactly zero; every key's block must hold a node. Returns the
    (d, n_keys) pooled nodes and the (n_x, n_keys) weights.
    """
    mask = Tensor(np.where(x_ids[:, None] == key_ids[None, :], 0.0, -np.inf))
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
    msg, weights = attend(Y, X, _block_ids(y_sizes), _block_ids(x_sizes))     # (d, n_x)
    parts = [tn.block_expand(g_x, x_sizes), X, tn.block_expand(g_y, x_sizes)]
    out, gate = _gated(X, msg, parts, params, name)
    return out, Pass(adj=weights.data.T, gate=gate.data, msg=msg.data, out=out.data)


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
        return [(tn.col(self.visual, *v), tn.col(self.text, *s))
                for v, s in zip(block_bounds(self.v_sizes), block_bounds(self.s_sizes))]


def refine_segment(V: Tensor, S: Tensor, params: ParamStore, cfg: TrainConfig,
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
    v_q, attn_v = attend(V, tn.block_expand(tn.matmul(params["pool.attn_v.w"], Q), pairs),
                         _block_ids(seg.v_sizes), pair_seg)
    s_q, attn_s = attend(S, tn.block_expand(tn.matmul(params["pool.attn_s.w"], Q), pairs),
                         _block_ids(seg.s_sizes), pair_seg)
    g_v, g_s = tn.block_mean(V, seg.v_sizes), tn.block_mean(S, seg.s_sizes)
    parts = [tn.concat([g_v] * n_q, axis=1), tn.block_expand(Q, pairs),
             tn.concat([g_s] * n_q, axis=1)]
    node, gate = _gated(v_q, s_q, parts, params, "pool.fuse")
    return node, dict(attn_v=attn_v.data, attn_s=attn_s.data, gate=gate.data)


# --------------------------------------------------------------- query halting

def should_stop(cum_halt: float, step: int, halt_eps: float, max_queries: int) -> bool:
    """Stop once the accumulated halt probability clears 1 - eps, or at the cap."""
    return cum_halt > 1.0 - halt_eps or step >= max_queries


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


def extract_queries(H: Tensor, params: ParamStore, cfg: TrainConfig,
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
    """The temporal level for all queries at once, laid out query-major:
    node column q * n_segments + s is segment s pooled under query q."""

    nodes: Tensor                        # pooled nodes (d, n_q * n_seg)
    global_nodes: Tensor                 # (d, n_q), column q pools query q's block
    n_segments: int
    pool_weights: np.ndarray             # (n_q * n_seg, n_q), zero outside query q's block
    attn_v: np.ndarray                   # (K, n_q * n_seg), zero outside the segment's frames
    attn_s: np.ndarray                   # (L, n_q * n_seg), zero outside the segment's tokens
    fuse_gates: np.ndarray               # (d, n_q * n_seg)
    refine: Pass | None = None           # the temporal pass, when enabled

    @property
    def query_ids(self) -> np.ndarray:
        """The query of each node column."""
        return np.repeat(np.arange(self.global_nodes.shape[1]), self.n_segments)


def temporal_pool(T: Tensor, Q: Tensor, params: ParamStore,
                  sizes: tuple[int, ...] = ()) -> tuple[Tensor, Tensor]:
    """Attention-pool column block q of T (`sizes`; one block by default)
    under query q, column q of Q; returns the (d, n_q) pooled nodes and the
    weights."""
    sizes = _sizes(sizes, T)
    return attend(T, tn.matmul(params["temporal.attn.w"], Q), _block_ids(sizes),
                  np.arange(len(sizes)))


def reason_over_segments(seg: SegmentTrace, queries: list[Tensor], params: ParamStore,
                         cfg: TrainConfig) -> TemporalTrace:
    """Pool every segment under every query, refine each query's block of
    nodes, and pool each block into that query's global node.

    All queries run at once: each query's pooled nodes form one column block,
    and blocks neither exchange messages nor pool into each other's global
    node.
    """
    n_seg = seg.n_segments
    Q = tn.concat(queries, axis=1)
    P, pool = segment_pool(seg, Q, params)
    sizes = (n_seg,) * len(queries)
    T, refine = P, None
    if cfg.temporal:
        g = tn.block_mean(T, sizes)
        T, refine = message_pass(T, T, g, g, params, "temporal.gate", sizes, sizes)
    G, weights = temporal_pool(T, Q, params, sizes)
    return TemporalTrace(nodes=P, global_nodes=G, n_segments=n_seg, pool_weights=weights.data,
                         attn_v=pool["attn_v"], attn_s=pool["attn_s"], fuse_gates=pool["gate"],
                         refine=refine)


def predict_global(global_nodes: Tensor, params: ParamStore) -> tuple[Tensor, Tensor]:
    """Mean the (d, n_q) global nodes over queries and classify; returns (prob, logit)."""
    if global_nodes.shape[1] < 1:
        raise ContractError("prediction needs at least one global node")
    pooled = global_nodes.mean(axis=1)
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
    temporal: TemporalTrace              # all queries, as column blocks

    @property
    def n_queries(self) -> int:
        return self.query.n_queries


def forward(clip: Clip, params: ParamStore, cfg: TrainConfig,
            frozen: FrozenDecisions | None = None) -> Trace:
    graph = build_clip_graph(clip.frames, clip.subs, params)
    H = project_nodes(clip.statement, params, "proj.h")
    qs = extract_queries(
        H, params, cfg, force_n=frozen.n_queries if frozen is not None else None
    )
    segs = refine_segment(graph.frame_nodes, graph.token_nodes, params, cfg,
                          graph.frame_sizes, graph.token_sizes)
    temporal = reason_over_segments(segs, qs.queries, params, cfg)
    prob, logit = predict_global(temporal.global_nodes, params)
    return Trace(
        clip_id=clip.clip_id, prob=prob, logit=logit, graph=graph,
        segments=segs, query=qs, temporal=temporal,
    )
