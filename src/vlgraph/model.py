"""Three-hierarchy reasoning network over clip graphs.

All three hierarchies pass messages with one primitive, `message_pass`:
nodes X absorb messages from nodes Y over the row-normalized similarity
adjacency softmax(X^T Y), through a learned per-coordinate convex-combination
gate. Each call returns a `Pass` record that holds references to the
adjacency, gate, message and output arrays it computed.

Segment level: cross-modal passing refines each modality with the other,
then intra-modal passing (Y = X) refines within a modality. A
statement-derived semantic query then pools each segment into one temporal
node.

Temporal level: per query, the pooled nodes exchange messages (Y = X again)
and are pooled into a global node. The number of queries is decided by a
self-halting accumulator over per-query stop probabilities.

Global level: the mean of the global nodes feeds a small prediction head.

All forward paths are pure given (params, inputs); the discrete halting
decision can be pinned via `FrozenDecisions` so that finite-difference
checks see a fully differentiable function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as tn
from .errors import ContractError
from .graph import Clip, ClipGraph, build_clip_graph, project_nodes
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


@dataclass
class Pass:
    """One message pass: references to the arrays it computed, no copies."""

    adj: np.ndarray                      # (n_x, n_y), rows sum to one
    gate: np.ndarray                     # (d, n_x), share of the message taken
    msg: np.ndarray                      # (d, n_x), aggregated messages
    out: np.ndarray                      # (d, n_x), updated nodes


def message_pass(X: Tensor, Y: Tensor, g_x: Tensor, g_y: Tensor, params: ParamStore,
                 name: str) -> tuple[Tensor, Pass]:
    """Nodes X absorb gated messages aggregated from nodes Y.

    The adjacency is softmax(X^T Y) over each receiving node's row; the gate
    reads [g_x; X; g_y] through the weights `name`. With Y = X, a
    single-node graph is a fixed point.
    """
    adj = tn.softmax(tn.matmul(X.T, Y), axis=1)  # (n_x, n_y)
    msg = tn.matmul(Y, adj.T)                    # (d, n_x)
    n = X.shape[1]
    stacked = tn.concat([tn.tile_col(g_x, n), X, tn.tile_col(g_y, n)], axis=0)
    gate = tn.sigmoid(tn.add_col(tn.matmul(params[f"{name}.w"], stacked), params[f"{name}.b"]))
    out = _fuse(X, msg, gate)
    return out, Pass(adj=adj.data, gate=gate.data, msg=msg.data, out=out.data)


@dataclass
class SegmentTrace:
    visual: Tensor                       # refined nodes (d, K)
    text: Tensor                         # refined nodes (d, L)
    passes: dict[str, Pass] = field(default_factory=dict)  # by gate name, in run order


def refine_segment(V: Tensor, S: Tensor, params: ParamStore,
                   cfg: ModelConfig) -> SegmentTrace:
    """Cross-modal then intra-modal refinement of one segment.

    Both cross-modal passes read the nodes and means from before either
    update.
    """
    passes: dict[str, Pass] = {}
    if cfg.inter_modal:
        g_v, g_s = V.mean(axis=1), S.mean(axis=1)
        V2, passes["inter.v"] = message_pass(V, S, g_v, g_s, params, "inter.v")
        S, passes["inter.s"] = message_pass(S, V, g_s, g_v, params, "inter.s")
        V = V2
    if cfg.intra_modal:
        g_v = V.mean(axis=1)
        V, passes["intra.v"] = message_pass(V, V, g_v, g_v, params, "intra.v")
        g_s = S.mean(axis=1)
        S, passes["intra.s"] = message_pass(S, S, g_s, g_s, params, "intra.s")
    return SegmentTrace(visual=V, text=S, passes=passes)


def segment_pool(seg: SegmentTrace, q: Tensor, params: ParamStore) -> tuple[Tensor, dict]:
    """Pool one refined segment into a temporal node under a semantic query."""
    V, S = seg.visual, seg.text
    attn_v = tn.softmax(tn.matmul(V.T, tn.matmul(params["pool.attn_v.w"], q)), axis=0)
    attn_s = tn.softmax(tn.matmul(S.T, tn.matmul(params["pool.attn_s.w"], q)), axis=0)
    v_q = tn.matmul(V, attn_v)
    s_q = tn.matmul(S, attn_s)
    stacked = tn.concat([V.mean(axis=1), q, S.mean(axis=1)], axis=0)
    gate = tn.sigmoid(tn.add(tn.matmul(params["pool.fuse.w"], stacked), params["pool.fuse.b"]))
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
    queries: list[Tensor] = []
    attn: list[Tensor] = []
    halts: list[Tensor] = []
    cums: list[Tensor] = []
    n = 0
    stopped_early = False
    while True:
        n += 1
        key = tn.matmul(params["query.attn.w"], tn.concat([g_h, q], axis=0))
        weights = tn.softmax(tn.matmul(H.T, key), axis=0)
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
    nodes: list[Tensor]                  # pooled per-segment nodes (d, 1) each
    global_node: Tensor                  # (d, 1)
    pool_weights: np.ndarray             # (M, 1)
    seg_attn_v: list[np.ndarray]
    seg_attn_s: list[np.ndarray]
    fuse_gates: list[np.ndarray]
    refine: Pass | None = None           # the temporal pass, when enabled


def temporal_pool(T: Tensor, q: Tensor, params: ParamStore) -> tuple[Tensor, Tensor]:
    weights = tn.softmax(tn.matmul(T.T, tn.matmul(params["temporal.attn.w"], q)), axis=0)
    return tn.matmul(T, weights), weights


def reason_over_segments(segs: list[SegmentTrace], q: Tensor, params: ParamStore,
                         cfg: ModelConfig) -> TemporalTrace:
    """Pool every segment under one query, refine the node row, pool globally."""
    nodes = []
    pool_info = []
    for seg in segs:
        node, info = segment_pool(seg, q, params)
        nodes.append(node)
        pool_info.append(info)
    T = nodes[0] if len(nodes) == 1 else tn.concat(nodes, axis=1)
    refine = None
    if cfg.temporal:
        g = T.mean(axis=1)
        T, refine = message_pass(T, T, g, g, params, "temporal.gate")
    global_node, weights = temporal_pool(T, q, params)
    return TemporalTrace(
        nodes=nodes, global_node=global_node, pool_weights=weights.data,
        seg_attn_v=[i["attn_v"] for i in pool_info],
        seg_attn_s=[i["attn_s"] for i in pool_info],
        fuse_gates=[i["gate"] for i in pool_info],
        refine=refine,
    )


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
    segments: list[SegmentTrace]
    query: QueryState
    temporal: list[TemporalTrace]

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
    segs = [
        refine_segment(V, S, params, cfg)
        for V, S in zip(graph.visual, graph.text)
    ]
    temporal = [reason_over_segments(segs, q, params, cfg) for q in qs.queries]
    prob, logit = predict_global([t.global_node for t in temporal], params)
    return Trace(
        clip_id=clip.clip_id, prob=prob, logit=logit, graph=graph,
        segments=segs, query=qs, temporal=temporal,
    )
