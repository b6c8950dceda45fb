import math
from dataclasses import dataclass

import numpy as np
import pytest

from vlgraph import tensor as tn
from vlgraph.errors import ContractError
from vlgraph.mi import DISC_WEIGHT, NegativeBuffer, contrastive_loss
from vlgraph.model import TemporalTrace
from vlgraph.tensor import ParamStore, Tensor, grad_check
from vlgraph.train import Adam


# ------------------------------------------- explicit InfoNCE oracle
# One candidate set per pair, spelled out; `contrastive_loss` shares one
# score vector per query and must agree with it.

@dataclass
class NCEPair:
    positive: Tensor                     # (d, 1) temporal node
    context: Tensor                      # (d, 1) global node
    negatives: list[Tensor]              # (d, 1) each; never contains positive

    def __post_init__(self) -> None:
        if len(self.negatives) < 1:
            raise ContractError("an NCE pair needs at least one negative")


@dataclass
class NCEBatch:
    pairs: list[NCEPair]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ContractError("NCE batch is empty")


def logsumexp(a: Tensor) -> Tensor:
    """`tn.logsumexp` down the columns of `a` with no entry masked."""
    return tn.logsumexp(a, np.ones(a.shape, dtype=bool))


def nce_estimate(batch: NCEBatch, params: ParamStore) -> Tensor:
    """Mean over pairs of score(pos, ctx) - LSE over {pos} + negatives.

    The positive sits in the denominator, so a constant discriminator gives
    exactly -log(candidate count) and the estimate never exceeds zero.
    """
    terms = []
    for pair in batch.pairs:
        cands = tn.concat([pair.positive] + pair.negatives, axis=1)
        scores = tn.matmul(cands.T, tn.matmul(params[DISC_WEIGHT], pair.context))
        terms.append(tn.sub(tn.gather(scores.T, [0]), logsumexp(scores)))
    return terms[0] if len(terms) == 1 else tn.concat(terms, axis=0).mean()


def disc_params(rng, d, zero=False):
    ps = ParamStore()
    ps.add("disc.w", np.zeros((d, d)) if zero else rng.standard_normal((d, d)) / d)
    return ps


def random_pair(rng, d, k_neg):
    return NCEPair(
        positive=Tensor(rng.standard_normal((d, 1))),
        context=Tensor(rng.standard_normal((d, 1))),
        negatives=[Tensor(rng.standard_normal((d, 1))) for _ in range(k_neg)],
    )


def trace_of(nodes, global_nodes):
    """The temporal trace of len(global_nodes) queries over the same number of
    segments; `nodes` lists each query's (d, 1) segment nodes, query-major."""
    unread = np.empty((0, 0))                    # contrastive_loss reads nodes and layout only
    return TemporalTrace(
        nodes=tn.concat(nodes, axis=1), global_nodes=tn.concat(global_nodes, axis=1),
        sizes=(len(nodes) // len(global_nodes),) * len(global_nodes),
        pool_weights=unread, attn_v=unread, attn_s=unread, fuse_gates=unread,
    )


def test_constant_discriminator_gives_minus_log_k():
    rng = np.random.default_rng(0)
    for k_neg in (1, 3, 9):
        ps = disc_params(rng, 4, zero=True)
        batch = NCEBatch([random_pair(rng, 4, k_neg)])
        est = nce_estimate(batch, ps).item()
        assert abs(est - (-math.log(k_neg + 1))) <= 1e-9


def test_dominant_positive_score_approaches_zero_from_below():
    ps = ParamStore()
    prev = -np.inf
    for gap in (2.0, 10.0, 20.0, 30.0):
        ps_g = ParamStore()
        ps_g.add("disc.w", np.array([[gap / 2.0]]))
        pair = NCEPair(positive=Tensor([[1.0]]), context=Tensor([[1.0]]),
                       negatives=[Tensor([[-1.0]])])
        est = nce_estimate(NCEBatch([pair]), ps_g).item()
        assert prev < est < 0.0
        prev = est
    assert est > -1e-9


def test_hand_computed_two_candidate_value():
    # scores: positive 2, negative 0 -> 2 - log(e^2 + 1)
    ps = ParamStore()
    ps.add("disc.w", np.array([[1.0]]))
    pair = NCEPair(positive=Tensor([[2.0]]), context=Tensor([[1.0]]),
                   negatives=[Tensor([[0.0]])])
    est = nce_estimate(NCEBatch([pair]), ps).item()
    expected = 2.0 - math.log(math.exp(2.0) + 1.0)
    assert abs(est - expected) <= 1e-12
    assert abs(expected - (-0.126928)) < 1e-6


def test_estimate_never_exceeds_log_candidate_count():
    rng = np.random.default_rng(1)
    for seed in range(50):
        r = np.random.default_rng(seed)
        ps = disc_params(r, 3)
        k_neg = int(r.integers(1, 6))
        est = nce_estimate(NCEBatch([random_pair(r, 3, k_neg)]), ps).item()
        assert est <= math.log(k_neg + 1)
        assert est <= 1e-12  # positive counted in the denominator


def test_empty_batch_rejected():
    with pytest.raises(ContractError):
        NCEBatch([])
    with pytest.raises(ContractError):
        NCEPair(positive=Tensor([[1.0]]), context=Tensor([[1.0]]), negatives=[])


def test_gradcheck_discriminator_and_upstream_nodes():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        d = 3
        ps = ParamStore()
        ps.add("disc.w", rng.standard_normal((d, d)) / d)
        ps.add("t0", rng.standard_normal((d, 1)))
        ps.add("t1", rng.standard_normal((d, 1)))
        ps.add("o0", rng.standard_normal((d, 1)))
        ps.add("o1", rng.standard_normal((d, 1)))

        def loss():
            trace = trace_of([ps["t0"], ps["t1"]], [ps["o0"], ps["o1"]])
            return contrastive_loss(trace, ps, beta=0.7, sizes=(2,)).loss

        assert grad_check(loss, ps).passed(1e-4)


def test_contrastive_zero_beta_short_circuits():
    rng = np.random.default_rng(2)
    ps = disc_params(rng, 3)
    res = contrastive_loss(trace_of([Tensor(rng.standard_normal((3, 1)))],
                                    [Tensor(rng.standard_normal((3, 1)))]), ps, beta=0.0,
                           sizes=(1,))
    assert res.loss.item() == 0.0 and res.n_pairs == 0


def test_single_pair_without_negatives_is_skipped(caplog):
    rng = np.random.default_rng(3)
    ps = disc_params(rng, 3)
    lone = trace_of([Tensor(rng.standard_normal((3, 1)))], [Tensor(rng.standard_normal((3, 1)))])
    with caplog.at_level("INFO", logger="vlgraph.mi"):
        res = contrastive_loss(lone, ps, beta=0.5, sizes=(1,), buffer=NegativeBuffer(8))
    assert res.loss.item() == 0.0 and res.n_skipped == 1
    assert "skipped" in caplog.text


def test_single_pair_falls_back_to_buffer():
    rng = np.random.default_rng(4)
    ps = disc_params(rng, 3)
    buf = NegativeBuffer(8)
    buf.push([rng.standard_normal(3), rng.standard_normal(3)])
    lone = trace_of([Tensor(rng.standard_normal((3, 1)))], [Tensor(rng.standard_normal((3, 1)))])
    res = contrastive_loss(lone, ps, beta=0.5, sizes=(1,), buffer=buf)
    assert res.n_pairs == 1 and res.loss.item() != 0.0


def test_two_by_two_clip_averages_four_pair_terms():
    rng = np.random.default_rng(5)
    ps = disc_params(rng, 3)
    nodes, global_nodes = [], []
    for _ in range(2):
        nodes += [Tensor(rng.standard_normal((3, 1))) for _ in range(2)]
        global_nodes.append(Tensor(rng.standard_normal((3, 1))))
    res = contrastive_loss(trace_of(nodes, global_nodes), ps, beta=0.3, sizes=(2,))
    assert res.n_pairs == 4
    assert abs(res.loss.item() - (-0.3 * np.mean(res.estimates))) <= 1e-12


def test_contrastive_matches_explicit_nce_batch():
    rng = np.random.default_rng(6)
    ps = disc_params(rng, 4)
    for n_q, n_seg, n_buf in ((2, 2, 0), (3, 1, 3), (2, 3, 0)):
        nodes = [Tensor(rng.standard_normal((4, 1))) for _ in range(n_q * n_seg)]
        global_nodes = [Tensor(rng.standard_normal((4, 1))) for _ in range(n_q)]
        buf = NegativeBuffer(8)
        buf.push(list(rng.standard_normal((n_buf, 4))))
        res = contrastive_loss(trace_of(nodes, global_nodes), ps, beta=1.0, sizes=(n_q,),
                               buffer=buf)
        # buffer columns only ever join the negatives, never a positive
        buffered = [Tensor(v) for v in buf.rows.data] if n_buf else []
        pairs = []
        for j, node in enumerate(nodes):
            negs = [Tensor(m.data) for k, m in enumerate(nodes) if k != j] + buffered
            pairs.append(NCEPair(positive=node, context=global_nodes[j // n_seg], negatives=negs))
        assert res.n_pairs == len(pairs) == n_q * n_seg
        per_pair = [nce_estimate(NCEBatch([p]), ps).item() for p in pairs]
        assert np.allclose(res.estimates, per_pair, rtol=0, atol=1e-12)
        explicit = nce_estimate(NCEBatch(pairs), ps).item()
        assert abs(res.loss.item() - (-explicit)) <= 1e-12


def test_negative_buffer_ring_behavior():
    buf = NegativeBuffer(3)
    assert buf.rows is None
    buf.push([np.full(2, i) for i in range(5)])
    mat = buf.rows.data.T
    assert mat.shape == (2, 3)
    assert np.array_equal(mat[0], [2.0, 3.0, 4.0])
    with pytest.raises(ContractError):
        NegativeBuffer(0)


def test_correlated_pairs_beat_shuffled_after_training():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        d, n = 8, 32
        t_vals = rng.standard_normal((d, n))
        o_vals = t_vals + 0.1 * rng.standard_normal((d, n))
        ps = ParamStore()
        ps.add("disc.w", rng.standard_normal((d, d)) / d)
        cands = Tensor(t_vals)

        def mean_estimate(order):
            terms = []
            for k in range(n):
                scores = tn.matmul(cands.T, tn.matmul(ps["disc.w"], tn.gather(Tensor(o_vals), [order[k]])))
                terms.append(tn.sub(tn.gather(scores.T, [k]), logsumexp(scores)))
            return tn.concat(terms, axis=0).mean()

        opt = Adam(ps, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        identity = list(range(n))
        for _ in range(200):
            ps.zero_grad()
            loss = tn.mul(mean_estimate(identity), -1.0)
            tn.backward(loss, ps)
            opt.step()
        corr = mean_estimate(identity).item()
        shuffled = mean_estimate(list(np.random.default_rng(seed + 99).permutation(n))).item()
        assert corr > shuffled, f"seed {seed}: {corr} <= {shuffled}"
