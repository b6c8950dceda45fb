import gc
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlgraph import tensor as tn
from vlgraph.errors import ContractError, DegenerateInputError, NumericalError, ShapeError
from vlgraph.tensor import ParamStore, Tensor, backward, grad_check
from vlgraph.train import Adam


def make_params(rng, **shapes):
    ps = ParamStore()
    for name, shape in shapes.items():
        ps.add(name, rng.standard_normal(shape))
    return ps


def check(f, ps, tol=1e-4):
    rep = grad_check(f, ps)
    assert rep.passed(tol), repr(rep)
    return rep


# ------------------------------------------- oracle ops on the tape's hooks
# The package does not need these ops; they are kept here as oracles for the
# tape itself: each is a closed-form op with a known gradient, recorded
# through the same `_make`/`_acc` hooks as the package's own ops.

def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        y = np.exp(a.data)
    if not np.all(np.isfinite(y)):
        raise NumericalError("exp overflowed; rescale the input")

    def bw(out: Tensor) -> None:
        tn._acc(a, out.grad * y)

    return tn._make(y, (a,), bw)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise NumericalError("log of a non-positive value")
    y = np.log(a.data)

    def bw(out: Tensor) -> None:
        tn._acc(a, out.grad / a.data)

    return tn._make(y, (a,), bw)


def cosine_distance(u: Tensor, v: Tensor) -> Tensor:
    """1 - cos(u, v) for two column vectors, in [0, 2]."""
    if u.shape != v.shape or u.shape[1] != 1:
        raise ShapeError(f"cosine_distance: needs matching column vectors, got {u.shape} and {v.shape}")
    nu = float(np.linalg.norm(u.data))
    nv = float(np.linalg.norm(v.data))
    if nu <= 1e-12 or nv <= 1e-12:
        raise DegenerateInputError("cosine_distance: zero-norm input")
    uh = u.data / nu
    vh = v.data / nv
    c = float((uh * vh).sum())
    val = min(max(1.0 - c, 0.0), 2.0)

    def bw(out: Tensor) -> None:
        g = float(out.grad.reshape(-1)[0])
        tn._acc(u, -g * (vh - c * uh) / nu)
        tn._acc(v, -g * (uh - c * vh) / nv)

    return tn._make(np.array([[val]]), (u, v), bw)


# ---------------------------------------------------------------- matmul

def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = tn.matmul(eye, m)
    assert np.array_equal(out.data, m.data)


def test_matmul_unit_vectors():
    out = tn.matmul(Tensor([[1.0, 0.0]]), Tensor([[1.0], [0.0]]))
    assert out.data.shape == (1, 1) and out.item() == 1.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        tn.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_gradcheck_vs_finite_differences():
    rng = np.random.default_rng(0)
    ps = make_params(rng, a=(3, 4), b=(4, 2))
    rep = check(lambda: tn.matmul(ps["a"], ps["b"]).sum(), ps, tol=1e-6)
    assert rep.n_checked == 20


# ---------------------------------------------------------------- softmax

def softmax(a: Tensor) -> Tensor:
    """`tn.masked_softmax` down the columns of `a` with no entry masked."""
    return tn.masked_softmax(a, np.ones(a.shape, dtype=bool))


def test_softmax_uniform_logits():
    out = softmax(Tensor([0.0, 0.0]))
    assert np.allclose(out.data.ravel(), [0.5, 0.5])


def test_softmax_shift_invariance_no_overflow():
    out = softmax(Tensor([1000.0, 1000.0]))
    assert np.allclose(out.data.ravel(), [0.5, 0.5])
    assert np.all(np.isfinite(out.data))


def test_softmax_hand_value():
    out = softmax(Tensor([0.0, math.log(3.0)]))
    assert np.allclose(out.data.ravel(), [0.25, 0.75], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_outputs_are_probabilities(xs):
    out = softmax(Tensor(xs))
    assert np.all(out.data > 0)
    assert abs(out.data.sum() - 1.0) <= 1e-12


def logsumexp(a: Tensor) -> Tensor:
    """`tn.logsumexp` down the columns of `a` with no entry masked."""
    return tn.logsumexp(a, np.ones(a.shape, dtype=bool))


def softmax_of_masked_sum(a: Tensor, keep: np.ndarray) -> Tensor:
    """Oracle for `tn.masked_softmax`: a constant mask of 0 and -inf added on
    the tape, then a stable softmax down each column of the sum."""
    s = tn.add(a, Tensor(np.where(keep, 0.0, -np.inf)))
    shifted = s.data - s.data.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=0, keepdims=True)

    def bw(out: Tensor) -> None:
        g = out.grad
        dot = (g * y).sum(axis=0, keepdims=True)
        tn._acc(s, y * (g - dot))

    return tn._make(y, (s,), bw)


def block_mask(rng, n_blocks: int, n_keys: int) -> np.ndarray:
    """Node-block equals key-block, for random block sizes of 1-4 nodes (at
    least one single-node block) and keys drawn from the blocks."""
    sizes = rng.integers(1, 5, size=n_blocks)
    sizes[rng.integers(n_blocks)] = 1
    x_ids = np.repeat(np.arange(n_blocks), sizes)
    key_ids = rng.integers(n_blocks, size=n_keys)
    return x_ids[:, None] == key_ids[None, :]


@pytest.mark.parametrize("seed", range(20))
def test_masked_softmax_is_bitwise_the_softmax_of_the_masked_sum(seed):
    rng = np.random.default_rng(seed)
    keep = block_mask(rng, int(rng.integers(1, 6)), int(rng.integers(1, 8)))
    ps = make_params(rng, a=keep.shape)
    ps["a"].data *= 10.0
    w = Tensor(rng.standard_normal(keep.shape))
    results = []
    for op in (tn.masked_softmax, softmax_of_masked_sum):
        out = op(ps["a"], keep)
        grads = backward(tn.mul(out, w).sum(), ps)
        results.append((out.data, grads["a"].copy()))
        ps.zero_grad()
    (got, got_grad), (want, want_grad) = results
    assert np.array_equal(got, want) and np.array_equal(got_grad, want_grad)
    assert np.all(got[~keep] == 0.0) and np.all(got_grad[~keep] == 0.0)
    assert np.allclose(got.sum(axis=0), 1.0, rtol=0, atol=1e-12)


def test_masked_softmax_rejects_a_mask_of_another_shape():
    with pytest.raises(ShapeError):
        tn.masked_softmax(Tensor(np.zeros((3, 2))), np.ones((2, 3), dtype=bool))


def logsumexp_of_masked_sum(a: Tensor, keep: np.ndarray) -> Tensor:
    """Oracle for `tn.logsumexp`: a constant mask of 0 and -inf added on the
    tape, then a max-shifted log-sum-exp down each column of the sum."""
    s = tn.add(a, Tensor(np.where(keep, 0.0, -np.inf)))
    m = s.data.max(axis=0, keepdims=True)
    e = np.exp(s.data - m)
    total = e.sum(axis=0, keepdims=True)
    w = e / total

    def bw(out: Tensor) -> None:
        tn._acc(s, out.grad * w)

    return tn._make(m + np.log(total), (s,), bw)


@pytest.mark.parametrize("seed", range(20))
def test_masked_logsumexp_is_bitwise_the_logsumexp_of_the_masked_sum(seed):
    rng = np.random.default_rng(seed)
    keep = block_mask(rng, int(rng.integers(1, 6)), int(rng.integers(1, 8)))
    ps = make_params(rng, a=keep.shape)
    ps["a"].data *= 10.0
    w = Tensor(rng.standard_normal((1, keep.shape[1])))
    results = []
    for op in (tn.logsumexp, logsumexp_of_masked_sum):
        out = op(ps["a"], keep)
        grads = backward(tn.mul(out, w).sum(), ps)
        results.append((out.data, grads["a"].copy()))
        ps.zero_grad()
    (got, got_grad), (want, want_grad) = results
    assert np.array_equal(got, want) and np.array_equal(got_grad, want_grad)
    assert np.all(got_grad[~keep] == 0.0)


def test_logsumexp_rejects_a_mask_of_another_shape():
    with pytest.raises(ShapeError):
        tn.logsumexp(Tensor(np.zeros((3, 2))), np.ones((2, 3), dtype=bool))


# ---------------------------------------------------------------- sigmoid

def masked_sigmoid(x):
    """The two-branch sigmoid by boolean-mask gathers: the oracle for
    `tn._sigmoid`, which takes the same branches without gathering."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def test_sigmoid_is_bitwise_the_masked_reference():
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, 745.2, -745.2,
                        tiny, -tiny, 1e-310, -1e-310, np.nan])
    draws = np.random.default_rng(31).uniform(-800.0, 800.0, size=(512, 12))
    for x in (special.reshape(-1, 1), draws, draws / 100.0):
        assert np.array_equal(tn._sigmoid(x), masked_sigmoid(x), equal_nan=True)


def test_sigmoid_values():
    assert tn.sigmoid(Tensor([0.0])).item() == 0.5
    assert abs(tn.sigmoid(Tensor([1.0])).item() - 0.7310586) < 1e-7
    v = tn.sigmoid(Tensor([-800.0])).item()
    assert 0.0 < v < 1e-100


@settings(max_examples=60, deadline=None)
@given(st.floats(-1e6, 1e6))
def test_sigmoid_strictly_inside_unit_interval(x):
    v = tn.sigmoid(Tensor([x])).item()
    assert 0.0 < v < 1.0


# ---------------------------------------------------------------- elementwise suite

def test_mean_axis0():
    out = Tensor([[1.0, 3.0], [5.0, 7.0]]).mean(axis=0)
    assert np.allclose(out.data.ravel(), [3.0, 5.0])


def test_sum_and_mean_full_reduce():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.sum().item() == 10.0
    assert t.mean().item() == 2.5


def test_elementwise_shape_mismatch():
    with pytest.raises(ShapeError):
        tn.add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


def test_sub_and_mul_keep_the_float_forms_the_model_uses():
    # a float less a tensor (the gates' 1 - g) and a tensor times a float
    t = Tensor([[1.0, 2.0]])
    assert tn.sub(1.0, t).data.tolist() == [[0.0, -1.0]]
    assert tn.mul(t, 2.0).data.tolist() == [[2.0, 4.0]]


def test_cosine_distance_self_is_zero():
    u = Tensor(np.random.default_rng(1).standard_normal((5, 1)))
    assert abs(cosine_distance(u, u).item()) <= 1e-12


def test_cosine_distance_orthogonal():
    d = cosine_distance(Tensor([1.0, 0.0]), Tensor([0.0, 1.0]))
    assert abs(d.item() - 1.0) <= 1e-12


def test_cosine_distance_zero_norm_rejected():
    with pytest.raises(DegenerateInputError):
        cosine_distance(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))


def test_cosine_distance_range():
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = Tensor(rng.standard_normal((4, 1)))
        v = Tensor(rng.standard_normal((4, 1)))
        assert 0.0 <= cosine_distance(u, v).item() <= 2.0


# ---------------------------------------------------------------- backward

def test_backward_sum_gives_ones():
    ps = make_params(np.random.default_rng(2), p=(3, 2))
    grads = backward(ps["p"].sum(), ps)
    assert np.array_equal(grads["p"], np.ones((3, 2)))


def test_backward_quadratic_gives_p():
    ps = make_params(np.random.default_rng(3), p=(4, 1))
    loss = tn.mul(tn.matmul(ps["p"].T, ps["p"]), 0.5)
    grads = backward(loss, ps)
    assert np.allclose(grads["p"], ps["p"].data, atol=1e-12)


def test_backward_requires_scalar():
    ps = make_params(np.random.default_rng(4), p=(2, 2))
    with pytest.raises(ContractError):
        backward(tn.mul(ps["p"], 2.0), ps)


def test_backward_unreachable_param_gets_zero_grad():
    ps = make_params(np.random.default_rng(5), used=(2, 1), unused=(3, 1))
    grads = backward(ps["used"].sum(), ps)
    assert np.array_equal(grads["unused"], np.zeros((3, 1)))


def test_parameter_gradient_mixes_direct_and_factored_parts():
    # w is the left operand of two matmuls (factors) and enters a Hadamard
    # product (direct .grad); v is a right operand, so its gradient is direct
    x = np.random.default_rng(30).standard_normal((4, 2))
    c = np.random.default_rng(31).standard_normal((3, 2))

    def fresh():
        return make_params(np.random.default_rng(32), v=(4, 2), w=(3, 4))

    def f(ps):
        w = ps["w"]
        y = tn.add(tn.matmul(w, Tensor(x)), tn.matmul(w, ps["v"]))
        return tn.add(tn.mul(y, Tensor(c)).sum(), tn.mul(w, w).sum())

    ps = fresh()
    backward(f(ps))
    w, v = ps["w"], ps["v"]
    assert len(w.factors) == 2 and w.grad is not None and not v.factors
    want = c @ x.T + c @ v.data.T + 2.0 * w.data
    assert np.allclose(w.form_grad(np.empty((3, 4))), want, rtol=1e-13, atol=0)
    check(lambda: f(ps), ps)
    # Adam updates v before w (name order) and still forms w's gradient from
    # v as the tape saw it: the same step as on gradients formed at backward
    deferred, formed = fresh(), fresh()
    backward(f(deferred))
    backward(f(formed), formed)
    for store in (deferred, formed):
        Adam(store, 1e-2, 0.9, 0.999, 1e-8).step()
    for name, p in deferred.items():
        assert np.array_equal(p.data, formed[name].data), name


@pytest.mark.parametrize("shape", [(512, 1536), (512, 1024), (512, 512)])
@pytest.mark.parametrize("cols", [1, 2, 12])
def test_weight_input_gradient_matches_the_plain_product(shape, cols):
    # the right operand's gradient of W X is W^T G, W a parameter or a plain tensor
    rng = np.random.default_rng(cols)
    ps = make_params(rng, w=shape)
    g = rng.standard_normal((shape[0], cols))
    for w in (ps["w"], Tensor(ps["w"].data)):
        x = Tensor(rng.standard_normal((shape[1], cols)), requires_grad=True)
        backward(tn.mul(tn.matmul(w, x), Tensor(g)).sum())
        want = ps["w"].data.T @ g
        assert np.linalg.norm(x.grad - want) <= 1e-12 * np.linalg.norm(want)


WEIGHT = np.random.default_rng(40).standard_normal((512, 1536))


@pytest.mark.parametrize("left, cols", [
    (WEIGHT, 1), (WEIGHT, 4), (WEIGHT, 12), (WEIGHT, 32), (WEIGHT, 33),
    (WEIGHT[:, :512].copy(), 4),
    (WEIGHT[:333], 12),                     # 333 rows: the last block is short
    (WEIGHT[:, 512:1024], 12),              # a gate weight's column block, as a view
])
def test_product_matches_the_plain_product_on_both_sides_of_the_bound(left, cols):
    right = np.random.default_rng(cols).standard_normal((left.shape[1], cols))
    m, k = left.shape
    want = left @ right
    got = tn._product(left, right)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    if cols <= 32 and cols < m and m * cols * k > 1e6:
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    else:
        assert np.array_equal(got, want)


def stacked_reference(w, guide_a, nodes, guide_b, guide_ids, node_ids=None):
    """W times the stack itself: the gate input the split replaces."""
    middle = nodes if node_ids is None else tn.gather(nodes, node_ids)
    stack = [tn.gather(guide_a, guide_ids), middle, tn.gather(guide_b, guide_ids)]
    return tn.matmul(w, tn.concat(stack, axis=0))


# message-pass layout [g_x; X; g_y] over blocks of 2, 1 and 3 nodes, and the
# pool layout [g_v; Q; g_s] over (query, segment) pairs
GATE_IDS = np.array([0, 0, 1, 2, 2, 2])
PAIR_QUERY = np.array([0, 0, 0, 1, 1, 1])
PAIR_SEG = np.array([0, 1, 2, 0, 1, 2])
GATES = {
    "pass": (lambda ps: (ps["g"], ps["x"], ps["h"], GATE_IDS),
             {"w": (4, 9), "g": (3, 3), "x": (3, 6), "h": (3, 3)}),
    "pool": (lambda ps: (ps["g"], ps["x"], ps["h"], PAIR_SEG, PAIR_QUERY),
             {"w": (4, 9), "g": (3, 3), "x": (3, 2), "h": (3, 3)}),
}


def gate_loss(layout, ps):
    return tn.mul(tn.stacked_matmul(ps["w"], *GATES[layout][0](ps)), ps["c"]).sum()


@pytest.mark.parametrize("layout", sorted(GATES))
def test_stacked_matmul_matches_the_product_of_the_stack(layout):
    parts_of, shapes = GATES[layout]
    ps = make_params(np.random.default_rng(41), **shapes)
    c = Tensor(np.random.default_rng(42).standard_normal((4, 6)))
    grads = {}
    for name, op in (("split", tn.stacked_matmul), ("stack", stacked_reference)):
        ps.zero_grad()
        out = op(ps["w"], *parts_of(ps))
        grads[name] = {n: g.copy() for n, g in backward(tn.mul(out, c).sum(), ps).items()}
        grads[name]["out"] = out.data
    assert len(grads["split"]) == len(shapes) + 1
    for n, want in grads["stack"].items():
        assert np.abs(grads["split"][n] - want).max() <= 1e-13 * np.abs(want).max(), n


def test_stacked_matmul_rejects_parts_that_do_not_stack():
    w = tn.Parameter(np.ones((2, 5)))
    x, g = Tensor(np.ones((3, 4))), Tensor(np.ones((1, 2)))
    for args in ((g, x, Tensor(np.ones((2, 2))), [0, 0, 1, 1]),   # 6 rows against 5 columns
                 (g, x, Tensor(np.ones((1, 3))), [0, 0, 1, 1]),   # guidance of 2 and 3 columns
                 (g, x, g, [0, 1, 1]),                            # 3 columns against 4
                 (g, x, g, [0, 2, 1, 1]),                         # column 2 of a 2-column part
                 (g, x, g, [0, 0, 1], [0, 3, 4]),                 # column 4 of a 4-column part
                 (g, x, g, [0, 0, 1], [0, 3])):                   # 3 columns against 2
        with pytest.raises(ShapeError):
            tn.stacked_matmul(w, *args)


def test_stacked_matmul_rejects_a_weight_that_is_not_a_parameter():
    x, g = Tensor(np.ones((3, 4))), Tensor(np.ones((1, 2)))
    with pytest.raises(ContractError, match="must be a Parameter, got Tensor"):
        tn.stacked_matmul(Tensor(np.ones((2, 5)), requires_grad=True), g, x, g, [0, 0, 1, 1])


def test_parameter_forms_whole_and_column_block_factors_with_its_direct_gradient():
    # w meets a plain matmul (whole weight), a stacked product (three column
    # blocks) and a Hadamard product (direct .grad)
    rng = np.random.default_rng(44)
    ps = make_params(rng, w=(4, 9))
    x = rng.standard_normal((9, 5))
    g, y, h = (rng.standard_normal(shape) for shape in ((3, 3), (3, 6), (3, 3)))
    c1, c2 = rng.standard_normal((4, 5)), rng.standard_normal((4, 6))
    w = ps["w"]
    loss = tn.add(tn.add(tn.mul(tn.matmul(w, Tensor(x)), Tensor(c1)).sum(),
                         tn.mul(tn.stacked_matmul(w, Tensor(g), Tensor(y), Tensor(h), GATE_IDS),
                                Tensor(c2)).sum()),
                  tn.mul(w, w).sum())
    backward(loss)
    assert sorted(len(entry) for entry in w.factors) == [1, 3]      # one entry per product
    stack = np.concatenate([g[:, GATE_IDS], y, h[:, GATE_IDS]])
    want = c1 @ x.T + c2 @ stack.T + 2.0 * w.data
    got = w.form_grad(np.full((4, 9), np.nan))       # every entry must be written
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_param_store_copies_what_it_is_given_and_adopts_its_own_draws():
    given = np.ones((2, 3))
    ps = ParamStore()
    ps.add("given", given)
    given[0, 0] = 5.0
    assert ps["given"].data[0, 0] == 1.0 and not np.shares_memory(ps["given"].data, given)

    class Draws:
        """A generator that keeps what it hands out."""

        def __init__(self):
            self.rng, self.made = np.random.default_rng(3), []

        def uniform(self, low, high, size):
            self.made.append(self.rng.uniform(low, high, size=size))
            return self.made[-1]

    draws = Draws()
    ps.add_linear("lin", 4, 2, draws)
    assert ps["lin.w"].data is draws.made[0] and ps["lin.b"].data is draws.made[1]
    # the same values as drawing straight from the generator
    rng = np.random.default_rng(3)
    bound = 1.0 / math.sqrt(2)
    assert np.array_equal(ps["lin.w"].data, rng.uniform(-bound, bound, size=(4, 2)))
    assert np.array_equal(ps["lin.b"].data, rng.uniform(-bound, bound, size=(4, 1)))


def test_backward_keeps_leaf_gradients_and_drops_op_results():
    ps = make_params(np.random.default_rng(8), a=(3, 2))
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = tn.matmul(ps["a"], x)
    backward(tn.tanh(y).sum(), ps)
    assert x.grad is not None and ps["a"].grad is not None and y.grad is None


def test_backward_accumulates_until_zero_grad():
    ps = make_params(np.random.default_rng(6), p=(2, 2))
    backward(ps["p"].sum(), ps)
    backward(ps["p"].sum(), ps)
    assert np.array_equal(ps["p"].grad, 2.0 * np.ones((2, 2)))
    ps.zero_grad()
    assert ps["p"].grad is None


def test_grad_check_zero_function_agrees_exactly():
    ps = make_params(np.random.default_rng(7), p=(2, 2))
    rep = grad_check(lambda: tn.mul(ps["p"], 0.0).sum(), ps)
    assert rep.max_abs_err == 0.0 and rep.max_rel_err == 0.0


# ------------------------------------------------- per-op gradient oracle

# node blocks of 2, 1 and 3 nodes; keys in blocks 0, 2, 1, 0 and 2
BLOCKS = np.repeat(np.arange(3), (2, 1, 3))[:, None] == np.array([[0, 2, 1, 0, 2]])

OPS = {
    "add": (lambda ps: tn.add(ps["a"], ps["b"]).sum(), {"a": (3, 2), "b": (3, 2)}),
    "sub": (lambda ps: tn.sub(ps["a"], ps["b"]).sum(), {"a": (3, 2), "b": (3, 2)}),
    "mul": (lambda ps: tn.mul(ps["a"], ps["b"]).sum(), {"a": (3, 2), "b": (3, 2)}),
    "scale": (lambda ps: tn.mul(ps["a"], -1.7).sum(), {"a": (3, 2)}),
    "matmul": (lambda ps: tn.matmul(ps["a"], ps["b"]).sum(), {"a": (2, 3), "b": (3, 2)}),
    "transpose": (lambda ps: tn.matmul(ps["a"].T, ps["a"]).sum(), {"a": (3, 2)}),
    "concat0": (lambda ps: tn.concat([ps["a"], ps["b"]], axis=0).mean(), {"a": (2, 2), "b": (3, 2)}),
    "concat1": (lambda ps: tn.concat([ps["a"], ps["b"]], axis=1).mean(), {"a": (2, 2), "b": (2, 3)}),
    "col": (lambda ps: tn.gather(ps["a"], [1]).sum(), {"a": (3, 3)}),
    "add_col": (lambda ps: tn.add_col(ps["a"], ps["b"]).sum(), {"a": (3, 4), "b": (3, 1)}),
    "col_range": (lambda ps: tn.mul(tn.gather(ps["a"], [1, 2]), ps["w"]).sum(),
                  {"a": (3, 4), "w": (3, 2)}),
    "block_mean": (lambda ps: tn.mul(tn.block_mean(ps["a"], (2, 1, 3)), ps["w"]).sum(),
                   {"a": (3, 6), "w": (3, 3)}),
    "block_expand": (lambda ps: tn.mul(tn.gather(ps["a"], [0, 0, 1, 2, 2, 2]), ps["w"]).sum(),
                     {"a": (3, 3), "w": (3, 6)}),
    "gather": (lambda ps: tn.mul(tn.gather(ps["a"], [2, 0, 2, 1, 0, 2]), ps["w"]).sum(),
               {"a": (3, 4), "w": (3, 6)}),
    # every weight coordinate, so both sides of each column-block boundary
    "stacked_matmul_pass": (lambda ps: gate_loss("pass", ps), {**GATES["pass"][1], "c": (4, 6)}),
    "stacked_matmul_pool": (lambda ps: gate_loss("pool", ps), {**GATES["pool"][1], "c": (4, 6)}),
    "sum_ax0": (lambda ps: tn.mul(ps["a"].sum(axis=0), ps["w"]).sum(), {"a": (3, 2), "w": (1, 2)}),
    "mean_ax1": (lambda ps: tn.mul(ps["a"].mean(axis=1), ps["w"]).sum(), {"a": (3, 2), "w": (3, 1)}),
    "softmax": (lambda ps: tn.mul(softmax(ps["a"].T).T, ps["w"]).sum(), {"a": (3, 4), "w": (3, 4)}),
    "masked_softmax": (lambda ps: tn.mul(tn.masked_softmax(ps["a"], BLOCKS), ps["w"]).sum(),
                       {"a": BLOCKS.shape, "w": BLOCKS.shape}),
    "sigmoid": (lambda ps: tn.mul(tn.sigmoid(ps["a"]), ps["w"]).sum(), {"a": (3, 2), "w": (3, 2)}),
    "softplus": (lambda ps: tn.mul(tn.softplus(ps["a"]), ps["w"]).sum(), {"a": (3, 2), "w": (3, 2)}),
    "tanh": (lambda ps: tn.mul(tn.tanh(ps["a"]), ps["w"]).sum(), {"a": (3, 2), "w": (3, 2)}),
    "exp": (lambda ps: exp(ps["a"]).sum(), {"a": (2, 2)}),
    "logsumexp": (lambda ps: logsumexp(ps["a"]), {"a": (4, 1)}),
    "logsumexp_cols": (lambda ps: tn.mul(logsumexp(ps["a"]), ps["w"]).sum(),
                       {"a": (4, 3), "w": (1, 3)}),
    "cosine_distance": (lambda ps: cosine_distance(ps["a"], ps["b"]), {"a": (4, 1), "b": (4, 1)}),
    "cosine_cost": (lambda ps: tn.mul(tn.cosine_cost(ps["a"], ps["b"]), ps["w"]).sum(),
                    {"a": (3, 2), "b": (3, 4), "w": (2, 4)}),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradients_match_finite_differences_100_seeds(name):
    fn, shapes = OPS[name]
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ps = make_params(rng, **shapes)
        rep = grad_check(lambda: fn(ps), ps)
        worst = max(worst, rep.max_rel_err)
        assert rep.passed(1e-4), f"{name} seed {seed}: {rep!r}"
    assert worst <= 1e-4


def test_log_gradcheck_positive_domain():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ps = ParamStore()
        ps.add("a", rng.uniform(0.2, 3.0, size=(3, 2)))
        assert grad_check(lambda: log(ps["a"]).sum(), ps).passed(1e-4)


def one_segment(a, b):
    """The structure of costs a and b as one segment."""
    return tn.SortedStructure(a, b, (a.shape[0],), (b.shape[0],))


def test_gw_pair_cost_gradcheck():
    # kinks sit where intra costs tie; keep entries well separated
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ps = ParamStore()
        ps.add("ca", rng.permutation(np.linspace(0.05, 0.9, 9)).reshape(3, 3))
        ps.add("cb", rng.permutation(np.linspace(1.0, 1.9, 4)).reshape(2, 2))
        plan = rng.uniform(0.1, 1.0, size=(3, 2))
        plan /= plan.sum()

        def cost():
            return tn.gw_pair_cost(ps["ca"], ps["cb"], plan,
                                   one_segment(ps["ca"].data, ps["cb"].data))

        assert grad_check(cost, ps).passed(1e-4)


# ------------------------------------------- structure term, dense oracle
# The (n, m, n, m) formulas that `SortedStructure` replaces, kept as the
# reference: L_ij = sum_kl |A_ik - B_jl| T_kl, the value sum_ij T_ij L_ij,
# and the gradients of sum_ijkl T_ij T_kl |A_ik - B_jl| in A and in B.

def dense_structure(a, b, plan):
    diff = a[:, None, :, None] - b[None, :, None, :]
    lin = np.einsum("ijkl,kl->ij", np.abs(diff), plan)
    value = float(np.einsum("ijkl,ij,kl->", np.abs(diff), plan, plan))
    sgn = np.sign(diff)
    return (lin, value, np.einsum("ijkl,ij,kl->ik", sgn, plan, plan),
            -np.einsum("ijkl,ij,kl->jl", sgn, plan, plan))


def structure_case(kind, seed):
    rng = np.random.default_rng([seed, len(kind)])
    n, m = (int(x) for x in rng.integers(1, 9, size=2))
    if kind == "thin":
        n, m = (1, m) if seed % 2 else (n, 1)
    if kind == "zeros":
        a, b = np.zeros((n, n)), np.zeros((m, m))
    elif kind == "ties":
        # four levels shared by both matrices: most entries tie with some other
        a, b = rng.integers(0, 4, size=(n, n)) / 2.0, rng.integers(0, 4, size=(m, m)) / 2.0
    else:
        a, b = rng.uniform(0.0, 2.0, size=(n, n)), rng.uniform(0.0, 2.0, size=(m, m))
    plan = rng.uniform(0.0, 1.0, size=(n, m))
    return a, b, plan / plan.sum()


def assert_close(got, ref, what):
    # relative to the largest reference entry; an all-zero reference needs exact zeros
    err = float(np.abs(np.asarray(got) - np.asarray(ref)).max())
    assert err <= 1e-12 * float(np.abs(ref).max()), f"{what}: max error {err:.3g}"


@pytest.mark.parametrize("kind", ["random", "ties", "zeros", "thin"])
def test_sorted_structure_matches_dense_oracle(kind):
    for seed in range(100):
        a, b, plan = structure_case(kind, seed)
        lin, value, grad_a, grad_b = dense_structure(a, b, plan)
        st = one_segment(a, b)
        assert_close(st.linearize(plan), lin, f"{kind} {seed} L")
        got_a, got_b = st.gradients(plan)
        assert_close(got_a, grad_a, f"{kind} {seed} d/dA")
        assert_close(got_b, grad_b, f"{kind} {seed} d/dB")
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        out = tn.gw_pair_cost(ta, tb, plan, one_segment(ta.data, tb.data))
        assert_close(out.item(), value, f"{kind} {seed} value")
        out.grad = np.ones((1, 1))
        out._backward(out)
        assert_close(ta.grad, grad_a, f"{kind} {seed} tape d/dA")
        assert_close(tb.grad, grad_b, f"{kind} {seed} tape d/dB")


def test_sorted_structure_linearizes_each_new_plan():
    a, b, plan = structure_case("random", 3)
    st = one_segment(a, b)
    first = st.linearize(plan).copy()
    other = np.roll(plan, 1, axis=1)
    assert_close(st.linearize(other), dense_structure(a, b, other)[0], "second plan")
    assert np.array_equal(st.linearize(plan), first)


def test_gw_pair_cost_rejects_a_structure_of_other_arrays():
    a, b, plan = structure_case("random", 5)
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    # equal values are not enough: the structure must hold the costs' own arrays
    others = (one_segment(a[::-1, ::-1].copy(), b), one_segment(a, b[::-1].copy()),
              one_segment(ta.data.copy(), tb.data))
    for stale in others:
        with pytest.raises(ContractError, match="structure was built from other arrays"):
            tn.gw_pair_cost(ta, tb, plan, stale)
    with pytest.raises(ShapeError, match="does not fit costs"):
        tn.gw_pair_cost(ta, tb, plan.T, one_segment(ta.data, tb.data))


def test_log_rejects_nonpositive():
    with pytest.raises(NumericalError):
        log(Tensor([0.0]))


def test_exp_overflow_raises():
    with pytest.raises(NumericalError):
        exp(Tensor([1000.0]))


def test_block_mean_and_expand_hand_values():
    a = Tensor([[1.0, 3.0, 5.0, 2.0, 4.0, 6.0]])
    assert np.array_equal(tn.block_mean(a, (2, 1, 3)).data, [[2.0, 5.0, 4.0]])
    g = Tensor([[1.0, 2.0, 3.0]])
    assert np.array_equal(tn.gather(g, [0, 0, 1, 2, 2, 2]).data, [[1.0, 1.0, 2.0, 3.0, 3.0, 3.0]])
    assert np.array_equal(tn.gather(a, [1, 2, 3]).data, [[3.0, 5.0, 2.0]])
    assert tn.gather(g, [0, 1, 2]) is g
    with pytest.raises(ShapeError):
        tn.block_mean(a, (2, 2))
    with pytest.raises(ShapeError):
        tn.gather(g, [0, 3])


# ---------------------------------------------------------------- misc

def test_tape_is_freed_without_the_cycle_collector():
    ps = make_params(np.random.default_rng(14), a=(3, 4), b=(4, 2))
    gc.collect()
    gc.disable()
    try:
        loss = softmax(tn.gather(tn.matmul(ps["a"], ps["b"]), [0, 0, 1, 1, 1])).sum()
        backward(loss, ps)
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_ops_are_deterministic():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6))
    r1 = tn.matmul(softmax(Tensor(a).T).T, tn.sigmoid(Tensor(b))).data
    r2 = tn.matmul(softmax(Tensor(a).T).T, tn.sigmoid(Tensor(b))).data
    assert np.array_equal(r1, r2)


def test_no_grad_blocks_taping():
    ps = make_params(np.random.default_rng(12), p=(2, 2))
    with tn.no_grad():
        out = tn.mul(ps["p"], 3.0).sum()
    assert not out.requires_grad
    grads = backward(out, ps)
    assert np.array_equal(grads["p"], np.zeros((2, 2)))


def test_param_store_rejects_duplicates_and_sorts():
    ps = ParamStore()
    ps.add("b", np.zeros((1, 1)))
    ps.add("a", np.zeros((1, 1)))
    assert ps.names() == ["a", "b"]
    with pytest.raises(ContractError):
        ps.add("a", np.zeros((1, 1)))


def test_logsumexp_matches_reference():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((5, 1)) * 30
    got = logsumexp(Tensor(x)).item()
    ref = np.log(np.exp(x - x.max()).sum()) + x.max()
    assert abs(got - ref) < 1e-12
    cols = rng.standard_normal((5, 3)) * 30
    got = logsumexp(Tensor(cols)).data
    assert got.shape == (1, 3)
    for j in range(3):
        ref = np.log(np.exp(cols[:, j] - cols[:, j].max()).sum()) + cols[:, j].max()
        assert abs(got[0, j] - ref) < 1e-12


def _zeros(*shape: int) -> Tensor:
    return Tensor(np.zeros(shape))


# (call, error type, message fragment) of each input guard of `tensor`
GUARDS = {
    "item-of-a-matrix": (lambda: _zeros(2, 2).item(),
                         ContractError, "item() needs a scalar tensor"),
    "add-tensor-plus-float": (lambda: tn.add(_zeros(1, 2), 1.0),
                              ContractError, "add: each operand must be a Tensor"),
    "add-float-plus-tensor": (lambda: tn.add(1.0, _zeros(1, 2)),
                              ContractError, "add: each operand must be a Tensor"),
    "sub-tensor-minus-float": (lambda: tn.sub(_zeros(1, 2), 1.0),
                               ContractError, "sub: the right operand must be a Tensor"),
    "mul-of-two-floats": (lambda: tn.mul(2.0, 3.0),
                          ContractError, "mul: the left operand must be a Tensor"),
    "matmul-of-a-3d-operand": (lambda: tn.matmul(_zeros(2, 2, 2), _zeros(2, 2)),
                               ShapeError, "operands must be 2-D"),
    "transpose-of-a-3d-tensor": (lambda: tn.transpose(_zeros(2, 2, 2)),
                                 ShapeError, "needs a 2-D tensor"),
    "concat-of-no-parts": (lambda: tn.concat([], axis=0), ContractError, "empty part list"),
    "gather-negative-index": (lambda: tn.gather(_zeros(2, 3), [0, -1]),
                              ShapeError, "columns [0, -1] do not index (2, 3)"),
    "add-col-row-mismatch": (lambda: tn.add_col(_zeros(3, 2), _zeros(2, 1)),
                             ShapeError, "add_col: got (3, 2) and (2, 1)"),
    "cosine-cost-row-mismatch": (lambda: tn.cosine_cost(Tensor(np.ones((3, 2))),
                                                        Tensor(np.ones((2, 2)))),
                                 ShapeError, "cosine_cost: got (3, 2) and (2, 2)"),
    "cosine-cost-zero-column": (lambda: tn.cosine_cost(Tensor([[1.0, 0.0], [1.0, 0.0]]),
                                                       Tensor(np.ones((2, 2)))),
                                DegenerateInputError, "zero-norm column"),
    "structure-not-square": (lambda: tn.SortedStructure(np.zeros((2, 3)), np.zeros((2, 2)),
                                                        (2,), (2,)),
                             ShapeError, "costs must be square"),
    "structure-blocks-do-not-tile": (lambda: tn.SortedStructure(np.zeros((3, 3)), np.zeros((2, 2)),
                                                                (2,), (2,)),
                                     ShapeError, "blocks (2,) and (2,) do not tile"),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_tensor_guards_raise_package_errors(case):
    call, error, fragment = GUARDS[case]
    with pytest.raises(error, match=re.escape(fragment)):
        call()
