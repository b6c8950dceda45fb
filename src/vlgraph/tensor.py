"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value is a 2-D (occasionally higher-D) row-major float64 array. There
is no implicit broadcasting: elementwise ops require identical shapes, and
the only mixed form allowed is tensor-with-python-scalar. Column-broadcast
patterns are spelled out as named ops (`add_col`, `gather`).

Graph recording is a distributed tape: each op output remembers its parent
tensors and a closure that routes the output gradient to them. `tape_id` is
a global creation counter, so descending id order is a valid topological
order for replay. Tape construction is single-threaded per forward/backward
pass; tensors without tape attachments are immutable values and safe to
share across threads.

Forward products go through `_product`. The BLAS the benchmark's `# env`
line names (scipy-openblas 0.3.31, run on one thread) multiplies a product
of at most 1e6 multiply-adds M*N*K with an unpacked small-matrix kernel and
packs the whole left operand above that: with a (512, 1536) weight against
12 columns, 54 rows took 81 us and 55 rows 137 us. The model's weight
products have a (512, 512)-(512, 1536) weight W and the 1-32 columns of a
batch of one, so a product with at most 32 right-hand columns (and fewer
than the left has rows) above the bound runs in row blocks of W of 1e6 //
(N*K) rows, each under the bound: 1.1-2.5x faster than one call at 2-32
columns, about even at 48 and slower at 64 (table in CHANGES.md). Every
other product is one call. Row blocks change only the kernel that sums
each entry, which moved entries by at most 2.6e-15 of the largest at these
shapes; since the choice reads shapes only, a forward gives the same bits
with and without a tape.

Parameter gradients are kept as factors. A `Parameter` (the tensors a
`ParamStore` holds) that is the left operand W of a matmul W X does not get
that matmul's weight gradient G X^T, G the output gradient, at once: the
backward appends the pair (G, X) to the parameter's `factors` and computes
only the input gradient W^T G, which the rest of the tape needs. A factor
entry holds one such pair per column block of W the product read, with the
block's first column: a matmul reads the whole of W, and `stacked_matmul`,
the model's gate input W [guidance; nodes; guidance], whose W is always a
`Parameter`, reads one block per part, so the guidance blocks keep
(d, blocks) pairs and no stacked (3d, n) input is kept. Its input
gradients come from the same column-summed G, each part's from its own
block of W at one row per block or node, so no (n, 3d) gradient of the
stack is formed either.
Every matmul A B forms its right operand's gradient A^T G as (G^T A)^T:
BLAS then reads A in its stored row-major layout instead of as a
transposed operand, with the same bits. For the paper's (512, 512)-(512,
1536) weights and the 12-96 column G of a training sub-window (a few clips
run as one graph, see `train`) it took 0.42-0.77 of the time (one BLAS
thread); under about 64k entries of A it costs a few microseconds more per
product, too little to show in a training call, so one expression serves
all.
`Parameter.form_grad` later forms sum_k G_k X_k^T as one product of the
concatenated factors per column block, plus whatever reached `.grad`
directly (biases, other ops). `backward(loss, params)` forms every
parameter's gradient before it returns; a training loop instead calls
`backward(loss)` per sub-window and leaves the forming to the optimizer
step, so each weight gradient is formed once per optimizer window rather
than once per sub-window.

A backward sweep drops an op result's gradient as soon as the op has passed
it to its inputs. Only the leaves (parameters and tensors no op produced)
keep theirs, so a sweep holds the gradients of its frontier, not one array
per tape node. With a training sub-window of about five paper-width clips
on the tape this took the peak RSS of the train-paper benchmark from 326 to
306 MB (300 MB for one clip at a time with every gradient kept).
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ContractError, DegenerateInputError, ShapeError

_ids = itertools.count()
_grad_enabled = True

# sigmoid outputs are clamped into this open interval so gates and halting
# probabilities are strictly inside (0, 1) even for extreme logits
_SIG_LO = 1e-300
_SIG_HI = 1.0 - 1e-16


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable tape recording inside the block (inference / oracles)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 array plus an optional slot in the reverse-mode tape."""

    __slots__ = ("data", "grad", "tape_id", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, copy: bool = True):
        # without `copy`, a float64 C-ordered array is adopted as it is
        arr = (np.array if copy else np.asarray)(data, dtype=np.float64, order="C")
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.tape_id = next(_ids)
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Tensor], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def sum(self, axis: int | None = None) -> "Tensor":
        return _reduce(self, axis, mean=False)

    def mean(self, axis: int | None = None) -> "Tensor":
        return _reduce(self, axis, mean=True)


def _make(
    data: np.ndarray,
    parents: Sequence[Tensor],
    backward: Callable[[Tensor], None] | None,
) -> Tensor:
    """Wrap an op result; record parents only when a gradient can flow.

    The closure gets its output as an argument instead of closing over it, so
    a tape holds no reference cycles and is freed as soon as it is dropped.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.tape_id = next(_ids)
    out._parents = ()
    out._backward = None
    tracked = _grad_enabled and any(p.requires_grad for p in parents)
    out.requires_grad = tracked
    if tracked and backward is not None:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _acc(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def _as_pair(a, b, op: str) -> tuple[Tensor, Tensor | float]:
    if not isinstance(a, Tensor) and not isinstance(b, Tensor):
        raise ContractError(f"{op}: at least one operand must be a Tensor")
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        if a.shape != b.shape:
            raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")
    return a, b


def add(a, b) -> Tensor:
    a, b = _as_pair(a, b, "add")
    if isinstance(a, Tensor) and isinstance(b, Tensor):

        def bw(out: Tensor) -> None:
            _acc(a, out.grad)
            _acc(b, out.grad)

        return _make(a.data + b.data, (a, b), bw)
    t, s = (a, b) if isinstance(a, Tensor) else (b, a)

    def bw_s(out: Tensor) -> None:
        _acc(t, out.grad)

    return _make(t.data + float(s), (t,), bw_s)


def sub(a, b) -> Tensor:
    a, b = _as_pair(a, b, "sub")
    if isinstance(a, Tensor) and isinstance(b, Tensor):

        def bw(out: Tensor) -> None:
            _acc(a, out.grad)
            _acc(b, -out.grad)

        return _make(a.data - b.data, (a, b), bw)
    if isinstance(a, Tensor):

        def bw_l(out: Tensor) -> None:
            _acc(a, out.grad)

        return _make(a.data - float(b), (a,), bw_l)

    def bw_r(out: Tensor) -> None:
        _acc(b, -out.grad)

    return _make(float(a) - b.data, (b,), bw_r)


def mul(a, b) -> Tensor:
    """Hadamard product, or scaling by a python float."""
    a, b = _as_pair(a, b, "mul")
    if isinstance(a, Tensor) and isinstance(b, Tensor):

        def bw(out: Tensor) -> None:
            if a.requires_grad:
                _acc(a, out.grad * b.data)
            if b.requires_grad:
                _acc(b, out.grad * a.data)

        return _make(a.data * b.data, (a, b), bw)
    t, s = (a, b) if isinstance(a, Tensor) else (b, a)
    sv = float(s)

    def bw_s(out: Tensor) -> None:
        _acc(t, out.grad * sv)

    return _make(t.data * sv, (t,), bw_s)


# A product of at most this many multiply-adds, or with more than this many
# right-hand columns, is one BLAS call; see `_product`.
_SMALL_WORK = 1_000_000
_SKINNY_COLS = 32


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, for a skinny b in row blocks of a that each stay under
    `_SMALL_WORK` multiply-adds (module docstring).

    The choice reads shapes only, so a product gives the same bits with and
    without a tape. The result is a new C-ordered array.
    """
    m, k = a.shape
    n = b.shape[1]
    if n > _SKINNY_COLS or n >= m or m * n * k <= _SMALL_WORK:
        return a @ b
    rows = max(1, _SMALL_WORK // (n * k))
    out = np.empty((m, n))
    for lo in range(0, m, rows):
        np.matmul(a[lo:lo + rows], b, out=out[lo:lo + rows])
    return out


def _kept(x: Tensor) -> np.ndarray:
    """The value of a weight factor's right side: a parameter's data changes
    at the optimizer step, so its value at this use is copied."""
    return x.data.copy() if isinstance(x, Parameter) else x.data


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: operands must be 2-D, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ: {a.shape} x {b.shape}")

    def bw(out: Tensor) -> None:
        if isinstance(a, Parameter):
            a.factors.append(((out.grad, _kept(b), 0),))
        elif a.requires_grad:
            _acc(a, out.grad @ b.data.T)
        if b.requires_grad:
            # A^T G as (G^T A)^T, A read in its stored layout (module docstring)
            _acc(b, (out.grad.T @ a.data).T)

    return _make(_product(a.data, b.data), (a, b), bw)


def stacked_matmul(w: Parameter, guide_a: Tensor, nodes: Tensor, guide_b: Tensor,
                   guide_ids: Sequence[int] | np.ndarray,
                   node_ids: Sequence[int] | np.ndarray | None = None) -> Tensor:
    """W [guide_a[:, guide_ids]; nodes[:, node_ids]; guide_b[:, guide_ids]],
    the model's gate input, without building the stack. The indices take as
    in `gather`, and None takes `nodes` as it is.

    Each part meets its own column block of W at one column per column of
    its tensor and is expanded after the product, the two guidance parts
    summed before their one expansion, so no (3d, n) array is made or kept.
    W must be a `Parameter`: the backward gives it one factor entry of a
    (column-summed G, part, first column) term per part (module docstring).
    Each part's input gradient is the product of its column-summed G with
    its own block of W, one row per column of the part, not per column of
    the output.
    """
    if not isinstance(w, Parameter):
        raise ContractError(f"stacked_matmul: the weight must be a Parameter, "
                            f"got {type(w).__name__}")
    lo_n = guide_a.shape[0]
    lo_b = lo_n + nodes.shape[0]
    if (w.data.ndim != 2 or any(x.data.ndim != 2 for x in (guide_a, nodes, guide_b))
            or lo_b + guide_b.shape[0] != w.shape[1] or guide_a.shape[1] != guide_b.shape[1]):
        raise ShapeError(f"stacked_matmul: parts of {[x.shape for x in (guide_a, nodes, guide_b)]} "
                         f"do not stack to the columns of {w.shape}")
    guide_ids = np.asarray(guide_ids, dtype=np.intp)
    node_ids = None if node_ids is None else np.asarray(node_ids, dtype=np.intp)
    for x, i in ((guide_a, guide_ids), (nodes, node_ids)):
        if i is not None and (i.ndim != 1 or not i.size or i.min() < 0 or i.max() >= x.shape[1]):
            raise ShapeError(f"stacked_matmul: columns {i.tolist()} do not index {x.shape}")
    n_nodes = nodes.shape[1] if node_ids is None else node_ids.size
    if n_nodes != guide_ids.size:
        raise ShapeError(f"stacked_matmul: parts give {guide_ids.size} and {n_nodes} columns")

    data = _product(w.data[:, :lo_n], guide_a.data)
    data += _product(w.data[:, lo_b:], guide_b.data)
    data = data.take(guide_ids, axis=1)
    y = _product(w.data[:, lo_n:lo_b], nodes.data)
    data += y if node_ids is None else y.take(node_ids, axis=1)

    def bw(out: Tensor) -> None:
        g = out.grad
        g_guide = _sum_by(g, guide_ids, guide_a.shape[1], axis=1)
        g_nodes = g if node_ids is None else _sum_by(g, node_ids, nodes.shape[1], axis=1)
        # W_block^T G as (G^T W_block)^T, one row per column of the part
        _acc(guide_a, (g_guide.T @ w.data[:, :lo_n]).T)
        _acc(guide_b, (g_guide.T @ w.data[:, lo_b:]).T)
        _acc(nodes, (g_nodes.T @ w.data[:, lo_n:lo_b]).T)
        w.factors.append(((g_guide, _kept(guide_a), 0), (g_guide, _kept(guide_b), lo_b),
                          (g_nodes, _kept(nodes), lo_n)))

    return _make(data, (w, guide_a, nodes, guide_b), bw)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: needs a 2-D tensor, got {a.shape}")

    def bw(out: Tensor) -> None:
        _acc(a, out.grad.T)

    return _make(np.ascontiguousarray(a.data.T), (a,), bw)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Parts joined along `axis`; a single part is returned as it is."""
    if not parts:
        raise ContractError("concat: empty part list")
    if len(parts) == 1:
        return parts[0]
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(out: Tensor) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * out.grad.ndim
            sl[axis] = slice(lo, hi)
            _acc(p, out.grad[tuple(sl)])

    return _make(np.concatenate([p.data for p in parts], axis=axis), parts, bw)


def gather(a: Tensor, index: Sequence[int] | np.ndarray) -> Tensor:
    """Columns a[:, index] of a 2-D tensor, in `index` order and with repeats.

    The backward adds each output column's gradient into the column it came
    from: the columns of one source are summed in output order, as the
    per-part gradients of `concat([a[:, i]] * k)` would be. An index that
    names every column once, in order, returns `a` itself.
    """
    index = np.asarray(index, dtype=np.intp)
    if a.data.ndim != 2 or index.ndim != 1 or not index.size or index.min() < 0:
        raise ShapeError(f"gather: columns {index.tolist()} do not index {a.shape}")
    if index.size == a.shape[1] and np.array_equal(index, np.arange(index.size)):
        return a
    try:
        data = a.data.take(index, axis=1)      # row-major, like every other op's result
    except IndexError as e:
        raise ShapeError(f"gather: columns {index.tolist()} do not index {a.shape}") from e

    def bw(out: Tensor) -> None:
        g = _sum_by(out.grad, index, a.shape[1], axis=1)
        if a.grad is None:
            a.grad = g
        else:
            a.grad += g

    return _make(data, (a,), bw)


def _sum_by(g: np.ndarray, index: np.ndarray, n: int, axis: int) -> np.ndarray:
    """A new array with n slots along `axis`: slot c sums the slices j of g
    with index[j] == c, in order of j; a slot nothing maps to is zero."""
    order = np.argsort(index, kind="stable")
    ranked = index[order]
    starts = np.flatnonzero(np.diff(ranked, prepend=-1))
    g = g.take(order, axis=axis)
    if starts.size < index.size:
        g = np.add.reduceat(g, starts, axis=axis)
    if starts.size == n:                    # every slot is hit, in slot order
        return g
    shape = list(g.shape)
    shape[axis] = n
    out = np.zeros(shape)
    if axis == 0:
        out[ranked[starts]] = g
    else:
        out[:, ranked[starts]] = g
    return out


def add_col(mat: Tensor, column: Tensor) -> Tensor:
    """Add a (d, 1) column vector to every column of a (d, n) matrix."""
    if mat.shape[0] != column.shape[0] or column.shape[1] != 1:
        raise ShapeError(f"add_col: got {mat.shape} and {column.shape}")

    def bw(out: Tensor) -> None:
        _acc(mat, out.grad)
        _acc(column, out.grad.sum(axis=1, keepdims=True))

    return _make(mat.data + column.data, (mat, column), bw)


def _starts(sizes: Sequence[int]) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(sizes[:-1])]).astype(np.intp)


def block_mean(a: Tensor, sizes: Sequence[int]) -> Tensor:
    """Column means of consecutive blocks: (d, sum(sizes)) -> (d, len(sizes))."""
    if a.data.ndim != 2 or sum(sizes) != a.shape[1] or min(sizes) < 1:
        raise ShapeError(f"block_mean: blocks {tuple(sizes)} do not tile {a.shape}")
    n = np.asarray(sizes, dtype=np.float64)

    def bw(out: Tensor) -> None:
        _acc(a, np.repeat(out.grad / n, sizes, axis=1))

    return _make(np.add.reduceat(a.data, _starts(sizes), axis=1) / n, (a,), bw)


def _reduce(a: Tensor, axis: int | None, mean: bool) -> Tensor:
    if axis is None:
        n = a.data.size
        val = a.data.sum()
        if mean:
            val /= n

        def bw_all(out: Tensor) -> None:
            g = float(out.grad.reshape(-1)[0])
            if mean:
                g /= n
            _acc(a, np.full_like(a.data, g))

        return _make(np.array([[val]]), (a,), bw_all)
    n = a.data.shape[axis]
    val = a.data.sum(axis=axis, keepdims=True)
    if mean:
        val = val / n

    def bw_ax(out: Tensor) -> None:
        g = np.repeat(out.grad, n, axis=axis)
        if mean:
            g = g / n
        _acc(a, g)

    return _make(val, (a,), bw_ax)


def softmax(a: Tensor, axis: int) -> Tensor:
    """Stable softmax along `axis`; outputs are positive and sum to one."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(out: Tensor) -> None:
        g = out.grad
        dot = (g * y).sum(axis=axis, keepdims=True)
        _acc(a, y * (g - dot))

    return _make(y, (a,), bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, from one
    exp(-|x|) that cannot overflow; no boolean-mask gathers."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    np.clip(y, _SIG_LO, _SIG_HI, out=y)

    def bw(out: Tensor) -> None:
        _acc(a, out.grad * y * (1.0 - y))

    return _make(y, (a,), bw)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)): no overflow, no clamp."""
    x = a.data
    y = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def bw(out: Tensor) -> None:
        _acc(a, out.grad * _sigmoid(x))

    return _make(y, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def bw(out: Tensor) -> None:
        _acc(a, out.grad * (1.0 - y * y))

    return _make(y, (a,), bw)


def logsumexp(a: Tensor) -> Tensor:
    """log(sum(exp(x))) down each column, (n, m) -> (1, m), with max shifting."""
    m = a.data.max(axis=0, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=0, keepdims=True)
    w = e / s

    def bw(out: Tensor) -> None:
        _acc(a, out.grad * w)

    return _make(m + np.log(s), (a,), bw)


def _col_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt((x * x).sum(axis=0, keepdims=True))


def cosine_cost(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosine distances between columns of a (d, n) and b (d, m)."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"cosine_cost: got {a.shape} and {b.shape}")
    na = _col_norms(a.data)
    nb = _col_norms(b.data)
    if na.min() <= 1e-12 or nb.min() <= 1e-12:
        raise DegenerateInputError("cosine_cost: zero-norm column")
    ua = a.data / na
    ub = b.data / nb
    sims = ua.T @ ub
    cost = np.clip(1.0 - sims, 0.0, 2.0)

    def bw(out: Tensor) -> None:
        g = out.grad
        _acc(a, -(ub @ g.T - ua * (g * sims).sum(axis=1)) / na)
        _acc(b, -(ua @ g - ub * (g * sims).sum(axis=0)) / nb)

    return _make(cost, (a, b), bw)


class SortedStructure:
    """The structure term sum_{ijkl} T_ij T_kl |A_ik - B_jl| of every segment
    of a batch, from sorted rows.

    A (L, L) and B (K, K) hold the intra-graph costs of all segments: segment
    s owns the diagonal blocks of `a_sizes[s]` rows of A and `b_sizes[s]` rows
    of B, and its coupling T is the block of an (L, K) plan on the same rows
    and columns. Entries outside these blocks are never read, and
    linearisations and gradients are zero there.

    Built once per batch: each row of each B block is sorted, and every A_ik
    of a segment is ranked in every sorted row B_j of that segment twice,
    strictly (how many B_jl < A_ik) and not (how many B_jl <= A_ik), so
    entries tied with A_ik count on neither side and sign(0) = 0 holds
    exactly. No coupling is kept: `solve_plan` linearises at each round's
    plan, and `gw_pair_cost` at the final one, for the distance.

    For a coupling T, signed prefix sums along the sorted rows, P[r] = (sum
    of the first r entries) - (sum of the rest), taken of T_kl and of
    T_kl B_jl and read at the strict rank of A_ik, give
    sum_l T_kl |A_ik - B_jl| = A_ik P_T - P_TB, hence the linearisation
    L_ij = sum_kl |A_ik - B_jl| T_kl. Read at both ranks, P_T gives the
    gradient in A; T_ij scattered at both ranks and summed the same way gives
    the gradient in B. Memory is O(n^2 m + n m^2) per segment: no array of
    n^2 m^2 entries is built.

    Segments of the same shape (n, m) are stacked along a leading axis
    (`_Stack`), with no padding, and each stack's linearisation and
    gradients are a fixed number of numpy calls for all of its segments.
    Only the setup searches segment by segment, each among its own values,
    so no value is ever offset to keep segments apart. A batch of
    same-shaped segments is one stack; segments of distinct shapes (long
    ones, say) are stacks of one, each as cheap as a lone segment.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, a_sizes: Sequence[int],
                 b_sizes: Sequence[int]):
        L, K = a.shape[0], b.shape[0]
        if a.shape != (L, L) or b.shape != (K, K):
            raise ShapeError(f"SortedStructure: costs must be square, got {a.shape} and {b.shape}")
        self.a = a
        self.b = b
        self.a_sizes = tuple(a_sizes)
        self.b_sizes = tuple(b_sizes)
        n = np.asarray(self.a_sizes, dtype=np.intp)
        m = np.asarray(self.b_sizes, dtype=np.intp)
        if n.size != m.size or n.sum() != L or m.sum() != K or min(n.min(), m.min()) < 1:
            raise ShapeError(f"SortedStructure: blocks {self.a_sizes} and {self.b_sizes} "
                             f"do not tile {a.shape} and {b.shape}")
        a0, b0 = _starts(n), _starts(m)
        shape = n * (m.max() + 1) + m
        kinds, self._stack_of = np.unique(shape, return_inverse=True)   # stack of each segment
        self._stacks = [
            _Stack(a, b, a0[ids], b0[ids], n[ids[0]], m[ids[0]])
            for ids in (np.flatnonzero(self._stack_of == k) for k in range(kinds.size))
        ]

    def linearize(self, plan: np.ndarray, segments: np.ndarray | None = None) -> np.ndarray:
        """L_ij = sum_kl |A_ik - B_jl| T_kl within each segment, an (L, K) array.

        With `segments` (indices), only the stacks that hold one of them are
        linearised, and the blocks of the other stacks read 0.
        """
        flat = plan.ravel()
        lin = np.zeros(flat.size)
        wanted = range(len(self._stacks)) if segments is None else set(self._stack_of[segments])
        for k in wanted:
            self._stacks[k].linearize(flat, lin)
        # each L_ij sums nonnegative terms; the signed sums can round a 0 below it
        return np.maximum(lin, 0.0, out=lin).reshape(plan.shape)

    def gradients(self, plan: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """d/dA and d/dB of each segment's sum_{ijkl} T_ij T_kl |A_ik - B_jl|
        at fixed T, as (L, L) and (K, K) arrays.

        Both come out doubled from the signed sums and are halved exactly.
        """
        L, K = plan.shape
        flat = plan.ravel()
        grad_a, grad_b = np.zeros(L * L), np.zeros(K * K)
        for stack in self._stacks:
            stack.gradients(flat, grad_a, grad_b)
        return 0.5 * grad_a.reshape(L, L), 0.5 * grad_b.reshape(K, K)


class _Stack:
    """The G segments of one shape (n, m) of a `SortedStructure`, stacked
    along a leading axis. Segment g owns rows first_a[g] .. + n of A and of
    the plan, and rows first_b[g] .. + m of B, which are also its columns of
    the plan."""

    def __init__(self, a: np.ndarray, b: np.ndarray, first_a: np.ndarray, first_b: np.ndarray,
                 n: int, m: int):
        G, L, K = first_a.size, a.shape[0], b.shape[0]
        stack = np.arange(G)[:, None, None]
        rows = first_a[:, None] + np.arange(n)
        cols = first_b[:, None] + np.arange(m)
        self._ij = rows[:, :, None] * K + cols[:, None, :]            # T_ij
        self._ik = rows[:, :, None] * L + rows[:, None, :]            # A_ik
        a_blocks = a.take(self._ik)
        b_blocks = b.take(cols[:, :, None] * K + cols[:, None, :])
        order = np.argsort(b_blocks, axis=2)                          # [g, j, s]: l
        b_rows = np.sort(b_blocks, axis=2)
        # [g, s, j]: the row of (T_:l)^T for the l at position s of sorted row B_j
        self._order = (order + stack * m).transpose(0, 2, 1)
        self._b_sorted = b_rows.transpose(0, 2, 1)[..., None]
        self._lk = rows[:, None, :] * K + cols[:, :, None]            # [g, l, k]: T_kl
        self._jl = (cols[:, None, :] * K + first_b[:, None, None]
                    + order.transpose(0, 2, 1))                       # [g, s, j]: B_jl
        # Rank every A_ik in every row B_j. With v the entries of A sorted and
        # A_ik = v[u], B_jl < v[u] exactly when at most u entries of v are
        # <= B_jl, and B_jl <= v[u] when at most u are < B_jl, whatever the
        # ties. So one search of each B_jl in v and a running count over u
        # give every row's [below, at or below] counts at every entry of A.
        flat = a_blocks.reshape(G, n * n)
        at = np.argsort(np.argsort(flat, axis=1), axis=1)             # u of each A_ik
        v = np.sort(flat, axis=1)
        found = b_rows.reshape(G, m * m)
        pos = np.empty((2, G, m * m), dtype=np.intp)
        for g in range(G):      # a segment's values are searched among its own only
            pos[0, g] = np.searchsorted(v[g], found[g], side="right")
            pos[1, g] = np.searchsorted(v[g], found[g], side="left")
        width = n * n + 1
        bins = (np.arange(2)[:, None, None] * G + stack[:, :, 0]) * width + pos
        bins = bins.reshape(2, G, m, m) * m + np.arange(m)[:, None]
        counts = np.bincount(bins.ravel(), minlength=2 * G * width * m).reshape(2, G, width, m)
        np.cumsum(counts, axis=2, out=counts)
        # the counts at u(i, k) of every row j, as flat positions into prefix
        # sums laid out as (g, rank, j, k): (2, g, i, j, k)
        self._at = counts.reshape(2, -1).take(
            (stack[..., None] * width + at.reshape(G, n, n)[:, :, None, :]) * m
            + np.arange(m)[:, None], axis=1)
        self._at *= m * n
        self._at += (stack[..., None] * (m + 1) * m + np.arange(m)[:, None]) * n + np.arange(n)
        # the strict ranks into both halves of (2, g, rank, j, k) as (g, i, j, 2, k),
        # so one product with [A_i, -1] sums A_ik P_T - P_TB over k
        plane = G * (m + 1) * m * n
        self._below = np.stack([self._at[0], self._at[0] + plane], axis=3)
        self._weights = np.concatenate([a_blocks, -np.ones((G, n, n))], axis=2)[..., None]
        # signed prefix sums as one product: [r, s] = +1 for s < r, else -1
        self._signs = 2.0 * np.tri(m + 1, k=-1) - 1.0
        self._sorted = np.empty((2, G, m, m, n))                      # [T, T * B] along sorted rows
        self._prefix = np.empty((2, G, m + 1, m, n))

    def _sort_plan(self, plan: np.ndarray) -> np.ndarray:
        """[g, s, j, k] = T_kl for the l at position s of sorted row B_j, in
        the first half of the sorted buffer."""
        n = self._sorted.shape[-1]
        return np.take(plan.take(self._lk).reshape(-1, n), self._order, axis=0,
                       out=self._sorted[0])

    def linearize(self, plan: np.ndarray, out: np.ndarray) -> None:
        """Write L_ij = sum_kl |A_ik - B_jl| T_kl of every segment into `out`;
        `plan` and `out` are flat (L, K) arrays."""
        _, G, m, _, n = self._sorted.shape
        self._sort_plan(plan)
        np.multiply(self._sorted[0], self._b_sorted, out=self._sorted[1])
        np.matmul(self._signs[:, :m], self._sorted.reshape(2, G, m, -1),
                  out=self._prefix.reshape(2, G, m + 1, -1))
        lin = np.matmul(self._prefix.take(self._below).reshape(G, n, m, 2 * n), self._weights)
        out[self._ij] = lin[..., 0]

    def gradients(self, plan: np.ndarray, grad_a: np.ndarray, grad_b: np.ndarray) -> None:
        """Write the doubled d/dA and d/dB of every segment into the flat
        (L, L) `grad_a` and (K, K) `grad_b`."""
        _, G, m, _, n = self._sorted.shape
        sorted_t = self._sort_plan(plan)
        mass = np.matmul(self._signs[:, :m], sorted_t.reshape(G, m, -1))
        # at both ranks of A_ik: 2 sum_l T_kl sign(A_ik - B_jl)
        below, upto = mass.take(self._at)
        below += upto
        t = plan[self._ij]
        grad_a[self._ik] = np.matmul(t[:, :, None, :], below)[:, :, 0, :]
        # at position s of sorted row B_j, the T_ij with A_ik below B_jl (upto
        # <= s) less those above (below > s), counted at both ranks:
        # 2 sum_i T_ij sign(B_jl - A_ik)
        weights = np.broadcast_to(t[:, :, :, None], self._at.shape).ravel()
        hits = np.bincount(self._at.ravel(), weights, mass.size).reshape(G, m + 1, -1)
        sorted_t *= np.matmul(self._signs[1:], hits).reshape(G, m, m, n)
        grad_b[self._jl] = np.matmul(sorted_t, np.ones(n))


def gw_pair_cost(intra_a: Tensor, intra_b: Tensor, plan: np.ndarray,
                 structure: SortedStructure) -> Tensor:
    """Structure-mismatch term sum_{iji'j'} T_ij T_i'j' |A_ii' - B_jj'| of
    each segment, as a (1, n_segments) row.

    `structure` must be built from the very arrays of `intra_a` and
    `intra_b`, and its blocks are the segments. `plan` is a fixed coupling
    (envelope convention): gradient flows into the two intra-graph cost
    matrices only. A segment's value is sum(T * L) over its block, with L the
    structure's linearisation, and the backward is its gradients, in
    O(n^2 m + n m^2) memory.
    """
    if structure.a is not intra_a.data or structure.b is not intra_b.data:
        raise ContractError("gw_pair_cost: the structure was built from other arrays "
                            "than these intra costs")
    plan = np.asarray(plan, dtype=np.float64)
    if plan.shape != (intra_a.shape[0], intra_b.shape[0]):
        raise ShapeError(f"gw_pair_cost: plan {plan.shape} does not fit costs "
                         f"{intra_a.shape} and {intra_b.shape}")
    blocks = (structure.a_sizes, structure.b_sizes)
    rows = (plan * structure.linearize(plan)).sum(axis=1)
    val = np.add.reduceat(rows, _starts(blocks[0]))[None, :]

    def bw(out: Tensor) -> None:
        g = out.grad[0]
        grad_a, grad_b = structure.gradients(plan)
        _acc(intra_a, grad_a * np.repeat(g, blocks[0])[:, None])
        _acc(intra_b, grad_b * np.repeat(g, blocks[1])[:, None])

    return _make(val, (intra_a, intra_b), bw)


class Parameter(Tensor):
    """A trainable tensor whose matmul weight gradients wait as factors.

    `factors` holds one entry per product with this tensor as W: a tuple of
    (G, X, first column) terms, each the gradient G X^T of the column block
    of W that starts at that column and spans X.shape[0] columns; one term
    from `matmul`, one per part (guidance, nodes, guidance) from
    `stacked_matmul`. The gradient of every other use accumulates
    into `.grad` as for any tensor.
    """

    __slots__ = ("factors",)

    def __init__(self, data, copy: bool = True) -> None:
        super().__init__(data, requires_grad=True, copy=copy)
        self.factors: list[tuple[tuple[np.ndarray, np.ndarray, int], ...]] = []

    def form_grad(self, out: np.ndarray) -> np.ndarray:
        """Write the gradient so far into `out` and return it: sum_k G_k X_k^T
        over the factors, one product per column block, plus `.grad`; zero
        when nothing reached this parameter. The factors stay pending.

        A block that overlaps no earlier one (in column order) is written
        by its product in place, so the whole weight of a matmul and the
        disjoint blocks of a gate cost no zero fill and no temporary.
        """
        blocks: dict[tuple[int, int], list[tuple[np.ndarray, np.ndarray]]] = {}
        for entry in self.factors:
            for g, x, lo in entry:
                blocks.setdefault((lo, lo + x.shape[0]), []).append((g, x))
        done = 0                # columns before `done` hold a sum, the rest nothing yet
        for (lo, hi), pairs in sorted(blocks.items()):
            gs, xs = zip(*pairs)
            g, x = np.concatenate(gs, axis=1), np.concatenate(xs, axis=1)
            if lo < done:
                out[:, done:hi] = 0.0
                out[:, lo:hi] += g @ x.T
            else:
                out[:, done:lo] = 0.0
                np.matmul(g, x.T, out=out[:, lo:hi])
            done = max(done, hi)
        out[:, done:] = 0.0
        if self.grad is not None:
            out += self.grad
        return out


class ParamStore:
    """Named trainable tensors with deterministic (sorted) iteration order."""

    def __init__(self) -> None:
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, value: np.ndarray) -> Parameter:
        """A parameter holding a copy of `value`: the store never aliases a
        caller's array."""
        return self._insert(name, Parameter(value))

    def _insert(self, name: str, t: Parameter) -> Parameter:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        self._params[name] = t
        return t

    def add_linear(self, name: str, out_dim: int, in_dim: int, rng: np.random.Generator,
                   bias: bool = True) -> None:
        """Affine weights drawn uniformly from +-1/sqrt(fan_in).

        The draws are fresh arrays that nothing else holds, so the parameters
        adopt them without a copy.
        """
        bound = 1.0 / math.sqrt(in_dim)
        self._insert(f"{name}.w", Parameter(rng.uniform(-bound, bound, size=(out_dim, in_dim)),
                                            copy=False))
        if bias:
            self._insert(f"{name}.b", Parameter(rng.uniform(-bound, bound, size=(out_dim, 1)),
                                                copy=False))

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self) -> list[tuple[str, Parameter]]:
        return [(n, self._params[n]) for n in self.names()]

    def zero_grad(self) -> None:
        """Drop every gradient, direct or pending as factors."""
        for _, t in self.items():
            t.grad = None
            t.factors.clear()


def backward(loss: Tensor, params: ParamStore | None = None) -> dict[str, np.ndarray]:
    """Reverse-mode sweep from a scalar loss.

    Gradients accumulate into the `.grad` of the leaves, except a
    parameter's matmul weight gradients, which accumulate as factors (see
    the module docstring); an op result's gradient is dropped once its op
    has passed it on. Call `params.zero_grad()` to reset both between
    accumulation windows. With
    `params`, every parameter's gradient is formed into `.grad` and its
    factors are dropped, parameters not reachable from the loss get a zero
    gradient, and a name -> gradient view map is returned.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    # collect the reachable subgraph; creation order is a topological order
    seen: set[int] = set()
    nodes: list[Tensor] = []
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    loss.grad = np.ones_like(loss.data)
    for t in sorted(nodes, key=lambda t: t.tape_id, reverse=True):
        if t._backward is not None and t.grad is not None:
            t._backward(t)
            t.grad = None       # passed on to the inputs; see the module docstring
    if params is None:
        return {}
    out: dict[str, np.ndarray] = {}
    for name, p in params.items():
        if p.factors or p.grad is None:
            p.grad = p.form_grad(np.empty_like(p.data))
            p.factors.clear()
        out[name] = p.grad
    return out


class GradCheckReport:
    """Worst-coordinate comparison of analytic and central-difference grads."""

    def __init__(self) -> None:
        self.max_abs_err = 0.0
        self.max_rel_err = 0.0
        self.worst_param = ""
        self.worst_index = -1
        self.n_checked = 0

    def record(self, name: str, idx: int, analytic: float, numeric: float,
               rel_floor: float) -> None:
        self.n_checked += 1
        abs_err = abs(analytic - numeric)
        rel_err = abs_err / max(abs(analytic), abs(numeric), rel_floor)
        if abs_err > self.max_abs_err:
            self.max_abs_err = abs_err
        if rel_err > self.max_rel_err:
            self.max_rel_err = rel_err
            self.worst_param = name
            self.worst_index = idx

    def passed(self, tol: float) -> bool:
        return self.max_rel_err <= tol

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"GradCheckReport(max_abs={self.max_abs_err:.3e}, "
            f"max_rel={self.max_rel_err:.3e}, worst={self.worst_param}[{self.worst_index}], "
            f"checked={self.n_checked})"
        )


def grad_check(
    f: Callable[[], Tensor],
    params: ParamStore,
    step: float = 1e-5,
    rel_floor: float = 1e-6,
    coords: Iterable[tuple[str, int]] | None = None,
) -> GradCheckReport:
    """Compare the tape gradient of a deterministic scalar `f()` against
    central finite differences, coordinate by coordinate.

    `coords` restricts the sweep to selected (param name, flat index) pairs;
    by default every coordinate of every parameter is perturbed. `rel_floor`
    keeps the relative error meaningful when both gradients are near zero.
    """
    params.zero_grad()
    loss = f()
    analytic = {n: g.copy() for n, g in backward(loss, params).items()}
    if coords is None:
        coords = [(n, i) for n, p in params.items() for i in range(p.data.size)]
    report = GradCheckReport()
    for name, idx in coords:
        flat = params[name].data.reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + step
        up = f().item()
        flat[idx] = orig - step
        down = f().item()
        flat[idx] = orig
        numeric = (up - down) / (2.0 * step)
        report.record(name, idx, float(analytic[name].reshape(-1)[idx]), numeric, rel_floor)
    return report
