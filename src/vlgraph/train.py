"""Loss assembly, optimization loop, evaluation, and checkpoints.

Clips run in sub-windows: consecutive clips of one optimizer window go
through one forward as blocks of one block-diagonal graph (`forward_batch`),
one `total_loss` takes every term of every clip from that graph's records
as (1, n_clips) rows, and one backward runs on the sum of the sub-window's
losses. A sub-window never
crosses a window or epoch boundary, so the parameters and the
negative-buffer snapshot are the same for all its clips, and it closes
before its clips' frame and token nodes pass a cap set by the model width
(`sub_windows`). The evaluation passes batch the same way under `no_grad`.

Each backward leaves its weight gradients as (output gradient, input)
factors on the parameters (see `tensor`); the Adam step at the end of a
window forms each parameter's summed gradient once, in one product over all
the window's factors, and applies their mean, which matches one step on the
mean loss of the window. Parameters live in float64 and are stored in
checkpoints as little-endian float32 behind a JSON header. Checkpoints
stream one parameter at a time, so beyond the parameters a save holds less
than twice the largest parameter's float32 bytes and a load those bytes
once, plus the header.

`TrainConfig` is the one config: the model, the transport solver and the
training loop read their settings from it, and it checks each setting once.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import stat
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import tensor as tn
from .errors import ContractError, EmptyInputError, FormatError, NumericalError
from .graph import Clip
from .mi import NegativeBuffer, contrastive_loss
from .model import BatchTrace, forward_batch, init_params, param_shapes
from .model import forward  # noqa: F401  the benchmark harness hooks `train.forward`
from .tensor import ParamStore, Tensor, backward, no_grad
from .transport import transport_loss

CKPT_MAGIC = b"AHGN1\n"
CKPT_DTYPE = np.dtype("<f4")   # the one payload type of a checkpoint

# A sub-window closes before its clips' frame and token nodes pass
# min(SUB_WINDOW_NODES, SUB_WINDOW_CELLS // dim); a clip with more runs alone.
# Its tape holds all its clips at once. At the paper's width it grows with
# nodes x dim, and SUB_WINDOW_CELLS keeps the 128-node windows it had at
# dim=512; at small width the dense (nodes x nodes) attention weights
# weigh most, and SUB_WINDOW_NODES caps them. Sweep, one BLAS thread on a
# shared 2-core machine, medians of runs alternated across caps:
# - train-longseg (dim=32, 36-216 nodes a clip), benchmark harness, 3 runs:
#   128, 256, 320, 384 and 512 nodes read 124.5, 136.6, 159.0, 162.4 and
#   148.6 clips/s, peak RSS 70.6, 74.0, 75.3, 76.9 and 83.8 MB;
# - the same run on paper-shaped clips (about 24 nodes a clip, 48 training
#   clips) at dim=32, in-process CPU time, 5 runs of spread up to 30%: 420,
#   541, 530, 559 and 666 clips/s, peak RSS 44.6, 48.2, 51.9, 54.3 and 56.1
#   MB (384 and 512 nodes hold most 16-clip optimizer windows whole);
# - train-paper (dim=512), in-process, 5 runs: windows of 64, 96, 128, 160
#   and 256 nodes read 45.6, 49.4, 53.0, 54.2 and 58.2 clips/s, peak RSS
#   226, 230, 236, 237 and 253 MB.
# 384 nodes was fastest on train-longseg, where one sub-window of 379 nodes
# peaks at 12.8 MiB of traced tape, forward to end of backward. At dim=512,
# 128 keeps the windows, and so the outputs, that the paper-width benchmark
# had; 256 read 10% faster there for 17 MB, in too few runs to resolve.
SUB_WINDOW_NODES = 384
SUB_WINDOW_CELLS = 128 * 512

# glibc gives the free top of its heap back to the kernel once it passes the
# trim threshold, which starts at 128 KiB and, unless a `MALLOC_*` setting
# fixes it, rises to twice the size of any larger block freed later. At
# dim=32 a sub-window's largest tape arrays stay far below its tape (at most
# 0.5 MiB in 384-node windows, against about 13 MiB of tape), so each tape,
# freed on return from `_learn`, was trimmed and the next sub-window faulted
# its pages back in: on train-longseg's inputs, in one process, four
# `train()` calls took 153, 139, 142 and 145 thousand minor faults; with a
# block of this size freed on entry, 4,660, 1, 79 and 0 (with 128-node
# windows, 44, 37, 40 and 40 thousand, and 3,714, 53, 0 and 0). `train()`
# frees one untouched block of this size on entry, which raises the
# threshold to 16 MiB. At train-paper's dim=512 the tape's own large arrays
# raise it, and calls after the first took 0 faults with or without.
HEAP_KEEP_BYTES = 8 << 20

# each clip's loss terms, in the key order of `LossBundle.as_floats`; a
# training epoch's metrics hold every term but `total`
LOSS_TERMS = ("l_ent", "l_qe_surrogate", "l_qe_literal", "l_cm", "l_cl", "total")

# the values each `TrainConfig` annotation accepts, in code and in JSON (bool is not an int here)
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "int | None": (int, type(None))}


@dataclass
class TrainConfig:
    """Every model, transport and training setting, checked once here.

    This is the one config class: `forward`, `solve_plan`, `transport_loss`
    and `train` all read their settings from it. Its fields are the keys of
    the JSON config format and of a checkpoint header's `config`.
    """

    dim: int = 512                    # desk-scale runs use 32-64
    halt_eps: float = 0.1
    max_queries: int = 5
    query_cost: float = 0.05
    lr: float = 1e-4
    effective_batch: int = 128
    epochs: int = 30
    seed: int = 0
    alpha: float = 0.1                # transport loss weight
    beta: float = 0.1                 # contrastive loss weight
    lam: float = 0.5                  # node-cost weight inside the fused transport objective
    ot_eps_reg: float = 0.05          # entropic regularization
    ot_sinkhorn_iters: int = 200
    ot_gw_outer_iters: int = 10
    ot_tol: float = 1e-6              # marginal residual target
    neg_buffer: int = 256
    inter_modal: bool = True
    intra_modal: bool = True
    temporal: bool = True
    fixed_queries: int | None = None
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _JSON_TYPES[f.type]) or (isinstance(value, bool) and f.type != "bool"):
                raise ContractError(f"config key {f.name!r}: {value!r} is not {f.type}")
            if f.type != "float":
                continue
            try:
                finite = math.isfinite(value)
            except OverflowError:          # an int beyond float range
                raise ContractError(f"{f.name} must be finite, got an integer beyond "
                                    f"float range") from None
            if not finite:
                raise ContractError(f"{f.name} must be finite, got {value}")
        for name in ("dim", "max_queries", "effective_batch", "neg_buffer",
                     "ot_sinkhorn_iters", "ot_gw_outer_iters"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be positive")
        if not 0.0 < self.halt_eps < 1.0:
            raise ContractError("halt_eps must lie in (0, 1)")
        if not self.ot_eps_reg > 0:
            raise ContractError("ot_eps_reg must be positive")
        for name in ("query_cost", "lr", "alpha", "beta", "lam", "ot_tol", "epochs", "seed"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must be nonnegative")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ContractError(f"{name} must lie in [0, 1)")
        if not self.adam_eps > 0:
            raise ContractError("adam_eps must be positive")
        if self.fixed_queries is not None and not 1 <= self.fixed_queries <= self.max_queries:
            raise ContractError(f"fixed_queries must lie in [1, max_queries={self.max_queries}], "
                                f"got {self.fixed_queries}")

    # kept while the benchmark harness calls them: `forward` and
    # `transport_loss` take this config itself, and both return it
    def model_config(self) -> TrainConfig:
        return self

    def ot_config(self) -> TrainConfig:
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ContractError(f"unknown config keys: {unknown}")
        return cls(**data)


@dataclass
class LossBundle:
    """The four loss terms of a batch, each a (1, n_clips) row; `total` is
    exactly their sum on the tape, clip by clip."""

    ent: Tensor
    qe: Tensor
    qe_literal: list[float]
    cm: Tensor
    cl: Tensor
    total: Tensor

    def as_floats(self) -> list[dict[str, float]]:
        """Each clip's loss terms, keyed by `LOSS_TERMS`, in batch order."""
        return [dict(zip(LOSS_TERMS, map(float, terms))) for terms in zip(
            self.ent.data[0], self.qe.data[0], self.qe_literal, self.cm.data[0],
            self.cl.data[0], self.total.data[0])]

    def check_finite(self, clips: Sequence[str]) -> None:
        """NumericalError naming the first non-finite term; `clips` describes
        each clip for the message."""
        for clip, floats in zip(clips, self.as_floats()):
            for name, value in floats.items():
                if not math.isfinite(value):
                    raise NumericalError(f"{clip}: loss component {name} is non-finite ({value})")


def total_loss(
    trace: BatchTrace,
    labels: int | Sequence[int],
    params: ParamStore,
    cfg: TrainConfig,
    buffer: NegativeBuffer | None = None,
    frozen_plans: list[np.ndarray] | None = None,
) -> LossBundle:
    """Cross-entropy + query-efficiency + transport + contrastive terms of
    every clip of the batch, each term taken once for all clips.

    `labels` holds one label per clip (an int for a batch of one, a form
    kept while the benchmark harness uses it), and
    `frozen_plans` one plan per segment of the batch. The cross-entropy is
    softplus(-logit) for label 1 and softplus(logit) for label 0, exact for
    any logit.
    """
    signs = 1.0 - 2.0 * np.asarray(labels, dtype=np.float64).reshape(1, -1)
    ent = tn.softplus(tn.mul(trace.logit, Tensor(signs, copy=False)))
    qe = trace.query.surrogate
    cm, _ = transport_loss(trace.segments, cfg, frozen_plans,
                           tuple(graph.n_segments for graph in trace.graphs))
    cl = contrastive_loss(trace.temporal, params, cfg.beta, trace.query.counts, buffer).loss
    total = tn.add(tn.add(tn.add(ent, qe), cm), cl)
    return LossBundle(ent=ent, qe=qe, qe_literal=[cfg.query_cost * n for n in trace.query.counts],
                      cm=cm, cl=cl, total=total)


class Adam:
    """Adam with bias correction; parameter order is the sorted name order.

    Each step forms every parameter's gradient g (`Parameter.form_grad`:
    pending factors plus `.grad`) into a scratch array sized to the largest
    parameter and shared by all of them, then scales it and updates in place
    in the same operation order as m = b1 m + (1 - b1) g,
    v = b2 v + (1 - b2) g g, p -= lr (m / bc1) / (sqrt(v / bc2) + eps), so
    the result is bitwise the same. The update runs over consecutive blocks
    of `BLOCK` entries: the five arrays it touches (p, m, v, g and a
    temporary) then take 256 KiB each per block and stay in a 2 MiB L2
    cache through the fifteen passes of the update, instead of streaming a
    paper-width weight from memory on every pass. It reads the gradients and
    leaves them as they were; `ParamStore.zero_grad` drops them.
    """

    BLOCK = 32_768

    def __init__(self, params: ParamStore, lr: float, beta1: float, beta2: float, eps: float):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in params.items()}
        size = max((p.data.size for _, p in params.items()), default=0)
        self._grad = np.empty(size)
        self._tmp = np.empty(min(size, self.BLOCK))

    def step(self, grad_scale: float = 1.0) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            size = p.data.size
            p.form_grad(self._grad[:size].reshape(p.data.shape))
            flat = (p.data.reshape(-1), self._m[name].reshape(-1), self._v[name].reshape(-1),
                    self._grad)
            for lo in range(0, size, self.BLOCK):
                hi = min(lo + self.BLOCK, size)
                data, m, v, g = (a[lo:hi] for a in flat)
                tmp = self._tmp[: hi - lo]
                g *= grad_scale
                m *= b1
                np.multiply(g, 1 - b1, out=tmp)
                m += tmp
                v *= b2
                np.multiply(g, 1 - b2, out=tmp)
                tmp *= g
                v += tmp
                np.divide(v, bc2, out=g)
                np.sqrt(g, out=g)
                g += self.eps
                np.divide(m, bc1, out=tmp)
                tmp *= self.lr
                tmp /= g
                data -= tmp


# ------------------------------------------------------------------ training

@dataclass
class TrainResult:
    params: ParamStore
    metrics: list[dict]


def run_clips(clips: Sequence[Clip], params: ParamStore, cfg: TrainConfig,
              buffer: NegativeBuffer | None = None) -> tuple[LossBundle, BatchTrace]:
    """One forward over `clips` as a batch, then the batch's losses."""
    trace = forward_batch(clips, params, cfg)
    return total_loss(trace, [clip.label for clip in clips], params, cfg, buffer), trace


def _nodes(clip: Clip) -> int:
    return len(clip.frames) + sum(line.tokens.shape[0] for line in clip.subs)


def sub_windows(clips: Sequence[Clip], dim: int) -> Iterator[list[Clip]]:
    """Runs of consecutive clips whose frame and token nodes together stay
    within `SUB_WINDOW_NODES` and within `SUB_WINDOW_CELLS` // `dim`, for a
    model of width `dim`; a clip with more runs alone.
    """
    cap = min(SUB_WINDOW_NODES, SUB_WINDOW_CELLS // dim)
    run: list[Clip] = []
    nodes = 0
    for clip in clips:
        n = _nodes(clip)
        if run and nodes + n > cap:
            yield run
            run, nodes = [], 0
        run.append(clip)
        nodes += n
    if run:
        yield run


def _keep_freed_tapes() -> None:
    """Raise glibc's heap trim threshold above a sub-window's tape (see
    `HEAP_KEEP_BYTES`); the block is freed at once and never written."""
    np.empty(HEAP_KEEP_BYTES, dtype=np.uint8)


def _learn(clips: list[Clip], params: ParamStore, cfg: TrainConfig, buffer: NegativeBuffer,
           epoch: int) -> tuple[list[dict[str, float]], int, np.ndarray]:
    """One sub-window: its forward and losses, checked to be finite, and one
    backward on their sum. Returns each clip's loss floats, the query count
    of all clips and the temporal node values, clip by clip; the tape is
    freed on return, before the next sub-window builds its own."""
    bundle, trace = run_clips(clips, params, cfg, buffer)
    bundle.check_finite([f"clip {clip.clip_id!r}, epoch {epoch}" for clip in clips])
    backward(bundle.total.sum())
    return bundle.as_floats(), trace.n_queries, trace.temporal.nodes.data


def train(
    train_clips: list[Clip],
    val_clips: list[Clip],
    header: dict,
    cfg: TrainConfig,
) -> TrainResult:
    """Optimize on `train_clips`; per-epoch accuracy comes from `val_clips`
    (or the training split when no validation split is given).

    Deterministic given (cfg.seed, data): epoch shuffles, initialization,
    and the negative buffer all derive from one generator.
    """
    if not train_clips:
        raise EmptyInputError("training set is empty")
    _keep_freed_tapes()
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, header["d_v"], header["d_s"], header["d_h"], rng)
    opt = Adam(params, cfg.lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    buffer = NegativeBuffer(cfg.neg_buffer)
    eval_on = val_clips if val_clips else train_clips
    metrics: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_clips))
        params.zero_grad()
        sums = dict.fromkeys(LOSS_TERMS, 0.0)
        n_sum = 0
        for start in range(0, len(order), cfg.effective_batch):
            window = [train_clips[i] for i in order[start : start + cfg.effective_batch]]
            pending: list[np.ndarray] = []
            for clips in sub_windows(window, cfg.dim):
                losses, n_queries, nodes = _learn(clips, params, cfg, buffer, epoch)
                pending.extend(nodes.T)
                for floats in losses:
                    for key, val in floats.items():
                        sums[key] += val
                n_sum += n_queries
            opt.step(grad_scale=1.0 / len(window))
            params.zero_grad()
            buffer.push(pending)
        acc = evaluate_accuracy(eval_on, params, cfg)
        n = len(train_clips)
        metrics.append({"epoch": epoch, "acc": acc,
                        **{key: sums[key] / n for key in LOSS_TERMS if key != "total"},
                        "mean_N": n_sum / n})
    return TrainResult(params=params, metrics=metrics)


def evaluate_accuracy(clips: list[Clip], params: ParamStore, cfg: TrainConfig) -> float:
    """Fraction of clips where (prob > 0.5) matches the label (tie counts as 0)."""
    if not clips:
        raise EmptyInputError("evaluation set is empty")
    correct = 0
    with no_grad():
        for run in sub_windows(clips, cfg.dim):
            probs = forward_batch(run, params, cfg).prob.data[0]
            correct += sum(int((1 if p > 0.5 else 0) == clip.label) for clip, p in zip(run, probs))
    return correct / len(clips)


@dataclass
class EvalResult:
    accuracy: float
    mean_losses: dict[str, float]
    n_clips: int


def evaluate(clips: list[Clip], params: ParamStore, cfg: TrainConfig) -> EvalResult:
    """Accuracy plus mean loss components (in-clip negatives only)."""
    if not clips:
        raise EmptyInputError("evaluation set is empty")
    correct = 0
    sums = dict.fromkeys(LOSS_TERMS, 0.0)
    with no_grad():
        for run in sub_windows(clips, cfg.dim):
            bundle, trace = run_clips(run, params, cfg)
            for clip, p, floats in zip(run, trace.prob.data[0], bundle.as_floats()):
                correct += int((1 if p > 0.5 else 0) == clip.label)
                for key, val in floats.items():
                    sums[key] += val
    return EvalResult(
        accuracy=correct / len(clips),
        mean_losses={k: v / len(clips) for k, v in sums.items()},
        n_clips=len(clips),
    )


# ---------------------------------------------------------------- checkpoints

def _finite(arr: np.ndarray) -> bool:
    """Whether every float32 value of `arr` is finite. A float64 sum of
    float32 values cannot overflow: it is finite exactly when every value is,
    so one sum checks them all (+inf and -inf together sum to NaN, which
    numpy would flag as invalid)."""
    with np.errstate(invalid="ignore"):
        return math.isfinite(arr.sum(dtype=np.float64))


def _float32(path: str, name: str, p: Tensor) -> np.ndarray:
    """The checkpoint values of one parameter, or NumericalError if a finite
    value lies beyond float32 range and would be stored as inf."""
    with np.errstate(over="ignore"):
        arr = p.data.astype(CKPT_DTYPE, order="C")
    if not _finite(arr) and (np.isinf(arr) & np.isfinite(p.data)).any():
        raise NumericalError(f"{path}: parameter {name!r} holds a finite value beyond "
                             f"float32 range")
    return arr


def save_checkpoint(path: str, params: ParamStore, cfg: TrainConfig) -> None:
    """Magic, JSON header (name -> shape/dtype/offset), then f32 payload.

    The payload holds the parameters in sorted name order, back to back.
    Each is converted, checked and written on its own, so a save holds one
    parameter's float32 copy and, for a parameter with a non-finite value,
    the masks that check it: less than twice the largest parameter's
    float32 bytes beyond the parameters. The file is written under a
    temporary name in the target's directory and renamed over it at the
    end: a save that fails leaves no temporary file and any file already at
    `path` as it was. As with a plain `open(path, "wb")`, a link at `path`
    is written through, and the file gets the permissions that open gives.
    """
    entries: dict[str, dict] = {}
    offset = 0
    for name, p in params.items():
        entries[name] = {"shape": list(p.data.shape), "dtype": CKPT_DTYPE.str, "offset": offset}
        offset += p.data.size * CKPT_DTYPE.itemsize
    header = {"params": entries, "config": cfg.to_dict()}
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    target = os.path.realpath(path)            # as `open(path, "wb")`, write through a link
    folder, base = os.path.split(target)
    tmp = os.path.join(folder, f".{base}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            if os.path.exists(target):         # `open(path, "wb")` keeps the mode of a file there
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            fh.write(CKPT_MAGIC)
            fh.write(len(head).to_bytes(8, "little"))
            fh.write(head)
            for name, p in params.items():
                fh.write(_float32(path, name, p))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


@dataclass
class CheckpointData:
    params: ParamStore
    config: TrainConfig


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _param_entry(path: str, name: str, meta) -> tuple[tuple[int, ...], int]:
    """(shape, offset) of one header entry, or FormatError naming the field."""
    where = f"{path}: parameter {name!r}"
    if not isinstance(meta, dict):
        raise FormatError(f"{where}: entry is a {type(meta).__name__}, not an object")
    for key in ("shape", "dtype", "offset"):
        if key not in meta:
            raise FormatError(f"{where}: entry has no {key!r}")
    shape = meta["shape"]
    if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
        raise FormatError(f"{where}: 'shape' {shape!r} is not a list of nonnegative integers")
    if not _is_count(meta["offset"]):
        raise FormatError(f"{where}: 'offset' {meta['offset']!r} is not a nonnegative integer")
    if meta["dtype"] != CKPT_DTYPE.str:
        raise FormatError(f"{where}: 'dtype' {meta['dtype']!r} is not {CKPT_DTYPE.str!r}")
    return tuple(shape), meta["offset"]


def _check_layout(path: str, shapes: dict[str, tuple[int, ...]], dim: int) -> None:
    """FormatError naming the first parameter that differs from the model
    layout at `dim`; the raw feature widths are read from the `proj.*` shapes."""
    widths = []
    for name in ("proj.v.w", "proj.s.w", "proj.h.w"):
        if len(shapes.get(name, ())) != 2:
            raise FormatError(f"{path}: parameter {name!r} is missing or not 2-D; "
                              f"its width sets the layout")
        widths.append(shapes[name][1])
    want = param_shapes(dim, *widths)
    for name in sorted(want.keys() | shapes.keys()):
        if name not in shapes:
            raise FormatError(f"{path}: parameter {name!r} is missing")
        if name not in want:
            raise FormatError(f"{path}: parameter {name!r} is not in the model layout")
        if shapes[name] != want[name]:
            raise FormatError(f"{path}: parameter {name!r} has shape {shapes[name]}, but the "
                              f"model layout at dim={dim} needs {want[name]}")


def load_checkpoint(path: str) -> CheckpointData:
    """The parameters and config of a `save_checkpoint` file, or FormatError
    naming the file and what is wrong with it.

    The header is read first and checked whole; then each parameter is read
    from the file in name order into one float32 buffer sized to the
    largest (or to the payload, when that is smaller), checked and converted
    into its float64 `Parameter`. So a load holds the largest parameter's
    float32 bytes and the header beyond the parameters it builds.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(CKPT_MAGIC)) != CKPT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic")
        head_len = int.from_bytes(fh.read(8), "little")
        head_start = len(CKPT_MAGIC) + 8
        if head_len > size - head_start:
            raise FormatError(f"{path}: header length {head_len} runs past the end of the "
                              f"file ({size} bytes)")
        try:
            header = json.loads(fh.read(head_len))
        except ValueError as e:            # a JSONDecodeError, or an integer too long to read
            raise FormatError(f"{path}: corrupt checkpoint header: {e}") from e
        if not isinstance(header, dict):
            raise FormatError(f"{path}: checkpoint header is not a JSON object")
        for key in ("params", "config"):
            if key not in header:
                raise FormatError(f"{path}: checkpoint header has no {key!r}")
            if not isinstance(header[key], dict):
                raise FormatError(f"{path}: checkpoint header {key!r} is not a JSON object")
        entries = {name: _param_entry(path, name, meta) for name, meta in header["params"].items()}
        try:
            cfg = TrainConfig.from_dict(header["config"])
        except ContractError as e:
            raise FormatError(f"{path}: checkpoint header 'config': {e}") from e
        _check_layout(path, {name: entry[0] for name, entry in entries.items()}, cfg.dim)
        payload = size - head_start - head_len
        # no larger than the payload: a header may declare shapes the file cannot hold
        buf = np.empty(min(max(math.prod(shape) for shape, _ in entries.values()),
                           payload // CKPT_DTYPE.itemsize), dtype=CKPT_DTYPE)
        params = ParamStore()
        end = 0
        for name, (shape, start) in sorted(entries.items()):
            if start != end:
                raise FormatError(f"{path}: parameter {name!r}: 'offset' {start} is not {end}, "
                                  f"the end of the parameters before it in name order")
            count = math.prod(shape)
            end = start + count * CKPT_DTYPE.itemsize
            arr = buf[:count]
            if end > payload or fh.readinto(arr) != arr.nbytes:
                raise FormatError(f"{path}: parameter {name!r} needs payload bytes "
                                  f"{start}..{end}, but the payload has {payload}")
            if not _finite(arr):
                raise FormatError(f"{path}: parameter {name!r} holds a non-finite value")
            params.add(name, arr.reshape(shape))   # Parameter converts to float64, once
    if end != payload:
        raise FormatError(f"{path}: {payload - end} trailing byte(s) after the last parameter")
    return CheckpointData(params=params, config=cfg)
