"""Loss assembly, optimization loop, evaluation, and checkpoints.

Clips are processed one at a time (segment counts, node counts, and query
counts are all ragged); gradients accumulate across a window and a single
Adam step applies their mean, which matches one step on the mean loss of
the window. Parameters live in float64 and are stored in checkpoints as
little-endian float32 behind a JSON header.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tn
from .errors import ContractError, EmptyInputError, FormatError, NumericalError
from .graph import Clip
from .mi import ContrastiveResult, NegativeBuffer, contrastive_loss
from .model import ModelConfig, Trace, forward, init_params
from .tensor import ParamStore, Tensor, backward, no_grad
from .transport import OTConfig, transport_loss

CKPT_MAGIC = b"AHGN1\n"


@dataclass
class TrainConfig:
    """Flat training configuration; mirrors the JSON config file format."""

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
    lam: float = 0.5                  # node-cost weight inside the transport
    ot_eps_reg: float = 0.05
    ot_sinkhorn_iters: int = 200
    ot_gw_outer_iters: int = 10
    ot_tol: float = 1e-6
    neg_buffer: int = 256
    inter_modal: bool = True
    intra_modal: bool = True
    temporal: bool = True
    fixed_queries: int | None = None
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("dim", "max_queries", "effective_batch", "neg_buffer"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be positive")
        if not 0.0 < self.halt_eps < 1.0:
            raise ContractError("halt_eps must lie in (0, 1)")
        for name in ("query_cost", "lr", "alpha", "beta", "lam", "ot_eps_reg", "ot_tol"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must be nonnegative")
        if self.epochs < 0:
            raise ContractError("epochs must be nonnegative")

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            dim=self.dim, halt_eps=self.halt_eps, max_queries=self.max_queries,
            query_cost=self.query_cost, inter_modal=self.inter_modal, intra_modal=self.intra_modal,
            temporal=self.temporal, fixed_queries=self.fixed_queries,
        )

    def ot_config(self) -> OTConfig:
        return OTConfig(
            lam=self.lam, alpha=self.alpha, eps_reg=self.ot_eps_reg,
            sinkhorn_iters=self.ot_sinkhorn_iters,
            gw_outer_iters=self.ot_gw_outer_iters, tol=self.ot_tol,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ContractError(f"unknown config keys: {unknown}")
        return cls(**data)


@dataclass
class LossBundle:
    """The four loss terms; `total` is exactly their sum on the tape."""

    ent: Tensor
    qe: Tensor
    qe_literal: float
    cm: Tensor
    cl: Tensor
    total: Tensor
    n_queries: int = 1
    cl_pairs: int = 0
    cl_skipped: int = 0

    def as_floats(self) -> dict[str, float]:
        return {
            "l_ent": self.ent.item(),
            "l_qe_surrogate": self.qe.item(),
            "l_qe_literal": self.qe_literal,
            "l_cm": self.cm.item(),
            "l_cl": self.cl.item(),
            "total": self.total.item(),
        }

    def check_finite(self) -> None:
        for name, value in self.as_floats().items():
            if not math.isfinite(value):
                raise NumericalError(f"loss component {name} is non-finite ({value})")


def total_loss(
    trace: Trace,
    label: int,
    params: ParamStore,
    cfg: TrainConfig,
    buffer: NegativeBuffer | None = None,
    frozen_plans: list[np.ndarray] | None = None,
) -> LossBundle:
    """Cross-entropy + query-efficiency + transport + contrastive terms.

    The cross-entropy is softplus(-logit) for label 1 and softplus(logit)
    for label 0, exact for any logit.
    """
    ent = tn.softplus(tn.scale(trace.logit, 1.0 - 2.0 * label))
    qe = trace.query.surrogate
    cm, _ = transport_loss(trace.segments, cfg.ot_config(), frozen_plans=frozen_plans)
    cl_res: ContrastiveResult = contrastive_loss(trace.temporal, params, cfg.beta, buffer)
    total = tn.add(tn.add(tn.add(ent, qe), cm), cl_res.loss)
    return LossBundle(
        ent=ent, qe=qe, qe_literal=trace.query.literal, cm=cm, cl=cl_res.loss,
        total=total, n_queries=trace.n_queries,
        cl_pairs=cl_res.n_pairs, cl_skipped=cl_res.n_skipped,
    )


class Adam:
    """Adam with bias correction; parameter order is the sorted name order."""

    def __init__(self, params: ParamStore, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self, grad_scale: float = 1.0) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = (p.grad if p.grad is not None else np.zeros_like(p.data)) * grad_scale
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


# ------------------------------------------------------------------ training

@dataclass
class TrainResult:
    params: ParamStore
    metrics: list[dict]
    config: TrainConfig
    rng_state: dict | None = None


def run_clip(clip: Clip, params: ParamStore, cfg: TrainConfig,
             buffer: NegativeBuffer | None = None) -> tuple[LossBundle, Trace]:
    trace = forward(clip, params, cfg.model_config())
    bundle = total_loss(trace, clip.label, params, cfg, buffer)
    return bundle, trace


def train(
    train_clips: list[Clip],
    val_clips: list[Clip],
    header: dict,
    cfg: TrainConfig,
    progress: bool = False,
) -> TrainResult:
    """Optimize on `train_clips`; per-epoch accuracy comes from `val_clips`
    (or the training split when no validation split is given).

    Deterministic given (cfg.seed, data): epoch shuffles, initialization,
    and the negative buffer all derive from one generator.
    """
    if not train_clips:
        raise EmptyInputError("training set is empty")
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg.model_config(), header["d_v"], header["d_s"], header["d_h"], rng)
    opt = Adam(params, cfg.lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    buffer = NegativeBuffer(cfg.neg_buffer)
    eval_on = val_clips if val_clips else train_clips
    metrics: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(train_clips))
        params.zero_grad()
        sums = {"l_ent": 0.0, "l_qe_surrogate": 0.0, "l_qe_literal": 0.0,
                "l_cm": 0.0, "l_cl": 0.0, "total": 0.0}
        n_sum = 0
        window = 0
        pending: list[np.ndarray] = []
        for pos, idx in enumerate(order):
            clip = train_clips[idx]
            bundle, trace = run_clip(clip, params, cfg, buffer)
            bundle.check_finite()
            backward(bundle.total, params)
            for t in trace.temporal:
                pending.extend(t.nodes.data.T)
            for key, val in bundle.as_floats().items():
                sums[key] += val
            n_sum += bundle.n_queries
            window += 1
            if window == cfg.effective_batch or pos == len(order) - 1:
                opt.step(grad_scale=1.0 / window)
                params.zero_grad()
                buffer.push(pending)
                pending = []
                window = 0
        acc = evaluate_accuracy(eval_on, params, cfg.model_config())
        n = len(train_clips)
        metrics.append({
            "epoch": epoch,
            "acc": acc,
            "l_ent": sums["l_ent"] / n,
            "l_qe_surrogate": sums["l_qe_surrogate"] / n,
            "l_qe_literal": sums["l_qe_literal"] / n,
            "l_cm": sums["l_cm"] / n,
            "l_cl": sums["l_cl"] / n,
            "mean_N": n_sum / n,
        })
        if progress:
            dt = time.perf_counter() - t0
            print(f"epoch {epoch}: acc={acc:.4f} "
                  f"l_ent={metrics[-1]['l_ent']:.4f} l_cm={metrics[-1]['l_cm']:.4f} "
                  f"l_cl={metrics[-1]['l_cl']:.4f} mean_N={metrics[-1]['mean_N']:.2f} "
                  f"({dt:.1f}s)", flush=True)
    state = rng.bit_generator.state
    return TrainResult(params=params, metrics=metrics, config=cfg, rng_state=state)


def evaluate_accuracy(clips: list[Clip], params: ParamStore, mcfg: ModelConfig) -> float:
    """Fraction of clips where (prob > 0.5) matches the label (tie counts as 0)."""
    if not clips:
        raise EmptyInputError("evaluation set is empty")
    correct = 0
    with no_grad():
        for clip in clips:
            pred = 1 if forward(clip, params, mcfg).prob.item() > 0.5 else 0
            correct += int(pred == clip.label)
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
    sums: dict[str, float] = {}
    with no_grad():
        for clip in clips:
            bundle, trace = run_clip(clip, params, cfg)
            pred = 1 if trace.prob.item() > 0.5 else 0
            correct += int(pred == clip.label)
            for key, val in bundle.as_floats().items():
                sums[key] = sums.get(key, 0.0) + val
    return EvalResult(
        accuracy=correct / len(clips),
        mean_losses={k: v / len(clips) for k, v in sums.items()},
        n_clips=len(clips),
    )


# ---------------------------------------------------------------- checkpoints

def save_checkpoint(path: str, params: ParamStore, cfg: TrainConfig,
                    rng_state: dict | None = None) -> None:
    """Magic, JSON header (name -> shape/dtype/offset), then f32 payload."""
    entries: dict[str, dict] = {}
    offset = 0
    blobs: list[bytes] = []
    for name, p in params.items():
        blob = p.data.astype("<f4").tobytes()
        entries[name] = {"shape": list(p.data.shape), "dtype": "<f4", "offset": offset}
        offset += len(blob)
        blobs.append(blob)
    header = {
        "params": entries,
        "config": cfg.to_dict(),
        "rng_state": _jsonable(rng_state),
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(len(head).to_bytes(8, "little"))
        fh.write(head)
        fh.write(b"".join(blobs))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


@dataclass
class CheckpointData:
    params: ParamStore
    config: TrainConfig
    rng_state: dict | None


def load_checkpoint(path: str) -> CheckpointData:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(CKPT_MAGIC):
        raise FormatError(f"{path}: bad checkpoint magic")
    head_len = int.from_bytes(blob[len(CKPT_MAGIC) : len(CKPT_MAGIC) + 8], "little")
    head_start = len(CKPT_MAGIC) + 8
    try:
        header = json.loads(blob[head_start : head_start + head_len])
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: corrupt checkpoint header: {e}") from e
    for key in ("params", "config"):
        if key not in header:
            raise FormatError(f"{path}: checkpoint header has no {key!r}")
    payload = blob[head_start + head_len :]
    params = ParamStore()
    for name, meta in header["params"].items():
        shape = tuple(meta["shape"])
        count = int(np.prod(shape))
        start = meta["offset"]
        end = start + count * np.dtype(meta["dtype"]).itemsize
        if end > len(payload):
            raise FormatError(f"{path}: parameter {name!r} needs payload bytes "
                              f"{start}..{end}, but the payload has {len(payload)}")
        arr = np.frombuffer(payload, dtype=meta["dtype"], count=count, offset=start)
        params.add(name, arr.astype(np.float64).reshape(shape))
    cfg = TrainConfig.from_dict(header["config"])
    return CheckpointData(params=params, config=cfg, rng_state=header.get("rng_state"))
