"""Segmenting timestamped frame and subtitle features into clip graphs.

A clip graph is an ordered sequence of segments, one per retained subtitle
line, each pairing that line's tokens with the frames whose timestamps fall
inside the line's span. Frames outside every span join the segment whose
span midpoint is nearest in time (earlier segment on ties). Lines that end
up with no frames are dropped and logged, so every retained segment has at
least one frame and one token.

Segmentation is pure and deterministic; projection to model width runs on
the autodiff tape so the projection maps train with the rest of the model.

Dataset files are JSON Lines: a header declaring raw feature widths, then
one clip per line.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tn
from .errors import EmptyInputError, ValidationError
from .tensor import ParamStore, Tensor

log = logging.getLogger(__name__)


@dataclass
class FrameNode:
    t: float
    feature: np.ndarray  # raw visual vector, width d_v

    def __post_init__(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.float64)
        if self.t < 0:
            raise ValidationError(f"frame timestamp {self.t} is negative")


@dataclass
class SubtitleLine:
    t0: float
    t1: float
    tokens: np.ndarray  # (n_tokens, d_s)

    def __post_init__(self) -> None:
        self.tokens = np.atleast_2d(np.asarray(self.tokens, dtype=np.float64))
        if self.t1 <= self.t0:
            raise ValidationError(f"subtitle span [{self.t0}, {self.t1}) has no length")
        if self.tokens.shape[0] < 1:
            raise ValidationError("subtitle line has no tokens")


@dataclass
class Segmentation:
    """Pure index-level assignment of frames and lines to segments."""

    spans: list[tuple[float, float]]          # clipped, time-ordered
    line_index: list[int]                     # source line per segment
    frame_index: list[list[int]]              # source frames per segment
    dropped_lines: list[int] = field(default_factory=list)

    @property
    def n_segments(self) -> int:
        return len(self.spans)


@dataclass
class ClipGraph:
    """Projected per-segment node matrices (columns are nodes)."""

    visual: list[Tensor]                      # each (d, K_i)
    text: list[Tensor]                        # each (d, L_i)
    segmentation: Segmentation

    @property
    def n_segments(self) -> int:
        return len(self.visual)


def segment_clip(frames: list[FrameNode], subs: list[SubtitleLine]) -> Segmentation:
    """Assign every frame to exactly one subtitle span.

    Containment uses half-open spans [t0, t1). Overlapping spans are clipped
    at the later line's start so spans partition their union. Orphan frames
    go to the nearest span midpoint, ties to the earlier segment.
    """
    if not frames:
        raise EmptyInputError("clip has no frames")
    if not subs:
        raise EmptyInputError("clip has no subtitle lines")

    order = sorted(range(len(subs)), key=lambda i: (subs[i].t0, i))
    spans: list[tuple[float, float]] = []
    line_of_span: list[int] = []
    dropped: list[int] = []
    for rank, i in enumerate(order):
        t0, t1 = subs[i].t0, subs[i].t1
        if rank + 1 < len(order):
            t1 = min(t1, subs[order[rank + 1]].t0)
        if t1 <= t0:
            dropped.append(i)
            continue
        spans.append((t0, t1))
        line_of_span.append(i)

    if not spans:
        raise EmptyInputError("all subtitle spans collapsed after overlap clipping")

    assigned: list[list[int]] = [[] for _ in spans]
    mids = [(a + b) / 2.0 for a, b in spans]
    for fi, f in enumerate(frames):
        seg = None
        for si, (a, b) in enumerate(spans):
            if a <= f.t < b:
                seg = si
                break
        if seg is None:
            seg = min(range(len(spans)), key=lambda si: (abs(f.t - mids[si]), si))
        assigned[seg].append(fi)

    keep = [si for si in range(len(spans)) if assigned[si]]
    for si in range(len(spans)):
        if not assigned[si]:
            dropped.append(line_of_span[si])
    if dropped:
        log.info("dropped %d subtitle line(s) with no frames: %s", len(dropped), sorted(dropped))
    if not keep:
        raise EmptyInputError("no segment received any frame")

    return Segmentation(
        spans=[spans[si] for si in keep],
        line_index=[line_of_span[si] for si in keep],
        frame_index=[assigned[si] for si in keep],
        dropped_lines=sorted(dropped),
    )


def project_nodes(raw: np.ndarray, params: ParamStore, prefix: str) -> Tensor:
    """Single-layer map to model width: tanh(W x + b) per column."""
    x = Tensor(raw)
    return tn.tanh(tn.add_col(tn.matmul(params[f"{prefix}.w"], x), params[f"{prefix}.b"]))


def build_clip_graph(
    frames: list[FrameNode],
    subs: list[SubtitleLine],
    params: ParamStore,
) -> ClipGraph:
    """Segment a clip and project its nodes through the modality maps."""
    seg = segment_clip(frames, subs)
    visual: list[Tensor] = []
    text: list[Tensor] = []
    for si in range(seg.n_segments):
        v_raw = np.stack([frames[fi].feature for fi in seg.frame_index[si]], axis=1)
        s_raw = subs[seg.line_index[si]].tokens.T
        visual.append(project_nodes(v_raw, params, "proj.v"))
        text.append(project_nodes(s_raw, params, "proj.s"))
    return ClipGraph(visual=visual, text=text, segmentation=seg)


# ------------------------------------------------------------ dataset I/O

@dataclass
class Clip:
    clip_id: str
    frames: list[FrameNode]
    subs: list[SubtitleLine]
    statement: np.ndarray                     # (d_h, n_clauses)
    label: int


def parse_clip(rec: dict) -> Clip:
    frames = [FrameNode(t=f["t"], feature=f["f"]) for f in rec["frames"]]
    subs = [SubtitleLine(t0=s["t0"], t1=s["t1"], tokens=s["tokens"]) for s in rec["subs"]]
    stmt = np.asarray(rec["statement"], dtype=np.float64).T
    return Clip(
        clip_id=rec["clip_id"],
        frames=frames,
        subs=subs,
        statement=stmt,
        label=int(rec["label"]),
    )


def _read_lines(path: str) -> tuple[dict, list[str]]:
    """The checked header and the raw lines of a JSONL dataset."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise EmptyInputError(f"{path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}:1: header is not valid JSON: {e}") from e
    for key in ("d_v", "d_s", "d_h"):
        if key not in header:
            raise ValidationError(f"{path}:1: header missing {key!r}")
    return header, lines


def read_dataset(path: str) -> tuple[dict, list[Clip]]:
    """Load a JSONL dataset: header line, then one clip per line.

    Every record gets the checks of `validate_dataset`; the first bad one
    raises ValidationError naming the file, the line and the problems.
    """
    header, lines = _read_lines(path)
    clips = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValidationError(f"{path}:{ln}: not valid JSON: {e}") from e
        problems = _check_record(rec, header)
        if problems:
            raise ValidationError(f"{path}:{ln}: {'; '.join(problems)}")
        clips.append(parse_clip(rec))
    return header, clips


def write_dataset(path: str, header: dict, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


@dataclass
class RecordCheck:
    line_no: int
    clip_id: str
    ok: bool
    problems: list[str]


@dataclass
class ValidationReport:
    header: dict
    records: list[RecordCheck]

    @property
    def n_failures(self) -> int:
        return sum(0 if r.ok else 1 for r in self.records)

    def summary(self) -> str:
        return f"{len(self.records)} record(s), {self.n_failures} failure(s)"


def _check_record(rec: dict, header: dict) -> list[str]:
    if not isinstance(rec, dict):
        return ["record is not a JSON object"]
    problems: list[str] = []
    if "clip_id" not in rec:
        problems.append("clip_id: missing")
    d_v, d_s, d_h = header["d_v"], header["d_s"], header["d_h"]
    frames = rec.get("frames", [])
    subs = rec.get("subs", [])
    stmt = rec.get("statement", [])
    if not frames:
        problems.append("frames: empty")
    if not subs:
        problems.append("subs: empty")
    if not stmt:
        problems.append("statement: empty")
    prev_t = -np.inf
    for i, f in enumerate(frames):
        if len(f.get("f", [])) != d_v:
            problems.append(f"frames[{i}].f: width {len(f.get('f', []))} != d_v {d_v}")
        if f.get("t", -1) < 0:
            problems.append(f"frames[{i}].t: negative")
        if f.get("t", 0) < prev_t:
            problems.append(f"frames[{i}].t: timestamps not nondecreasing")
        prev_t = f.get("t", prev_t)
    for i, s in enumerate(subs):
        if s.get("t1", 0) <= s.get("t0", 0):
            problems.append(f"subs[{i}]: span [{s.get('t0')}, {s.get('t1')}) not increasing")
        toks = s.get("tokens", [])
        if not toks:
            problems.append(f"subs[{i}].tokens: empty")
        for j, tok in enumerate(toks):
            if len(tok) != d_s:
                problems.append(f"subs[{i}].tokens[{j}]: width {len(tok)} != d_s {d_s}")
    for i, cl in enumerate(stmt):
        if len(cl) != d_h:
            problems.append(f"statement[{i}]: width {len(cl)} != d_h {d_h}")
    if rec.get("label") not in (0, 1):
        problems.append(f"label: {rec.get('label')!r} not in {{0, 1}}")
    return problems


def validate_dataset(path: str) -> ValidationReport:
    """Per-record structural checks; malformed records are listed, not fatal."""
    header, lines = _read_lines(path)
    checks: list[RecordCheck] = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            checks.append(RecordCheck(ln, "?", False, [f"not valid JSON: {e}"]))
            continue
        problems = _check_record(rec, header)
        clip_id = str(rec.get("clip_id", "?")) if isinstance(rec, dict) else "?"
        checks.append(RecordCheck(ln, clip_id, not problems, problems))
    return ValidationReport(header=header, records=checks)
