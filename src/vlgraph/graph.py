"""Segmenting timestamped frame and subtitle features into clip graphs.

A clip graph is an ordered sequence of segments, one per retained subtitle
line, each pairing that line's tokens with the frames whose timestamps fall
inside the line's span. Frames outside every span join the segment whose
span midpoint is nearest in time (earlier segment on ties). Lines that end
up with no frames are dropped and logged, so every retained segment has at
least one frame and one token.

Segmentation is pure and deterministic, and a clip graph holds raw
features only: the model projects the frames and tokens of a whole batch to
its width, one product per modality (`model.forward_batch`).

Dataset files are JSON Lines: a header declaring raw feature widths, then
one clip per line. Lines end at "\n" only, since JSON strings may hold
U+0085, U+2028 and U+2029 raw; a CR stays in its line, where JSON reads it
as whitespace. The readers stream a file one line at a time, each decoded
as UTF-8 on its own: beyond the clips or report they return, a read holds
one line and its decoded record, never the whole text or a list of lines.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Iterator

import numpy as np

from .errors import EmptyInputError, ValidationError

log = logging.getLogger(__name__)


@dataclass
class FrameNode:
    t: float
    feature: np.ndarray  # raw visual vector, width d_v

    def __post_init__(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.float64)
        if not math.isfinite(self.t):
            raise ValidationError(f"frame timestamp {self.t} is not finite")
        if self.t < 0:
            raise ValidationError(f"frame timestamp {self.t} is negative")


@dataclass
class SubtitleLine:
    t0: float
    t1: float
    tokens: np.ndarray  # (n_tokens, d_s)

    def __post_init__(self) -> None:
        self.tokens = np.atleast_2d(np.asarray(self.tokens, dtype=np.float64))
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise ValidationError(f"subtitle span [{self.t0}, {self.t1}) is not finite")
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
    """Raw node features of a clip, one matrix per modality (columns are nodes).

    Columns are grouped by segment in segmentation order: segment i owns the
    next `frame_sizes[i]` columns of `frames` and `token_sizes[i]` columns of
    `tokens`.
    """

    frames: np.ndarray                        # (d_v, K) frame features
    tokens: np.ndarray                        # (d_s, L) subtitle token features
    frame_sizes: tuple[int, ...]
    token_sizes: tuple[int, ...]

    @property
    def n_segments(self) -> int:
        return len(self.frame_sizes)

    @property
    def visual(self) -> list[np.ndarray]:
        """Each segment's frame features, (d_v, K_i) views."""
        return [self.frames[:, a:b] for a, b in block_bounds(self.frame_sizes)]

    @property
    def text(self) -> list[np.ndarray]:
        """Each segment's token features, (d_s, L_i) views."""
        return [self.tokens[:, a:b] for a, b in block_bounds(self.token_sizes)]


def block_bounds(sizes: tuple[int, ...]) -> list[tuple[int, int]]:
    """(first, end) column of each block of consecutive columns."""
    ends = np.cumsum(sizes)
    return [(int(e - n), int(e)) for n, e in zip(sizes, ends)]


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


def build_clip_graph(frames: list[FrameNode], subs: list[SubtitleLine]) -> ClipGraph:
    """Segment a clip and lay out its raw features, segment by segment."""
    seg = segment_clip(frames, subs)
    return ClipGraph(
        frames=np.stack([frames[fi].feature for idx in seg.frame_index for fi in idx], axis=1),
        tokens=np.concatenate([subs[li].tokens for li in seg.line_index], axis=0).T,
        frame_sizes=tuple(len(idx) for idx in seg.frame_index),
        token_sizes=tuple(subs[li].tokens.shape[0] for li in seg.line_index),
    )


# ------------------------------------------------------------ dataset I/O

@dataclass
class Clip:
    clip_id: str
    frames: list[FrameNode]
    subs: list[SubtitleLine]
    statement: np.ndarray                     # (d_h, n_clauses)
    label: int


def _as_rows(rows: list, width: int | None) -> np.ndarray | None:
    """Rows of `width` numbers (any one width when None) as one float64
    array, or None when they are not."""
    try:
        arr = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError):          # unequal rows, entries that are not numbers
        return None
    return arr if arr.ndim == 2 and arr.shape[1] == (width or arr.shape[1]) else None


def _row_problems(rows: list, width: int | None, key: str, field: str) -> list[str]:
    """What is wrong with each bad row, named `field.format(i)`."""
    problems = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            problem = "not a list"
        elif width is not None and len(row) != width:
            problem = f"width {len(row)} != {key} {width}"
        else:
            arr = _as_rows([row], None)
            if arr is not None and np.isfinite(arr).all():
                continue
            problem = "not finite numbers"
        problems.append(f"{field.format(i)}: {problem}")
    return problems


def parse_clip(rec: dict, header: dict | None = None) -> Clip:
    """The clip of a record that passes `_check_record`.

    Frame features, subtitle tokens and statement clauses are each converted
    as one array per clip and checked together; when that fails,
    ValidationError names every row that does not hold finite numbers (the
    header's width of them, when a header is given).
    """
    d_v, d_s, d_h = (header["d_v"], header["d_s"], header["d_h"]) if header else (None,) * 3
    frames, subs = rec["frames"], rec["subs"]
    features = _as_rows([f["f"] for f in frames], d_v)
    tokens = _as_rows([tok for s in subs for tok in s["tokens"]], d_s)
    statement = _as_rows(rec["statement"], d_h)
    if (features is None or tokens is None or statement is None
            or not all(np.isfinite(a).all() for a in (features, tokens, statement))):
        problems = _row_problems([f["f"] for f in frames], d_v, "d_v", "frames[{}].f")
        for i, s in enumerate(subs):
            problems += _row_problems(s["tokens"], d_s, "d_s", f"subs[{i}].tokens[{{}}]")
        problems += _row_problems(rec["statement"], d_h, "d_h", "statement[{}]")
        raise ValidationError("; ".join(problems) or "token rows differ in width")
    lines = []
    end = 0
    for s in subs:
        start, end = end, end + len(s["tokens"])
        lines.append(SubtitleLine(t0=s["t0"], t1=s["t1"], tokens=tokens[start:end]))
    return Clip(
        clip_id=rec["clip_id"],
        frames=[FrameNode(t=f["t"], feature=x) for f, x in zip(frames, features)],
        subs=lines,
        statement=statement.T,
        label=rec["label"],
    )


def _read_header(path: str, first: bytes) -> dict:
    """The checked header of a dataset, from the bytes of its first line."""
    if not first:
        raise EmptyInputError(f"{path} is empty")
    try:
        text = first.removesuffix(b"\n").decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}:1: header is not valid UTF-8: {e}") from e
    try:
        header = json.loads(text)
    except ValueError as e:         # JSONDecodeError, or an integer over the digit limit
        raise ValidationError(f"{path}:1: header is not valid JSON: {e}") from e
    if not isinstance(header, dict):
        raise ValidationError(f"{path}:1: header is not a JSON object")
    for key in ("d_v", "d_s", "d_h"):
        if key not in header:
            raise ValidationError(f"{path}:1: header missing {key!r}")
        if type(header[key]) is not int or header[key] < 1:
            raise ValidationError(f"{path}:1: header {key!r}: {header[key]!r} "
                                  "is not a positive integer")
    return header


def read_dataset(path: str) -> tuple[dict, list[Clip]]:
    """Load a JSONL dataset: header line, then one clip per line.

    Every record gets the checks of `validate_dataset`; the first bad one
    raises ValidationError naming the file, the line and the problems.
    The file is streamed one line at a time, lines ending at "\n" only:
    beyond the clips it returns, a read holds one line and its decoded
    record.
    """
    clips = []
    with open(path, "rb") as fh:
        header = _read_header(path, fh.readline())
        for ln, _, clip, problems in _records(fh, header):
            if problems:
                raise ValidationError(f"{path}:{ln}: {'; '.join(problems)}")
            clips.append(clip)
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


_NUMBER = (int, float)   # JSON numbers; `true` and `false` are not


def _check_record(rec: dict) -> list[str]:
    """Structural problems of one record, each prefixed by its field.

    Feature rows are not looked at here: `parse_clip` checks their widths
    and values one array at a time.
    """
    if not isinstance(rec, dict):
        return ["record is not a JSON object"]
    problems: list[str] = []
    if "clip_id" not in rec:
        problems.append("clip_id: missing")
    elif type(rec["clip_id"]) is not str:
        problems.append(f"clip_id: {rec['clip_id']!r} is not a string")
    lists = {}
    for key in ("frames", "subs", "statement"):
        value = rec.get(key, [])
        if type(value) is not list:
            problems.append(f"{key}: not a list")
            value = []
        elif not value:
            problems.append(f"{key}: empty")
        lists[key] = value
    prev_t = -np.inf
    for i, f in enumerate(lists["frames"]):
        if type(f) is not dict:
            problems.append(f"frames[{i}]: not an object")
            continue
        if "f" not in f:
            problems.append(f"frames[{i}].f: missing")
        t = f.get("t")
        if type(t) not in _NUMBER:
            problems.append(f"frames[{i}].t: not a number")
            continue
        if not math.isfinite(t):
            problems.append(f"frames[{i}].t: not finite")
            continue
        if t < 0:
            problems.append(f"frames[{i}].t: negative")
        if t < prev_t:
            problems.append(f"frames[{i}].t: timestamps not nondecreasing")
        prev_t = t
    for i, s in enumerate(lists["subs"]):
        if type(s) is not dict:
            problems.append(f"subs[{i}]: not an object")
            continue
        t0, t1 = s.get("t0"), s.get("t1")
        if type(t0) not in _NUMBER or type(t1) not in _NUMBER:
            problems.append(f"subs[{i}]: span bounds t0, t1 not numbers")
        elif not (math.isfinite(t0) and math.isfinite(t1)):
            problems += [f"subs[{i}].{key}: not finite"
                         for key, t in (("t0", t0), ("t1", t1)) if not math.isfinite(t)]
        elif t1 <= t0:
            problems.append(f"subs[{i}]: span [{t0}, {t1}) not increasing")
        toks = s.get("tokens")
        if type(toks) is not list:
            problems.append(f"subs[{i}].tokens: not a list")
        elif not toks:
            problems.append(f"subs[{i}].tokens: empty")
    label = rec.get("label")
    if type(label) is not int or label not in (0, 1):
        problems.append(f"label: {label!r} not in {{0, 1}}")
    return problems


def _records(fh: BinaryIO, header: dict) -> Iterator[tuple[int, Any, Clip | None, list[str]]]:
    """Each record of a binary dataset handle read past its header line, as
    (line number, decoded value, clip, problems): the value is None when the
    line does not decode, and the clip is None when problems stop it.

    Each line is decoded as UTF-8 on its own. Only JSON whitespace (space,
    tab, CR, LF) makes a line blank, and a blank line is skipped;
    `str.strip` would also empty a line of U+3000, U+0085 or U+2028, which
    is not JSON.
    """
    for ln, raw in enumerate(fh, start=2):
        raw = raw.removesuffix(b"\n")
        if not raw.strip(b" \t\r"):
            continue
        try:
            rec = json.loads(raw.decode("utf-8"))
        except UnicodeDecodeError as e:
            yield ln, None, None, [f"not valid UTF-8: {e}"]
            continue
        except ValueError as e:         # JSONDecodeError, or an integer over the digit limit
            yield ln, None, None, [f"not valid JSON: {e}"]
            continue
        problems = _check_record(rec)
        clip = None
        if not problems:
            try:
                clip = parse_clip(rec, header)
            except ValidationError as e:
                problems = [str(e)]
        yield ln, rec, clip, problems


def validate_dataset(path: str) -> ValidationReport:
    """Per-record structural checks; malformed records are listed, not fatal.

    The file is streamed as by `read_dataset`, lines ending at "\n" only:
    beyond the report it returns, a check holds one line and its decoded
    record.
    """
    checks: list[RecordCheck] = []
    with open(path, "rb") as fh:
        header = _read_header(path, fh.readline())
        for ln, rec, _, problems in _records(fh, header):
            clip_id = str(rec.get("clip_id", "?")) if isinstance(rec, dict) else "?"
            checks.append(RecordCheck(ln, clip_id, not problems, problems))
    return ValidationReport(header=header, records=checks)
