"""Seeded clip generator for the benchmark workloads.

Writes JSON Lines in the `vlgraph` dataset format (a header with the raw
feature widths, then one clip per line) without importing the package, so
changes to the package's own synthetic task leave the workloads alone.

Every subtitle line gets a prototype vector; its frames and tokens are that
prototype plus Gaussian noise, so transport costs between the two node sets
of a segment have structure instead of being pure noise. Statement clauses
are noisy prototypes of lines in the clip (label 1) or include one prototype
foreign to the clip (label 0); labels alternate 1, 0, 1, ...

Shape counts (lines per clip, frames and tokens per line, clauses) cycle
evenly through their ranges and are assigned to clips by a draw that does
not depend on the seed. Every seed therefore yields the same multiset of
clip shapes, in its own order and with its own values, which keeps the
cost and peak memory of a workload steady across seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

SPAN_S = 2.0       # subtitle line length in seconds
NOISE = 0.5        # per-node noise around the line prototype
DECIMALS = 5       # stored precision of feature values


@dataclass(frozen=True)
class ClipShape:
    """Inclusive ranges of the counts that set a clip's cost."""

    lines: tuple[int, int]      # subtitle lines (segments) per clip
    frames: tuple[int, int]     # frames per line
    tokens: tuple[int, int]     # tokens per line
    clauses: tuple[int, int]    # statement clauses per clip


def balanced(rng: np.random.Generator, lo: int, hi: int, n: int) -> np.ndarray:
    """`n` values cycling evenly through lo..hi, in seeded order."""
    return rng.permutation(lo + np.arange(n) % (hi - lo + 1))


def make_records(seed: int, stream: int, count: int, shape: ClipShape,
                 width: int = 32) -> list[dict]:
    """`count` clip records; `stream` separates splits drawn from one seed."""
    fixed = np.random.default_rng(stream)
    n_lines = balanced(fixed, *shape.lines, count)
    total_lines = int(n_lines.sum())
    n_frames = balanced(fixed, *shape.frames, total_lines)
    n_tokens = balanced(fixed, *shape.tokens, total_lines)
    n_clauses = balanced(fixed, *shape.clauses, count)
    first_line = np.concatenate([[0], np.cumsum(n_lines)[:-1]])
    rng = np.random.default_rng([seed, stream])

    def noisy(proto: np.ndarray, rows: int) -> list:
        vals = proto[None, :] + NOISE * rng.standard_normal((rows, width))
        return np.round(vals, DECIMALS).tolist()

    records = []
    for i, c in enumerate(rng.permutation(count)):
        protos = rng.standard_normal((int(n_lines[c]), width))
        frames: list[dict] = []
        subs: list[dict] = []
        for li, proto in enumerate(protos):
            t0 = SPAN_S * li
            k = int(n_frames[first_line[c] + li])
            feats = noisy(proto, k)
            frames.extend(
                {"t": round(t0 + (j + 0.5) * SPAN_S / k, DECIMALS), "f": feats[j]}
                for j in range(k)
            )
            tokens = noisy(proto, int(n_tokens[first_line[c] + li]))
            subs.append({"t0": t0, "t1": t0 + SPAN_S, "tokens": tokens})
        label = 1 if i % 2 == 0 else 0
        claimed = protos[rng.integers(len(protos), size=int(n_clauses[c]))]
        if label == 0:
            claimed[rng.integers(len(claimed))] = rng.standard_normal(width)
        statement = [noisy(proto, 1)[0] for proto in claimed]
        records.append({
            "clip_id": f"s{stream}-{i:05d}",
            "frames": frames,
            "subs": subs,
            "statement": statement,
            "label": label,
        })
    return records


def write_jsonl(path: str, records: list[dict], width: int = 32) -> None:
    """Header line with the raw widths, then one sorted-key record per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"d_h": width, "d_s": width, "d_v": width}, sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
