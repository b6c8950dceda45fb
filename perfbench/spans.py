"""Per-layer spans recorded from outside the package.

`Tracer.wrap` times one public function; `hooked` patches a list of such
functions where their callers look them up and restores them on exit. A
span's self time is its duration minus the time covered by the spans it
encloses. Calls run on one thread, so child spans nest and never overlap,
and the covered time is the sum of the children's durations.

Spans are aggregated per name as they close (calls, total and self time),
so a long run keeps a fixed amount of memory.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Aggregated spans plus named counters, fed by wrapped functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.counts: dict[str, float] = {}
        self._covered: list[float] = []   # child time inside each open span

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def wrap(self, name: str, fn: Callable,
             before: Callable[["Tracer"], None] | None = None,
             after: Callable[["Tracer", object], None] | None = None) -> Callable:
        """`fn` timed as span `name`; `after` reads counts from its return value."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self)
            self._covered.append(0.0)
            t0 = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(name, self.clock() - t0)
            if after is not None:
                after(self, out)
            return out

        return wrapper

    def _close(self, name: str, duration: float) -> None:
        covered = self._covered.pop()
        st = self.spans.setdefault(name, SpanStats())
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - covered
        if self._covered:
            self._covered[-1] += duration

    def stats(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())


@dataclass(frozen=True)
class Hook:
    """Patch `module.attr` (a dotted attribute path) with a span named `span`."""

    module: str
    attr: str
    span: str
    before: Callable[[Tracer], None] | None = None
    after: Callable[[Tracer, object], None] | None = None


def _resolve(hook: Hook) -> tuple[object, str, Callable] | None:
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, leaf = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, leaf, None)
    if not callable(fn):
        return None
    return owner, leaf, fn


@contextmanager
def hooked(tracer: Tracer, hooks: list[Hook]) -> Iterator[list[str]]:
    """Install every hook whose target exists; yield the missing targets.

    A target that a refactor removed is reported, not fatal, so the same
    benchmark keeps running across versions of the package.
    """
    installed: list[tuple[object, str, Callable]] = []
    missing: list[str] = []
    try:
        for hook in hooks:
            found = _resolve(hook)
            if found is None:
                missing.append(f"{hook.module}.{hook.attr}")
                continue
            owner, leaf, fn = found
            setattr(owner, leaf, tracer.wrap(hook.span, fn, hook.before, hook.after))
            installed.append(found)
        yield missing
    finally:
        for owner, leaf, fn in reversed(installed):
            setattr(owner, leaf, fn)
