"""Statements of `src/vlgraph` that neither tier-1 nor the benchmark runs.

    python tests/unrun_lines.py

Run from the repository root. One line tracer, limited to the files of
`src/vlgraph`, stays installed for the whole run: first tier-1, run by
pytest in this process, then each benchmark workload for `SECONDS`
(`perfbench/run.py` through `runpy`, with `--trace 0`). It then prints each
statement none of whose own lines ran, as `path:line: first source line`,
and their count. A statement's own lines are the lines of its source that
the compiler gives code (`co_lines` of the module's code objects), less
those of the statements nested in it, so a `global` statement has none and
is never listed. A function marked `# pragma: no cover` is skipped with its
body, as is an `if TYPE_CHECKING:` block, which only a type checker runs.
The exit code is 1 when a statement never ran. Not collected by pytest (the
name has no `test_` prefix).
"""

from __future__ import annotations

import ast
import os
import runpy
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vlgraph"
WORKLOADS = ("train-paper", "train-longseg", "infer-paper")
SECONDS = 3.0                               # of each workload


class _FileLines:
    """The local trace function of one file's frames: records each line run.
    An object, not a closure that returns itself, so that tracing makes no
    reference cycle for the tests that count them."""

    def __init__(self) -> None:
        self.hits: set[int] = set()

    def __call__(self, frame, event, arg):
        if event == "line":
            self.hits.add(frame.f_lineno)
        return self


class LineTracer:
    """The lines run in each file of `paths`, from `sys.settrace` while entered."""

    def __init__(self, paths: list[Path]) -> None:
        self.files = {str(p): _FileLines() for p in paths}

    def _call(self, frame, event, arg):
        return self.files.get(frame.f_code.co_filename)

    def __enter__(self) -> "LineTracer":
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)


def _code_lines(code: types.CodeType) -> set[int]:
    lines = {ln for _, _, ln in code.co_lines() if ln is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _children(node: ast.stmt) -> list[ast.stmt]:
    """The statements nested directly in `node`, handler bodies included."""
    out = []
    for name in ("body", "orelse", "finalbody"):
        out += [s for s in getattr(node, name, []) if isinstance(s, ast.stmt)]
    for handler in getattr(node, "handlers", []):
        out += handler.body
    return out


def _skipped(node: ast.stmt, source: list[str]) -> bool:
    if isinstance(node, ast.If):
        return isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return any("pragma: no cover" in source[i - 1] for i in range(first, node.body[0].lineno))


def unrun(path: Path, hits: set[int]) -> list[tuple[int, str]]:
    """(first line number, its source) of each statement of `path` with code,
    none of it run."""
    text = path.read_text(encoding="utf-8")
    code_lines = _code_lines(compile(text, str(path), "exec"))
    source = text.splitlines()
    found = []
    todo = list(ast.parse(text).body)
    while todo:
        node = todo.pop()
        if _skipped(node, source):
            continue
        children = _children(node)
        todo += children
        own = set(range(node.lineno, node.end_lineno + 1))
        for child in children:
            own -= set(range(child.lineno, child.end_lineno + 1))
        own &= code_lines
        if own and not own & hits:
            found.append((node.lineno, source[node.lineno - 1].strip()))
    return sorted(found)


def _run_workload(name: str) -> int:
    sys.argv = ["perfbench/run.py", "--workload", name, "--seed", "0",
                "--seconds", str(SECONDS), "--trace", "0"]
    try:
        runpy.run_path(str(ROOT / "perfbench" / "run.py"), run_name="__main__")
    except SystemExit as e:
        return int(e.code or 0)
    return 0


def main() -> int:
    import pytest

    os.chdir(ROOT)                          # pytest reads its test paths from here
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    files = sorted(PACKAGE.glob("*.py"))
    with LineTracer(files) as tracer:
        codes = {"tier-1": int(pytest.main(["-q", "-p", "no:cacheprovider",
                                            "--continue-on-collection-errors"]))}
        for name in WORKLOADS:
            codes[name] = _run_workload(name)
    print("exit codes: " + ", ".join(f"{k} {v}" for k, v in codes.items()))
    total = 0
    for path in files:
        for ln, line in unrun(path, tracer.files[str(path)].hits):
            print(f"{path.relative_to(ROOT)}:{ln}: {line}")
            total += 1
    print(f"{total} unrun statement(s) in {PACKAGE.relative_to(ROOT)}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
