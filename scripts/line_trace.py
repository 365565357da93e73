"""List the statements of each ``src/wreduce`` module that the tests never run.

Run from the repository root:

    python scripts/line_trace.py [pytest arguments]

It runs pytest in this process (by default the tier-1 suite, quietly) under
a ``sys.settrace`` hook from the standard library, so it needs no coverage
package.  Then it prints, per module, every statement none of whose lines
ran, as ``path:line: source``.  A statement is an ``ast.stmt``; a line is
charged to the innermost statement that holds it, and the lines that can
run at all are read from the compiled code objects, so docstrings and blank
lines are never listed.  Tests that start a subprocess (the CLI's
end-to-end tests) run outside the hook and count for nothing.  The exit
status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wreduce"


def _owners(tree: ast.Module) -> dict[int, int]:
    """line -> first line of the innermost statement that holds it."""
    owner: dict[int, int] = {}
    # breadth first, so an inner statement overwrites the ones around it
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            for line in range(node.lineno, node.end_lineno + 1):
                owner[line] = node.lineno
    return owner


def _code_lines(code: types.CodeType):
    """Every line that ``code`` or a code object nested in it can run."""
    for _start, _end, line in code.co_lines():
        if line:  # None, or 0 for the code object's own set-up
            yield line
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_lines(const)


def _tracer(hits: dict[str, set[int]]):
    """A global trace function that records the lines run in the package."""
    inside: dict[str, bool] = {}
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, _event, _arg):
        name = frame.f_code.co_filename
        ours = inside.get(name)
        if ours is None:
            ours = inside[name] = os.path.realpath(name).startswith(prefix)
        return local if ours else None

    return start


def unexecuted(hits: dict[str, set[int]]) -> dict[Path, list[tuple[int, str]]]:
    """Per module, the (line, source) of each statement that never ran."""
    ran: dict[str, set[int]] = defaultdict(set)
    for name, lines in hits.items():
        ran[os.path.realpath(name)] |= lines
    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        owner = _owners(ast.parse(source, str(path)))
        runnable = {owner.get(n, n) for n in _code_lines(compile(source, str(path), "exec"))}
        done = {owner.get(n, n) for n in ran[str(path)]}
        text = source.splitlines()
        report[path] = [(n, text[n - 1].strip()) for n in sorted(runnable - done)]
    return report


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    hits: dict[str, set[int]] = defaultdict(set)
    tracer = _tracer(hits)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path, missed in unexecuted(hits).items():
        rel = path.relative_to(ROOT)
        print(f"{rel}: {len(missed)} unexecuted statements")
        for line, text in missed:
            print(f"  {rel}:{line}: {text}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
