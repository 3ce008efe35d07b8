"""List the lines of ``src/repro`` that the tier-1 suite never executes.

    python3 benchmarks/line_audit.py

Runs the tier-1 suite (``pytest -x -q`` over ``tests/``, with hypothesis
seeded so that property tests draw the same cases every run) in this
process under a standard-library line tracer and prints:

1. executed/total executable lines for ``src/repro``;
2. every unexecuted line of every file under ``src/repro`` with its
   source text, tagged ``excused`` when it sits inside a statement
   marked ``# pragma: no cover - <reason>``.

It exits 1 if any unexecuted line is not excused, or if the suite
itself fails.  There are no flags.

Executable lines are the line numbers ``co_lines()`` reports for every
code object compiled from a file, nested ones included.  A line counts
as executed when the tracer sees a ``line`` event for it, on the main
thread or on any thread started while tracing (``threading.settrace``),
so the parameter-server and local-runtime worker threads count.  The
pragma marks a whole statement: a simple statement whose lines carry
it, or a compound statement (``if TYPE_CHECKING:``, ``def __repr__``)
whose header line carries it, body included.

The traced suite takes about 4 minutes on a 2-vCPU host, against
under 2 untraced, so it is not part of tier 1.
"""

from __future__ import annotations

import ast
import re
import sys
import threading
from collections.abc import Iterable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

_PRAGMA = re.compile(r"#\s*pragma: no cover - \S")


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every code object compiled from ``path``."""
    code = compile(path.read_text(), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None and line > 0)
        stack.extend(const for const in code.co_consts
                     if hasattr(const, "co_lines"))
    return lines


def excused_lines(source: str) -> set[int]:
    """Lines inside a statement marked ``# pragma: no cover - ...``."""
    marked = {number for number, text in enumerate(source.splitlines(), 1)
              if _PRAGMA.search(text)}
    if not marked:
        return set()
    excused: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno]
                    + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        header_end = body[0].lineno - 1 if body else node.end_lineno
        if marked.intersection(range(first, max(first, header_end) + 1)):
            excused.update(range(first, node.end_lineno + 1))
    return excused


class LineTracer:
    """Record the lines executed in files under ``root``.

    ``hits`` maps a file name to the set of its executed line numbers.
    ``stop`` restores whatever tracer was installed before ``start``,
    so a traced suite may run a traced test."""

    def __init__(self, root: Path) -> None:
        self.prefix = str(root.resolve())
        self.hits: dict[str, set[int]] = {}
        self._local: dict[str, object] = {}
        self._previous: tuple[object, object] = (None, None)

    def start(self) -> None:
        self._previous = (sys.gettrace(), threading.gettrace())
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return self._local[filename]
        except KeyError:
            local = self._local[filename] = self._tracer_for(filename)
            return local

    def _tracer_for(self, filename: str):
        if not filename.startswith(self.prefix):
            return None
        add = self.hits.setdefault(filename, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local


def unexecuted(paths: Iterable[Path],
               hits: dict[str, set[int]]) -> dict[Path, list[int]]:
    """Each file's executable lines that ``hits`` does not hold."""
    return {path: sorted(executable_lines(path)
                         - hits.get(str(path.resolve()), set()))
            for path in paths}


def _run_suite(tracer: LineTracer) -> int:
    import pytest

    sys.path.insert(0, str(SRC.parent))
    tracer.start()
    try:
        return int(pytest.main(["-x", "-q", "-p", "no:cacheprovider",
                                "--hypothesis-seed=0",
                                str(ROOT / "tests")]))
    finally:
        tracer.stop()


def audit(root: Path, hits: dict[str, set[int]]) -> tuple[list[str], int]:
    """The executed/total count, then a line per unexecuted line of
    every ``*.py`` under ``root``; and how many of them no pragma
    excuses."""
    paths = sorted(root.rglob("*.py"))
    missed = unexecuted(paths, hits)
    total = sum(len(executable_lines(path)) for path in paths)
    n_missed = sum(len(lines) for lines in missed.values())
    report = [f"{total - n_missed}/{total} executable lines executed"]
    offenders = 0
    for path in paths:
        if not missed[path]:
            continue
        source = path.read_text()
        excused = excused_lines(source)
        text = source.splitlines()
        for line in missed[path]:
            tag = "excused" if line in excused else "UNEXECUTED"
            offenders += line not in excused
            report.append(f"  {tag:10} {path.relative_to(root)}:{line}: "
                          f"{text[line - 1].strip()}")
    return report, offenders


def main() -> int:
    tracer = LineTracer(SRC)
    status = _run_suite(tracer)
    report, offenders = audit(SRC, tracer.hits)
    print(f"\nsrc/repro: {report[0]} by tier 1")
    print("\n".join(report[1:]))
    print(f"{offenders} unexecuted line(s) without a pragma")
    if status != 0:
        print(f"the suite failed (pytest exit {status})")
    return 1 if offenders or status else 0


if __name__ == "__main__":
    sys.exit(main())
