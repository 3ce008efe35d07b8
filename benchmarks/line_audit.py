"""List the lines of ``src/repro`` that the tier-1 suite never executes,
and the ``if``/``while`` tests it only ever sends one way.

    python3 benchmarks/line_audit.py

Runs the tier-1 suite (``pytest -x -q`` over ``tests/``, with hypothesis
seeded so that property tests draw the same cases every run) in this
process under a standard-library tracer that records arcs, and prints:

1. executed/total executable lines for ``src/repro``;
2. every unexecuted line of every file under ``src/repro`` with its
   source text, tagged ``excused`` when it sits inside a statement
   marked ``# pragma: no cover - <reason>``;
3. how many reached ``if``/``elif``/``while`` tests went both ways,
   then every test that went one way, tagged with the arm it took.

It exits 1 if any unexecuted line is not excused, if any test went one
way, or if the suite itself fails.  There are no flags.

Executable lines are the line numbers ``co_lines()`` reports for every
code object compiled from a file, nested ones included.  The tracer
records arcs, ``(previous line, line)`` pairs within one frame, on the
main thread and on any thread started while tracing
(``threading.settrace``), so the parameter-server and local-runtime
worker threads count.  A line counts as executed when an arc lands on
it.  A test goes one way when every arc leaving a line of its test
expression lands inside its body (``always true``), or none does
(``always false``); leaving the frame counts as leaving the body, and
an arc out through an exception counts as neither.  ``while
<constant>`` loops are skipped.  Conditional expressions and
``and``/``or`` are not seen: line events cannot tell their arms apart.
A ``yield`` inside a test expression would read as leaving it.

The pragma marks a whole statement: a simple statement whose lines
carry it, or a compound statement (``if TYPE_CHECKING:``,
``def __repr__``) whose header line carries it, body included.  It
excuses that statement from both reports, and nothing else.

The traced suite takes about 7 minutes on a 2-vCPU host, against
about 2 untraced, so it is not part of tier 1.
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


def _first_line(node: ast.stmt) -> int:
    """A statement's first line, decorators included."""
    return min([node.lineno]
               + [d.lineno for d in getattr(node, "decorator_list", ())])


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


class ArcTracer:
    """Record the arcs executed in files under ``root``.

    An arc is a ``(previous line, line)`` pair within one frame.
    ``arcs`` maps a file name to the set of its arcs.  A call enters at
    its first line (``def`` or decorator) or, for a resumed generator,
    at the line it last yielded on; a return leaves to line ``0``.  An
    exception passing through a frame wipes its previous line, so the
    next arc starts at ``None``: a handler is never mistaken for a
    test's else arm.  The previous line is keyed by the frame's ``id``
    and dropped when the frame returns, so tracing keeps no frame
    alive.  ``stop`` restores whatever tracer was installed before
    ``start``, so a traced suite may run a traced test."""

    def __init__(self, root: Path) -> None:
        self.prefix = str(root.resolve())
        self.arcs: dict[str, set[tuple[int | None, int]]] = {}
        self._local: dict[str, object] = {}
        self._last: dict[int, int | None] = {}
        self._previous: tuple[object, object] = (None, None)

    def start(self) -> None:
        self._previous = (sys.gettrace(), threading.gettrace())
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])
        self._last.clear()

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            local = self._local[filename]
        except KeyError:
            local = self._local[filename] = self._tracer_for(filename)
        if local is not None:
            self._last[id(frame)] = frame.f_lineno
        return local

    def _tracer_for(self, filename: str):
        if not filename.startswith(self.prefix):
            return None
        add = self.arcs.setdefault(filename, set()).add
        last = self._last

        def local(frame, event, arg):
            key = id(frame)
            if event == "line":
                line = frame.f_lineno
                add((last.get(key), line))
                last[key] = line
            elif event == "return":
                add((last.pop(key, None), 0))
            elif event == "exception":
                last[key] = None
            return local

        return local


def executed(arcs: set[tuple[int | None, int]]) -> set[int]:
    """The lines ``arcs`` land on: every line that ran."""
    return {line for _, line in arcs if line}


def branch_tests(source: str) -> list[tuple[int, range, range]]:
    """``(header line, test lines, body lines)`` of every ``if``/``elif``
    and ``while`` test in ``source``, except ``while <constant>`` and
    those a pragma excuses."""
    excused = excused_lines(source)
    tests = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.If, ast.While)) or node.lineno in excused:
            continue
        if isinstance(node, ast.While) and isinstance(node.test, ast.Constant):
            continue
        tests.append((node.lineno,
                      range(node.test.lineno, node.test.end_lineno + 1),
                      range(_first_line(node.body[0]),
                            node.body[-1].end_lineno + 1)))
    return sorted(tests)


def one_way(source: str,
            arcs: set[tuple[int | None, int]]) -> list[tuple[int, str]]:
    """Each reached ``if``/``while`` test of ``source`` that ``arcs``
    never saw go both ways, with the arm it took: ``"always true"``
    when every arc leaving a line of the test lands in its body,
    ``"always false"`` when none does, ``"never finished"`` when it
    only ever raised.  A test is reached when one of its lines ran."""
    ran = executed(arcs)
    found = []
    for header, test, body in branch_tests(source):
        if ran.isdisjoint(test):
            continue
        ends = {end for start, end in arcs
                if start in test and end not in test}
        into_body = any(end in body for end in ends)
        elsewhere = any(end not in body for end in ends)
        if not (into_body and elsewhere):
            found.append((header, "always true" if into_body else
                          "always false" if elsewhere else "never finished"))
    return found


def unexecuted(paths: Iterable[Path],
               arcs: dict[str, set[tuple[int | None, int]]]
               ) -> dict[Path, list[int]]:
    """Each file's executable lines that ``arcs`` never land on."""
    return {path: sorted(executable_lines(path)
                         - executed(arcs.get(str(path.resolve()), set())))
            for path in paths}


def _run_suite(tracer: ArcTracer) -> int:
    import pytest

    sys.path.insert(0, str(SRC.parent))
    tracer.start()
    try:
        return int(pytest.main(["-x", "-q", "-p", "no:cacheprovider",
                                "--hypothesis-seed=0",
                                str(ROOT / "tests")]))
    finally:
        tracer.stop()


def audit(root: Path, arcs: dict[str, set[tuple[int | None, int]]]
          ) -> tuple[list[str], int, int]:
    """The executed/total count, then a line per unexecuted line of
    every ``*.py`` under ``root``, then the count of reached
    ``if``/``while`` tests and a line per one-way test; how many
    unexecuted lines no pragma excuses; and how many tests went one
    way."""
    paths = sorted(root.rglob("*.py"))
    missed = unexecuted(paths, arcs)
    total = sum(len(executable_lines(path)) for path in paths)
    n_missed = sum(len(lines) for lines in missed.values())
    lines = [f"{total - n_missed}/{total} executable lines executed"]
    branches: list[str] = []
    offenders = reached = 0
    for path in paths:
        source = path.read_text()
        text = source.splitlines()
        name = path.relative_to(root)
        excused = excused_lines(source)
        for line in missed[path]:
            tag = "excused" if line in excused else "UNEXECUTED"
            offenders += line not in excused
            lines.append(f"  {tag:10} {name}:{line}: "
                         f"{text[line - 1].strip()}")
        file_arcs = arcs.get(str(path.resolve()), set())
        ran = executed(file_arcs)
        reached += sum(not ran.isdisjoint(test)
                       for _, test, _ in branch_tests(source))
        for line, arm in one_way(source, file_arcs):
            branches.append(f"  ONE-WAY    {name}:{line}: "
                            f"{text[line - 1].strip()}  [{arm}]")
    summary = (f"{reached - len(branches)}/{reached} reached if/while "
               f"tests went both ways")
    return lines + [summary] + branches, offenders, len(branches)


def main() -> int:
    tracer = ArcTracer(SRC)
    status = _run_suite(tracer)
    report, offenders, one_way_tests = audit(SRC, tracer.arcs)
    print(f"\nsrc/repro: {report[0]} by tier 1")
    print("\n".join(report[1:]))
    print(f"{offenders} unexecuted line(s) without a pragma")
    print(f"{one_way_tests} if/while test(s) that went one way")
    if status != 0:
        print(f"the suite failed (pytest exit {status})")
    return 1 if offenders or one_way_tests or status else 0


if __name__ == "__main__":
    sys.exit(main())
