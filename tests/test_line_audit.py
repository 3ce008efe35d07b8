"""The tracing, line-listing and branch-listing core of
``benchmarks/line_audit.py``, run over a small fixture module instead
of the whole suite."""

import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "benchmarks" / "line_audit.py"

FIXTURE = textwrap.dedent('''\
    import threading
    from typing import TYPE_CHECKING

    if TYPE_CHECKING:  # pragma: no cover - import cycle guard
        from collections import OrderedDict


    def branch(flag):
        if flag:
            return "taken"
        return "not taken"


    def on_worker(out):
        for n in (1, 2):
            if n == 1:
                out.append("worker line")


    def grade(n):
        if n > 10:
            return "big"
        elif n > 5:
            return "medium"
        else:
            return "small"


    def countdown(n):
        while n > 0:
            n -= 1
        return n


    def spans(a, b):
        if (a
                and b):
            return "both"
        return "not both"


    def drain(items):
        while True:
            if not items:
                return
            items.pop()


    def guarded(value):
        try:
            if value.flag:
                return "set"
        except AttributeError:
            return "missing"


    class Flagged:
        flag = True


    def never_called():
        return "unexecuted"


    class Box:
        def __repr__(self):  # pragma: no cover - debug aid
            return "debug repr"


    def main():
        branch(True)
        assert [grade(n) for n in (11, 6, 1)] == ["big", "medium", "small"]
        assert countdown(2) == 0
        assert [spans(True, True), spans(False, True)] == ["both",
                                                           "not both"]
        drain([1, 2])
        assert [guarded(Flagged()), guarded(None)] == ["set", "missing"]
        out = []
        worker = threading.Thread(target=on_worker, args=(out,))
        worker.start()
        worker.join()
        return out
    ''')


def _tool():
    spec = importlib.util.spec_from_file_location("line_audit", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(text):
    """1-based number of the fixture line holding ``text``."""
    (number,) = [index for index, line in
                 enumerate(FIXTURE.splitlines(), 1) if text in line]
    return number


def _trace_fixture(tool, tmp_path):
    path = tmp_path / "fixture_module.py"
    path.write_text(FIXTURE)
    tracer = tool.ArcTracer(tmp_path)
    tracer.start()
    try:
        spec = importlib.util.spec_from_file_location("fixture_module",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.main() == ["worker line"]
    finally:
        tracer.stop()
    return path, tracer


def test_reports_exactly_the_unexecuted_lines(tmp_path):
    tool = _tool()
    path, tracer = _trace_fixture(tool, tmp_path)
    assert tool.unexecuted([path], tracer.arcs) == {path: sorted([
        _line("from collections import OrderedDict"),
        _line('return "not taken"'),
        _line('return "unexecuted"'),
        _line('return "debug repr"'),
    ])}


def test_marked_statements_excuse_their_whole_body(tmp_path):
    tool = _tool()
    path, tracer = _trace_fixture(tool, tmp_path)
    excused = tool.excused_lines(FIXTURE)
    assert excused == {
        _line("if TYPE_CHECKING:"),
        _line("from collections import OrderedDict"),
        _line("def __repr__"),
        _line('return "debug repr"'),
    }
    offenders = set(tool.unexecuted([path], tracer.arcs)[path]) - excused
    assert offenders == {_line('return "not taken"'),
                         _line('return "unexecuted"')}


def test_a_pragma_without_a_reason_excuses_nothing():
    tool = _tool()
    assert tool.excused_lines("x = 1  # pragma: no cover\n") == set()
    assert tool.excused_lines("x = 1  # pragma: no cover - why\n") == {1}


def test_lines_run_on_a_worker_thread_count(tmp_path):
    tool = _tool()
    path, tracer = _trace_fixture(tool, tmp_path)
    worker_line = _line('out.append("worker line")')
    assert worker_line in tool.executable_lines(path)
    assert worker_line in tool.executed(tracer.arcs[str(path.resolve())])


def test_audit_covers_every_file_under_the_root(tmp_path):
    """No package list: a top-level module and a nested one are both
    audited, and only the unexcused line counts as an offender."""
    tool = _tool()
    (tmp_path / "pkg" / "deep").mkdir(parents=True)
    (tmp_path / "top.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "deep" / "inner.py").write_text(
        "y = 2  # pragma: no cover - debug aid\n")
    report, offenders, one_way = tool.audit(tmp_path, {})
    assert report == [
        "0/2 executable lines executed",
        "  excused    pkg/deep/inner.py:1: "
        "y = 2  # pragma: no cover - debug aid",
        "  UNEXECUTED top.py:1: x = 1",
        "0/0 reached if/while tests went both ways",
    ]
    assert (offenders, one_way) == (1, 0)


def test_only_the_one_way_tests_are_reported(tmp_path):
    """``branch(True)`` never takes its else arm, and ``guarded``'s test
    took its body once and raised once: an exception leaving the test
    line is not its else arm.  The ``if``/``elif``/``else`` chain, the
    ``while`` loop that exits normally, the test spanning two lines,
    the ``if`` inside ``while True`` (which is skipped itself) and the
    ``if`` run on a worker thread all went both ways."""
    tool = _tool()
    path, tracer = _trace_fixture(tool, tmp_path)
    arcs = tracer.arcs[str(path.resolve())]
    assert tool.one_way(FIXTURE, arcs) == [
        (_line("if flag:"), "always true"),
        (_line("if value.flag:"), "always true"),
    ]
    tested = [header for header, _, _ in tool.branch_tests(FIXTURE)]
    assert _line("while True:") not in tested
    assert _line("if TYPE_CHECKING:") not in tested
    assert _line("if n == 1:") in tested
    (spanning,) = [test for header, test, _ in tool.branch_tests(FIXTURE)
                   if header == _line("if (a")]
    assert list(spanning) == [_line("if (a"), _line("and b):")]


def test_a_test_that_never_finished_or_never_entered(tmp_path):
    """A test that only raised took neither arm; one whose arcs all
    leave past its body is always false."""
    tool = _tool()
    source = textwrap.dedent('''\
        def check(value):
            try:
                if value.flag:
                    return "set"
            except AttributeError:
                return "missing"
            return "unset"
        ''')
    header, body = 3, 4
    handler, after = 6, 7
    assert tool.one_way(source, {(header, body), (body, 0)}) == []
    assert tool.one_way(source, {(None, header), (header, after)}) == [
        (header, "always false")]
    assert tool.one_way(source, {(2, header), (None, handler)}) == [
        (header, "never finished")]
    assert tool.one_way(source, {(2, 5)}) == []
    path = tmp_path / "check_module.py"
    path.write_text(source)
    report, offenders, one_way = tool.audit(
        tmp_path, {str(path.resolve()): {(1, 2), (2, header),
                                         (header, body), (body, 0)}})
    assert report[-2:] == [
        "0/1 reached if/while tests went both ways",
        "  ONE-WAY    check_module.py:3: if value.flag:  [always true]",
    ]
    assert one_way == 1
