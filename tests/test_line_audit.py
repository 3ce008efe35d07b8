"""The tracing and line-listing core of ``benchmarks/line_audit.py``,
run over a small fixture module instead of the whole suite."""

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
        out.append("worker line")


    def never_called():
        return "unexecuted"


    class Box:
        def __repr__(self):  # pragma: no cover - debug aid
            return "debug repr"


    def main():
        branch(True)
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
    tracer = tool.LineTracer(tmp_path)
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
    assert tool.unexecuted([path], tracer.hits) == {path: sorted([
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
    offenders = set(tool.unexecuted([path], tracer.hits)[path]) - excused
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
    assert worker_line in tracer.hits[str(path.resolve())]


def test_audit_covers_every_file_under_the_root(tmp_path):
    """No package list: a top-level module and a nested one are both
    audited, and only the unexcused line counts as an offender."""
    tool = _tool()
    (tmp_path / "pkg" / "deep").mkdir(parents=True)
    (tmp_path / "top.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "deep" / "inner.py").write_text(
        "y = 2  # pragma: no cover - debug aid\n")
    report, offenders = tool.audit(tmp_path, {})
    assert report == [
        "0/2 executable lines executed",
        "  excused    pkg/deep/inner.py:1: "
        "y = 2  # pragma: no cover - debug aid",
        "  UNEXECUTED top.py:1: x = 1",
    ]
    assert offenders == 1
