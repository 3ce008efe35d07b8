"""Tests for harmonylint (repro.analysis): each rule family on
small fixtures (positive flagged / negative clean), suppression
comments, the CLI, and self-application to this repository's own
tree."""

import ast
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import AnalysisConfig, Analyzer, REGISTRY
from repro.analysis.cli import main as lint_main
from repro.analysis.findings import FAMILIES, Rule
from repro.analysis.visitors import (
    BaseRule,
    FileContext,
    ImportMap,
    module_name,
    register,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def lint(tmp_path, files, select=()):
    """Write ``files`` (relpath -> source) under ``tmp_path`` and run
    the analyzer over the whole tree."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    config = AnalysisConfig(paths=["."], select=set(select),
                            root=str(tmp_path))
    return Analyzer(config).run()


def rule_ids(report):
    return {finding.rule_id for finding in report.findings}


class TestDetFamily:
    def test_wall_clock_flagged_in_core(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import time

            def now():
                return time.time()
            """})
        assert "DET001" in rule_ids(report)

    def test_wall_clock_alias_resolved(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            from time import perf_counter as pc

            def now():
                return pc()
            """})
        assert "DET001" in rule_ids(report)

    def test_trace_and_benchmarks_exempt(self, tmp_path):
        report = lint(tmp_path, {
            "src/repro/trace/x.py": "import time\nt = time.time()\n",
            "benchmarks/bench_x.py": "import time\nt = time.time()\n"})
        assert "DET001" not in rule_ids(report)

    def test_global_random_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import random

            def pick(items):
                return random.choice(items)
            """})
        assert "DET002" in rule_ids(report)

    def test_seeded_random_instance_clean(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import random

            def make(seed):
                return random.Random(seed)
            """})
        assert "DET002" not in rule_ids(report)

    def test_legacy_numpy_random_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
            """})
        assert "DET003" in rule_ids(report)

    def test_default_rng_clean(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import numpy as np

            def noise(n, seed):
                return np.random.default_rng(seed).random(n)
            """})
        assert "DET003" not in rule_ids(report)

    def test_set_order_escape_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            def order(a, b):
                pending = {a, b}
                out = []
                for item in pending:
                    out.append(item)
                return out
            """})
        assert "DET004" in rule_ids(report)

    def test_sorted_iteration_clean(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            def order(a, b):
                pending = {a, b}
                out = []
                for item in sorted(pending):
                    out.append(item)
                return out
            """})
        assert "DET004" not in rule_ids(report)

    def test_identity_sort_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            def order(groups):
                return sorted(groups, key=id)
            """})
        assert "DET005" in rule_ids(report)

    def test_float_equality_on_score_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            def same(score, ref_score):
                return score == ref_score
            """})
        assert "DET006" in rule_ids(report)

    def test_is_sorted_idiom_clean(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            def is_sorted(times):
                return times == sorted(times)
            """})
        assert "DET006" not in rule_ids(report)

    def test_entropy_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import uuid

            def fresh_id():
                return uuid.uuid4().hex
            """})
        assert "DET007" in rule_ids(report)


SIM_HEADER = "from repro.sim import Simulator\n"


class TestSimFamily:
    def test_sleep_in_sim_module_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": SIM_HEADER + """
import time

def wait():
    time.sleep(1)
"""})
        assert "SIM001" in rule_ids(report)

    def test_sleep_without_sim_import_clean(self, tmp_path):
        """Thread-based runtimes (no repro.sim import) may sleep."""
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import time

            def wait():
                time.sleep(1)
            """})
        assert "SIM001" not in rule_ids(report)

    def test_open_inside_sim_process_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": SIM_HEADER + """
def process(sim):
    with open('x.txt') as fh:
        fh.read()
    yield sim.timeout(1)
"""})
        assert "SIM001" in rule_ids(report)

    def test_config_mutation_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            def tweak(config):
                config.alpha = 2.0
            """})
        assert "SIM002" in rule_ids(report)

    def test_config_construction_clean(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            class Runtime:
                def __init__(self, config):
                    self.config = config
            """})
        assert "SIM002" not in rule_ids(report)

    def test_sim_reentry_from_callback_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": SIM_HEADER + """
class Master:
    def on_job_finished(self, job):
        self.sim.run()
"""})
        assert "SIM003" in rule_ids(report)

    def test_sim_run_at_driver_level_clean(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": SIM_HEADER + """
def drive(sim):
    sim.run()
"""})
        assert "SIM003" not in rule_ids(report)


class TestTrcFamily:
    def test_unbalanced_span_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            def work(tracer):
                span = tracer.begin(0, "COMP")
                do_work()
            """})
        assert "TRC001" in rule_ids(report)

    def test_span_closed_in_finally_clean(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            def work(tracer):
                span = tracer.begin(0, "COMP")
                try:
                    return do_work()
                finally:
                    tracer.end(span)
            """})
        assert "TRC001" not in rule_ids(report)

    def test_undeclared_counter_name_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            def bump(tracer):
                tracer.counter("totally.bogus.name", 1)
            """})
        assert "TRC002" in rule_ids(report)

    def test_declared_counter_name_clean(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            def bump(tracer):
                tracer.counter("faults.detected", 1)
            """})
        assert "TRC002" not in rule_ids(report)

    def test_undeclared_span_name_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            def work(tracer):
                span = tracer.begin(0, "MYSTERY-PHASE")
                tracer.end(span)
            """})
        assert "TRC003" in rule_ids(report)

    def test_conditional_span_name_checks_both_arms(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            def work(self, record, c):
                self._trace_service("disk", "j", "BOGUS" if c else "LOAD",
                                    record, "load")
            """})
        messages = [f.message for f in report.findings
                    if f.rule_id == "TRC003"]
        assert len(messages) == 1 and "'BOGUS'" in messages[0]

    def test_conditional_metric_name_checks_both_arms(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            def bump(tracer, c):
                tracer.counter("faults.detected" if c else "bogus.name")
            """})
        messages = [f.message for f in report.findings
                    if f.rule_id == "TRC002"]
        assert len(messages) == 1 and "'bogus.name'" in messages[0]


class TestSuppression:
    def test_allow_on_same_line(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import time

            def now():
                return time.time()  # harmony: allow[DET001] deliberate
            """})
        assert "DET001" not in rule_ids(report)
        assert any(f.rule_id == "DET001" for f in report.suppressed)

    def test_allow_on_line_above(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import time

            def now():
                # harmony: allow[DET001] deliberate
                return time.time()
            """})
        assert "DET001" not in rule_ids(report)

    def test_allow_is_rule_specific(self, tmp_path):
        """An allow for one rule does not mask another."""
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import time

            def now():
                return time.time()  # harmony: allow[SIM001] wrong id
            """})
        assert "DET001" in rule_ids(report)

    def test_allow_list_of_rules(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import time

            def now():
                return time.time()  # harmony: allow[DET001,DET006] x
            """})
        assert "DET001" not in rule_ids(report)


CONC_MIXED_DISCIPLINE = textwrap.dedent("""
    import threading


    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}

        def put(self, key, value):
            with self._lock:
                self._items[key] = value

        def drop(self, key):
            self._items.pop(key, None)
    """)

CONC_POOL_MUTATION = textwrap.dedent("""
    from concurrent.futures import ThreadPoolExecutor


    class Fan:
        def __init__(self):
            self.results = []

        def work(self, item):
            self.results.append(item)

        def run(self, items):
            with ThreadPoolExecutor(max_workers=4) as pool:
                for item in items:
                    pool.submit(self.work, item)
    """)

CONC_LOCK_CYCLE = textwrap.dedent("""
    import threading


    class Pipeline:
        def __init__(self):
            self._head = threading.Lock()
            self._tail = threading.Lock()

        def forward(self):
            with self._head:
                with self._tail:
                    pass

        def backward(self):
            with self._tail:
                with self._head:
                    pass
    """)


#: Fixtures that must trip each registered rule: the coverage floor
#: the issue asks for (>= 12 distinct rule ids across all families).
_POSITIVE_FIXTURES = {
    "DET001": {"src/repro/core/x.py":
               "import time\nt = time.time()\n"},
    "DET002": {"src/repro/core/x.py":
               "import random\nv = random.random()\n"},
    "DET003": {"src/repro/core/x.py":
               "import numpy as np\nv = np.random.rand(3)\n"},
    "DET004": {"src/repro/core/x.py": textwrap.dedent("""
        def f(a, b):
            out = []
            for item in {a, b}:
                out.append(item)
            return out
        """)},
    "DET005": {"src/repro/core/x.py":
               "def f(xs):\n    return sorted(xs, key=id)\n"},
    "DET006": {"src/repro/core/x.py":
               "def f(score, other_score):\n"
               "    return score == other_score\n"},
    "DET007": {"src/repro/core/x.py":
               "import uuid\nv = uuid.uuid4()\n"},
    "SIM001": {"src/repro/core/x.py":
               SIM_HEADER + "import time\ntime.sleep(1)\n"},
    "SIM002": {"src/repro/core/x.py":
               "def f(config):\n    config.x = 1\n"},
    "SIM003": {"src/repro/core/x.py": SIM_HEADER + textwrap.dedent("""
        class M:
            def on_done(self):
                self.sim.run()
        """)},
    "TRC001": {"src/repro/core/x.py": textwrap.dedent("""
        def f(tracer):
            span = tracer.begin(0, "COMP")
        """)},
    "TRC002": {"src/repro/core/x.py":
               "def f(t):\n    t.counter('nope.nope', 1)\n"},
    "TRC003": {"src/repro/core/x.py": textwrap.dedent("""
        def f(t):
            span = t.begin(0, "NOPE")
            t.end(span)
        """)},
    "CONC001": {"src/repro/core/x.py": CONC_MIXED_DISCIPLINE},
    "CONC002": {"src/repro/core/x.py": CONC_POOL_MUTATION},
    "CONC003": {"src/repro/core/x.py": CONC_LOCK_CYCLE},
    "CONC004": {"src/repro/core/x.py":
                SIM_HEADER + "import threading\n"
                             "lock = threading.Lock()\n"},
}


class TestRuleCoverage:
    def test_registry_spans_all_families(self):
        families = {REGISTRY[rule_id].rule.family
                    for rule_id in REGISTRY}
        assert families == set(FAMILIES)
        assert len(REGISTRY) >= 12

    def test_every_fixture_has_a_rule(self):
        assert set(_POSITIVE_FIXTURES) == set(REGISTRY)

    @pytest.mark.parametrize("rule_id", sorted(_POSITIVE_FIXTURES))
    def test_rule_fires_on_fixture(self, rule_id, tmp_path):
        report = lint(tmp_path, _POSITIVE_FIXTURES[rule_id])
        assert rule_id in rule_ids(report)

    def test_twelve_distinct_ids_across_all_families(self, tmp_path):
        seen = set()
        for index, (_rule_id, files) in enumerate(
                sorted(_POSITIVE_FIXTURES.items())):
            case = tmp_path / f"case{index}"
            case.mkdir()
            seen |= rule_ids(lint(case, files))
        assert len(seen) >= 12
        assert {rule_id.rstrip("0123456789")
                for rule_id in seen} == set(FAMILIES)


class TestCli:
    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "x.py").write_text(
            "import time\nt = time.time()\n")
        code = lint_main(["--root", str(tmp_path)])
        assert code == 1
        assert "DET001" in capsys.readouterr().out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "x.py").write_text("x = 1\n")
        assert lint_main(["--root", str(tmp_path)]) == 0

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "x.py").write_text(
            "import time\nt = time.time()\n")
        code = lint_main(["--root", str(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["findings"][0]["rule"] == "DET001"
        assert payload["ok"] is False

    def test_unknown_rule_id_exits_two(self, tmp_path, capsys):
        assert lint_main(["--root", str(tmp_path),
                          "--select", "NOPE999"]) == 2

    def test_missing_path_exits_two_and_names_it(self, tmp_path, capsys):
        """A mistyped path is a usage error, not a clean run over no
        files."""
        (tmp_path / "src").mkdir()
        assert lint_main(["--root", str(tmp_path), "src",
                          "src/repro/cor"]) == 2
        err = capsys.readouterr().err
        assert "src/repro/cor" in err
        assert "'src'" not in err and "src," not in err

    @pytest.mark.parametrize("select", [[], ["--select", "DET002"]])
    def test_unparsable_file_exits_two_naming_file_and_line(
            self, tmp_path, capsys, select):
        """A file that does not parse is a usage error under any rule
        selection, never a finding of some rule."""
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "ok.py").write_text("x = 1\n")
        (tmp_path / "src" / "broken.py").write_text("x = 1\ndef f(:\n")
        assert lint_main(["--root", str(tmp_path), *select]) == 2
        captured = capsys.readouterr()
        assert "src/broken.py:2: file does not parse" in captured.err
        assert "DET001" not in captured.out + captured.err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "SIM001", "TRC001", "CONC001"):
            assert rule_id in out

    def test_output_file_written(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "x.py").write_text("x = 1\n")
        target = tmp_path / "report.json"
        lint_main(["--root", str(tmp_path), "--format", "json",
                   "--output", str(target)])
        assert json.loads(target.read_text())["ok"] is True


class TestSelfApplication:
    def test_own_tree_is_clean(self):
        """The linter applied to this repository: every finding is
        fixed or suppressed inline with a justification."""
        config = AnalysisConfig(paths=["src", "benchmarks"],
                                root=REPO_ROOT)
        report = Analyzer(config).run()
        assert report.ok, "\n".join(
            finding.render() for finding in report.findings)
        assert report.n_files > 100

    def test_injected_wall_clock_fails_ci_style(self, tmp_path):
        """The acceptance scenario: an un-suppressed time.time() in
        core/ makes ``python -m repro lint --format=json`` exit 1."""
        bad = tmp_path / "src" / "repro" / "core"
        bad.mkdir(parents=True)
        (bad / "freshly_broken.py").write_text(
            "import time\n\n\ndef now():\n    return time.time()\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--format=json",
             "--root", str(tmp_path)],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        flagged = {f["rule"] for f in payload["findings"]}
        assert "DET001" in flagged


class TestConcFamily:
    def test_mixed_discipline_flagged(self, tmp_path):
        report = lint(tmp_path,
                      {"src/repro/core/x.py": CONC_MIXED_DISCIPLINE},
                      select=["CONC001"])
        assert "CONC001" in rule_ids(report)
        assert "Store._items" in report.findings[0].message
        assert "Store._lock" in report.findings[0].message

    def test_unguarded_read_flagged(self, tmp_path):
        """The PSServer pattern: a read outside the lock of a field
        that is mutated under it."""
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading


            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._seen = {}

                def mark(self, key):
                    with self._lock:
                        self._seen[key] = True

                def peek(self, key):
                    return key in self._seen
            """}, select=["CONC001"])
        assert "CONC001" in rule_ids(report)
        assert "read" in report.findings[0].message

    def test_consistent_discipline_clean(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading


            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, key, value):
                    with self._lock:
                        self._items[key] = value

                def drop(self, key):
                    with self._lock:
                        self._items.pop(key, None)
            """}, select=["CONC001"])
        assert not report.findings

    def test_try_finally_acquire_counts_as_guarded(self, tmp_path):
        """Manual acquire()/release() in try/finally is the same
        discipline as ``with`` — no finding."""
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading


            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, key, value):
                    with self._lock:
                        self._items[key] = value

                def drop(self, key):
                    self._lock.acquire()
                    try:
                        self._items.pop(key, None)
                    finally:
                        self._lock.release()
            """}, select=["CONC001"])
        assert not report.findings

    def test_release_before_write_flagged(self, tmp_path):
        """A write *after* the finally-release is outside the lock."""
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading


            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, key, value):
                    with self._lock:
                        self._items[key] = value

                def drop(self, key):
                    self._lock.acquire()
                    try:
                        pass
                    finally:
                        self._lock.release()
                    self._items.pop(key, None)
            """}, select=["CONC001"])
        assert "CONC001" in rule_ids(report)

    def test_nested_with_counts_as_guarded(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading


            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self._x = 0

                def bump(self):
                    with self._a:
                        with self._b:
                            self._x += 1

                def read(self):
                    with self._b:
                        return self._x
            """}, select=["CONC001", "CONC003"])
        assert not report.findings

    def test_private_helper_inherits_lock_context(self, tmp_path):
        """A private method only ever called under the lock is
        guarded by propagation, not flagged."""
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading


            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self):
                    with self._lock:
                        self._bump_locked()

                def _bump_locked(self):
                    self._n += 1
            """}, select=["CONC001"])
        assert not report.findings

    def test_pool_submit_unguarded_mutation_flagged(self, tmp_path):
        """The acceptance scenario: a ThreadPoolExecutor fan-out whose
        callable mutates shared state without a lock is detected."""
        report = lint(tmp_path,
                      {"src/repro/core/x.py": CONC_POOL_MUTATION},
                      select=["CONC002"])
        assert "CONC002" in rule_ids(report)
        assert "unsynchronized" in report.findings[0].message

    def test_thread_target_captured_mutation_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading


            class Launcher:
                def run(self):
                    errors = []

                    def worker():
                        errors.append(1)

                    thread = threading.Thread(target=worker)
                    thread.start()
                    return errors
            """}, select=["CONC002"])
        assert "CONC002" in rule_ids(report)
        assert "errors" in report.findings[0].message

    def test_thread_target_guarded_by_local_lock_clean(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading


            class Launcher:
                def run(self):
                    lock = threading.Lock()
                    errors = []

                    def worker():
                        with lock:
                            errors.append(1)

                    thread = threading.Thread(target=worker)
                    thread.start()
                    return errors
            """}, select=["CONC002"])
        assert not report.findings

    def test_thread_local_state_clean(self, tmp_path):
        """Objects constructed inside the thread body are thread-local
        and need no synchronization."""
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading


            class Launcher:
                def run(self):
                    def worker():
                        scratch = []
                        scratch.append(1)
                        return scratch

                    thread = threading.Thread(target=worker)
                    thread.start()
            """}, select=["CONC002"])
        assert not report.findings

    def test_queue_is_threadsafe_by_contract(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import queue
            import threading


            class Launcher:
                def run(self):
                    results = queue.Queue()

                    def worker():
                        results.put(1)

                    thread = threading.Thread(target=worker)
                    thread.start()
                    return results
            """}, select=["CONC002"])
        assert not report.findings

    def test_pool_submit_guarded_method_clean(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading
            from concurrent.futures import ThreadPoolExecutor


            class Fan:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.results = []

                def work(self, item):
                    with self._lock:
                        self.results.append(item)

                def run(self, items):
                    with ThreadPoolExecutor(max_workers=4) as pool:
                        for item in items:
                            pool.submit(self.work, item)
            """}, select=["CONC002"])
        assert not report.findings

    def test_lock_order_cycle_flagged(self, tmp_path):
        """The acceptance scenario: two methods acquiring the same
        pair of locks in opposite orders is a deliberate deadlock."""
        report = lint(tmp_path,
                      {"src/repro/core/x.py": CONC_LOCK_CYCLE},
                      select=["CONC003"])
        assert "CONC003" in rule_ids(report)
        assert "lock-order cycle" in report.findings[0].message

    def test_cross_file_lock_order_cycle_flagged(self, tmp_path):
        """The acquisition graph is global: a cycle spanning two
        classes in two files is still found."""
        report = lint(tmp_path, {
            "src/repro/core/a.py": """
                import threading

                first = threading.Lock()
                second = threading.Lock()


                def forward():
                    with first:
                        with second:
                            pass
                """,
            "src/repro/core/b.py": """
                from repro.core.a import first, second


                def backward():
                    with second:
                        with first:
                            pass
                """}, select=["CONC003"])
        assert "CONC003" in rule_ids(report)

    def test_consistent_lock_order_clean(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading


            class Pipeline:
                def __init__(self):
                    self._head = threading.Lock()
                    self._tail = threading.Lock()

                def forward(self):
                    with self._head:
                        with self._tail:
                            pass

                def also_forward(self):
                    with self._head:
                        with self._tail:
                            pass
            """}, select=["CONC003"])
        assert not report.findings

    def test_threading_in_sim_module_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/sim/x.py":
                                 "import threading\n"
                                 "lock = threading.Lock()\n"},
                      select=["CONC004"])
        assert "CONC004" in rule_ids(report)

    def test_threading_outside_sim_clock_clean(self, tmp_path):
        report = lint(tmp_path, {"src/repro/ps/x.py":
                                 "import threading\n"
                                 "lock = threading.Lock()\n"},
                      select=["CONC004"])
        assert not report.findings


class TestImportMap:
    def _imports(self, source, module=None, is_package=False):
        return ImportMap.of(ast.parse(textwrap.dedent(source)),
                            module=module, is_package=is_package)

    def _qualify(self, imports, expr):
        return imports.qualify(ast.parse(expr, mode="eval").body)

    def test_relative_import_in_module(self):
        imports = self._imports("from .cells import Cell\n",
                                module="repro.shard.scheduler")
        assert imports.aliases["Cell"] == "repro.shard.cells.Cell"

    def test_relative_import_in_package_init(self):
        """``from .cells import Cell`` inside ``repro/shard/__init__``
        resolves against the package itself, not its parent."""
        imports = self._imports("from .cells import Cell\n",
                                module="repro.shard", is_package=True)
        assert imports.aliases["Cell"] == "repro.shard.cells.Cell"

    def test_two_level_relative_import(self):
        imports = self._imports(
            "from ..core.profiler import Profiler\n",
            module="repro.shard.scheduler")
        assert imports.aliases["Profiler"] == \
            "repro.core.profiler.Profiler"

    def test_relative_import_beyond_root_unmapped(self):
        imports = self._imports("from ...nowhere import thing\n",
                                module="repro.shard")
        assert "thing" not in imports.aliases

    def test_relative_import_without_module_unmapped(self):
        imports = self._imports("from .cells import Cell\n")
        assert "Cell" not in imports.aliases

    def test_dotted_import_with_alias(self):
        imports = self._imports("import concurrent.futures as cf\n")
        assert self._qualify(imports, "cf.ThreadPoolExecutor") == \
            "concurrent.futures.ThreadPoolExecutor"

    def test_star_import_fallback(self):
        imports = self._imports("from numpy import *\n")
        assert self._qualify(imports, "array") == "numpy.array"

    def test_star_fallback_skips_builtins(self):
        imports = self._imports("from numpy import *\n")
        assert self._qualify(imports, "print") == "print"

    def test_two_star_imports_disable_fallback(self):
        """With two star modules the origin is ambiguous — the bare
        name stays bare rather than guessing."""
        imports = self._imports("from numpy import *\n"
                                "from math import *\n")
        assert self._qualify(imports, "array") == "array"

    def test_module_name_strips_src_and_init(self):
        assert module_name("src/repro/shard/scheduler.py") == \
            "repro.shard.scheduler"
        assert module_name("src/repro/shard/__init__.py") == \
            "repro.shard"


class TestSarifExport:
    def test_sarif_document_structure(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "x.py").write_text(
            "import time\nt = time.time()\n")
        code = lint_main(["--root", str(tmp_path), "--format", "sarif"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "harmonylint"
        result = run["results"][0]
        assert result["ruleId"] == "DET001"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/x.py"
        assert location["region"]["startLine"] == 2
        assert any(rule["id"] == "DET001"
                   for rule in run["tool"]["driver"]["rules"])

    def test_sarif_excludes_suppressed(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "x.py").write_text(
            "import time\n"
            "t = time.time()  # harmony: allow[DET001] fixture\n")
        code = lint_main(["--root", str(tmp_path), "--format", "sarif"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        run = payload["runs"][0]
        assert run["results"] == []
        assert run["properties"]["suppressed"] == 1


class TestDetEscapeForms:
    """Each way set iteration order can escape, one fixture each."""

    @pytest.mark.parametrize("body, description", [
        ("return [item for item in pending]", "comprehension over a set"),
        ("return list(pending)", "list() over a set"),
        ("return pending.pop()", "set.pop() takes an arbitrary element"),
        ("return ','.join(pending)", "str.join over a set"),
        ("return list(pending.union({c}))", "list() over a set"),
    ])
    def test_escape_flagged(self, tmp_path, body, description):
        report = lint(tmp_path, {"src/repro/core/x.py": f"""
            def order(a, b, c):
                pending = {{a, b}}
                {body}
            """}, select=["DET004"])
        assert [finding.message.split(";")[0]
                for finding in report.findings] == [description]

    def test_lambda_identity_sort_key_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            def order(groups):
                return sorted(groups, key=lambda group: hash(group))
            """}, select=["DET005"])
        assert rule_ids(report) == {"DET005"}


class TestSimSetattr:
    def test_setattr_on_a_config_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            def tweak(sim_config):
                setattr(sim_config, "seed", 1)
            """}, select=["SIM002"])
        assert "bypasses frozen" in report.findings[0].message

    def test_setattr_on_an_unnamed_receiver_or_no_args_clean(
            self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            def tweak(configs, pair):
                setattr(configs[0], "seed", 1)
                setattr(**pair)
            """}, select=["SIM002"])
        assert not report.findings


class TestTrcEarlyExit:
    def test_return_between_begin_and_end_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            def f(tracer, flag):
                span = tracer.begin(0, "COMP")
                if flag:
                    return None
                if not flag:
                    raise ValueError(flag)
                tracer.end(span)
            """}, select=["TRC001"])
        assert len(report.findings) == 1
        assert "early exit" in report.findings[0].message
        assert report.findings[0].line == 5


class TestConcThreadEntries:
    """CONC002's ways of handing a callable to another thread, and of
    reaching unsynchronized state from it."""

    def test_timer_positional_callable_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading


            class Launcher:
                def run(self):
                    hits = []

                    def tick():
                        hits.append(1)

                    threading.Timer(1.0, tick).start()
                    return hits
            """}, select=["CONC002"])
        assert "mutates captured 'hits'" in report.findings[0].message

    def test_executor_recognized_by_name(self, tmp_path):
        """An untyped receiver named like a pool is an executor; one
        named otherwise, or reached through an attribute, is not."""
        report = lint(tmp_path, {"src/repro/core/x.py": """
            class Fan:
                def __init__(self):
                    self.results = []

                def work(self, item):
                    self.results.append(item)

                def run(self, worker_pool, jobs, ctx, item):
                    worker_pool.submit(self.work, item)
                    jobs.submit(self.work, item)
                    ctx.pool.submit(self.work, item)
            """}, select=["CONC002"])
        assert [finding.line for finding in report.findings] == [10]
        assert "Fan.work() mutates unguarded state" in \
            report.findings[0].message

    def test_untracked_callables_clean(self, tmp_path):
        """A callable that is not a nested def, a lambda or a method
        reference of a known class is not followed."""
        report = lint(tmp_path, {"src/repro/core/x.py": """
            class Fan:
                def run(self, pool, handlers, other):
                    pool.submit(print, 1)
                    pool.submit(handlers[0], 1)
                    pool.submit(handlers[0].run, 1)
                    pool.submit(other.field.run, 1)
                    pool.submit(self.missing, 1)
            """}, select=["CONC002"])
        assert not report.findings

    def test_method_of_a_local_and_of_a_field_object(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            class Box:
                def __init__(self):
                    self.items = []

                def add(self, item):
                    self.items.append(item)


            class Holder:
                def __init__(self):
                    self.box = Box()


            class Fan:
                def __init__(self):
                    self.holder = Holder()

                def run(self, pool):
                    box = Box()
                    pool.submit(box.add, 1)
                    pool.submit(self.holder.box.add, 1)
            """}, select=["CONC002"])
        assert [finding.line for finding in report.findings] == [21, 22]
        for finding in report.findings:
            assert "Box.add() mutates unguarded state" in finding.message

    def test_thread_body_reaches_unguarded_state(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading


            class Box:
                def __init__(self):
                    self.items = []

                def add(self, item):
                    self.items.append(item)


            class Worker:
                def __init__(self):
                    self.count = 0
                    self.box = Box()

                def bump(self):
                    self.count += 1

                def run(self):
                    local_box = Box()

                    def body():
                        self.count = 1
                        self.bump()
                        self.box.add(1)
                        local_box.add(1)

                    threading.Thread(target=body).start()
            """}, select=["CONC002"])
        message = report.findings[0].message
        # The finding names at most three issues, sorted.
        assert "calls local_box.add() on Box" in message
        assert "calls self.bump() which mutates" in message
        assert "calls self.box.add() on Box" in message

    def test_thread_body_writing_self_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading


            class Worker:
                def run(self):
                    def body():
                        self.count = 1

                    threading.Thread(target=body).start()
            """}, select=["CONC002"])
        assert "mutates self.count" in report.findings[0].message

    def test_helper_chains_are_followed(self, tmp_path):
        """A pooled method is unsafe when a ``self`` helper or a typed
        field's method it calls writes without a lock."""
        report = lint(tmp_path, {"src/repro/core/x.py": """
            class Box:
                def __init__(self):
                    self.items = []

                def keep(self, item):
                    self.items.append(item)


            class Fan:
                def __init__(self):
                    self.box = Box()
                    self.n = 0

                def via_helper(self, item):
                    self.store(item)

                def store(self, item):
                    self.n = item

                def via_field(self, item):
                    self.box.keep(item)

                def run(self, pool):
                    pool.submit(self.via_helper, 1)
                    pool.submit(self.via_field, 1)
            """}, select=["CONC002"])
        assert [finding.line for finding in report.findings] == [25, 26]

    def test_mutual_recursion_terminates(self, tmp_path):
        """The helper walk stops at a fixed depth, so methods that call
        each other are analysed in bounded time."""
        report = lint(tmp_path, {"src/repro/core/x.py": """
            class Ping:
                def ping(self, n):
                    return self.pong(n - 1)

                def pong(self, n):
                    return self.ping(n - 1)

                def run(self, pool):
                    pool.submit(self.ping, 8)
            """}, select=["CONC002"])
        assert not report.findings


class TestConcModelEdges:
    def test_lock_order_cycle_through_field_calls(self, tmp_path):
        """Two classes each call into the other while holding their own
        lock; the cycle runs through helper and field calls."""
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading


            class Inner:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.outer = Outer()

                def work(self):
                    with self._lock:
                        pass

                def back(self):
                    with self._lock:
                        self.outer.poke()


            class Outer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.inner = Inner()

                def run(self):
                    with self._lock:
                        self.step()

                def step(self):
                    self.helper()
                    self.inherited()
                    self.step()

                def helper(self):
                    self.inner.work()

                def poke(self):
                    with self._lock:
                        pass
            """}, select=["CONC003"])
        assert rule_ids(report) == {"CONC003"}
        assert "Inner._lock" in report.findings[0].message
        assert "Outer._lock" in report.findings[0].message

    def test_reentrant_acquire_adds_no_edge(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading


            class Box:
                def __init__(self):
                    self._lock = threading.RLock()
                    self.n = 0

                def bump(self):
                    with self._lock:
                        with self._lock:
                            self.n += 1
            """}, select=["CONC001", "CONC003"])
        assert not report.findings

    def test_function_local_lock_cycle_flagged(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading


            def shuffle(first: threading.Lock, second: threading.Lock):
                with first:
                    with second:
                        pass
                with second:
                    with first:
                        pass
            """}, select=["CONC003"])
        assert "shuffle:first" in report.findings[0].message

    def test_annotated_and_listed_fields(self, tmp_path):
        """Fields typed by annotation (``Optional``, ``None | T``, an
        annotated lock, an unparsable string) or by a list literal of
        constructor calls; a lock field rebound outside ``__init__``
        is not itself a guarded field."""
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading
            from typing import Optional


            class Box:
                def __init__(self):
                    self.items = []

                def add(self, item):
                    self.items.append(item)


            class Fan:
                def __init__(self):
                    self._lock: threading.Lock = make_lock()
                    self.first: Optional[Box] = None
                    self.second: None | Box = None
                    self.odd: "not (valid" = None
                    self.boxes = [Box()]
                    self.n = 0

                def reset(self):
                    self._lock = threading.Lock()
                    with self._lock:
                        self.n = 0

                def run(self, pool):
                    pool.submit(self.first.add, 1)
                    pool.submit(self.second.add, 1)
            """}, select=["CONC001", "CONC002"])
        assert [(finding.rule_id, finding.line)
                for finding in report.findings] == [
                    ("CONC002", 29), ("CONC002", 30)]

    def test_local_class_and_async_statements_scanned(self, tmp_path):
        """A class defined in a method is a local name, statements
        inside ``async with``/``async for`` are scanned, and a local
        with an unparsable string annotation is skipped."""
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading


            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, key, value):
                    LOG.append(key)
                    with self._lock:
                        self._items[key] = value

                async def drain(self, source):
                    class Local:
                        pass

                    count: "not (valid" = 0
                    async for key in source:
                        self._items.pop(key, None)
                    return Local, count
            """}, select=["CONC001"])
        assert {finding.line for finding in report.findings} == {21}


class TestEngineAndRegistry:
    def test_an_absolute_file_path_is_linted(self, tmp_path, capsys):
        (tmp_path / "x.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "y.py").write_text("import time\nt = time.time()\n")
        assert lint_main(["--root", str(tmp_path),
                          str(tmp_path / "x.py")]) == 1
        out = capsys.readouterr().out
        assert "x.py:2" in out and "y.py" not in out

    def test_rule_outside_a_known_family_rejected(self):
        with pytest.raises(ValueError, match="not in a known family"):
            Rule("XYZ001", "no such family")

    def test_duplicate_rule_id_rejected(self):
        existing = REGISTRY["DET001"]

        class Duplicate(BaseRule):
            rule = Rule("DET001", "same id again")

        with pytest.raises(ValueError, match="duplicate rule id DET001"):
            register(Duplicate)
        assert REGISTRY["DET001"] is existing

    def test_finding_on_a_node_without_a_position(self):
        ctx = FileContext.parse("src/x.py", "x = 1\n")
        finding = ctx.finding(REGISTRY["DET001"].rule, ctx.tree, "whole")
        assert (finding.line, finding.snippet) == (0, "")


class TestModelShapes:
    """Source shapes the call-graph model meets rarely: each one is
    either skipped or modelled, never mistaken for another."""

    @staticmethod
    def _function(source):
        from repro.analysis.callgraph import scan_function

        ctx = FileContext.parse("src/repro/core/x.py",
                                textwrap.dedent(source))
        return scan_function(ctx.tree.body[-1], ctx.imports)

    def test_bare_and_non_name_annotations(self):
        model = self._function("""
            def f():
                total: int
                done: None = None
                total = 0
            """)
        assert {"total", "done"} <= model.local_names
        assert model.local_types == {"total": "int"}

    def test_attribute_and_nested_loop_targets(self):
        model = self._function("""
            from repro.core.job import Job


            def f(self, pairs):
                jobs = [Job() for _ in pairs]
                for self.cursor in pairs:
                    pass
                for (a, b), job in zip(pairs, jobs):
                    pass
            """)
        assert "cursor" not in model.local_names
        assert model.local_types == {"job": "repro.core.job.Job"}

    def test_a_field_annotated_with_a_non_name_has_no_type(self):
        from repro.analysis.callgraph import ClassModel

        ctx = FileContext.parse("src/repro/core/x.py", textwrap.dedent("""
            from repro.core.job import Job


            class Holder:
                def __init__(self):
                    self.job: Job = Job()
                    self.limit: None = None
            """))
        model = ClassModel(ctx, ctx.tree.body[-1])
        assert model.field_types == {"job": "repro.core.job.Job"}

    def test_thread_keywords_and_self_calls_of_a_guarded_method(
            self, tmp_path):
        """A ``target=`` after other keywords is found; a Thread with
        no callable hands nothing over; a guarded method that recurses
        or calls an inherited method stays clean."""
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading


            class Base:
                pass


            class Worker(Base):
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def work(self):
                    with self._lock:
                        self.count += 1
                    self.log()
                    self.work()

                def bump(self):
                    self.count += 1

                def start(self):
                    threading.Thread(daemon=True, target=self.work)
                    threading.Thread(daemon=True)
                    threading.Thread(daemon=True, target=self.bump)
            """}, select=["CONC002"])
        assert [finding.line for finding in report.findings] == [26]
        assert "Worker.bump() mutates unguarded state" in \
            report.findings[0].message

    def test_reentry_and_a_cycle_off_the_start_lock(self, tmp_path):
        """Re-acquiring a held RLock (directly, through a call, or in a
        helper only ever called under it) adds no edge, nor does a
        call on a field of unknown class; the b/c cycle is found from
        a, off its path; a lock bound to a module attribute is not a
        module lock."""
        report = lint(tmp_path, {"src/repro/core/x.py": """
            import threading
            import types

            shared = types.SimpleNamespace()
            shared.lock = threading.Lock()


            class Store:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self._c = threading.Lock()
                    self._r = threading.RLock()
                    self.sink = make_sink()

                def reenter(self):
                    with self._r:
                        with self._r:
                            self._again()

                def _again(self):
                    with self._r:
                        self.sink.flush()

                def ab(self):
                    with self._a:
                        with self._b:
                            pass

                def bc(self):
                    with self._b:
                        with self._c:
                            pass

                def cb(self):
                    with self._c:
                        with self._b:
                            pass
            """}, select=["CONC003"])
        [finding] = report.findings
        assert "_b" in finding.message and "_c" in finding.message
        assert "_r" not in finding.message and "_a" not in finding.message

    def test_run_on_a_non_simulator_receiver_is_clean(self, tmp_path):
        report = lint(tmp_path, {"src/repro/core/x.py": SIM_HEADER + """
def process(sim, worker):
    yield sim.timeout(1)
    worker.run()
"""}, select=["SIM003"])
        assert not report.findings

    def test_handles_outside_local_names_are_not_tracked(self, tmp_path):
        """TRC001 follows span handles bound to local names; one kept
        on an attribute is not followed.  A service helper called
        without its span-name argument has no name to check."""
        report = lint(tmp_path, {"src/repro/core/x.py": """
            class Probe:
                def run(self, tracer, track, flag):
                    self.handle = tracer.begin(track, "COMP")
                    if flag:
                        return None
                    tracer.end(self.handle)

                def serve(self, group):
                    group._trace_service("cpu", "j1")
            """}, select=["TRC001", "TRC003"])
        assert not report.findings

    def test_module_names_of_a_directory_and_a_bare_relative_import(
            self):
        assert module_name("src/repro/shard") == "repro.shard"
        imports = ImportMap.of(ast.parse("from . import cells\n"),
                               module="repro.shard.scheduler")
        assert imports.aliases["cells"] == "repro.shard.cells"
