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
from repro.analysis.findings import FAMILIES
from repro.analysis.visitors import ImportMap, module_name

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
