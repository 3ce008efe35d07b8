"""The perf ledger's hooks stay wired to the program.

``benchmarks/perf/spans.py`` wraps program functions by qualified name
and reads counters the program keeps (:data:`spans.LAYERS` and its
after-call hooks).  A rename or a moved counter would make a layer read
0 without failing anything, so this test installs the recorder, runs a
small simulated cluster and one sharded ``schedule()`` call, and checks
that every layer resolved, that the runtime and scheduler hooks counted
work, and that uninstalling restored every original.  The module is
loaded from its file and never modified.
"""

import importlib.util
from pathlib import Path

from repro.config import ShardConfig
from repro.core.profiler import JobMetrics
from repro.core.runtime import HarmonyRuntime
from repro.experiments.common import scaled_workload
from repro.shard.scheduler import ShardedScheduler

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" \
    / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perf_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_every_layer_resolves_counts_and_uninstalls():
    spans = load_spans()
    recorder = spans.SpanRecorder()
    undo = spans.install(recorder)
    try:
        # One undo entry per layer plus the counted Simulator.step.
        assert len(undo) == len(spans.LAYERS) + 1
        for owner, attr, original in undo:
            assert current(owner, attr) is not original
        jobs, machines = scaled_workload(0.1, 1)
        HarmonyRuntime(machines, jobs).run()
        pool = [JobMetrics(job_id=f"j{i}", cpu_work=float(3 * i + 2),
                           t_net=0.4 + i / 10, m_observed=16)
                for i in range(8)]
        sharded = ShardedScheduler(shard=ShardConfig(n_cells=2))
        assert sharded.schedule(pool, 24) is not None
    finally:
        spans.uninstall(undo)
    for owner, attr, original in undo:
        assert current(owner, attr) is original

    counters = recorder.counters
    assert counters["master.estimate_hits"] \
        + counters["master.estimate_misses"] > 0
    assert counters["sched.prefixes"] > 0
    assert counters["sim.steps"] > 0
    for name in ("sim.run", "runtime.run", "sched.schedule",
                 "shard.schedule", "shard.route"):
        assert recorder.calls[name] > 0, name
