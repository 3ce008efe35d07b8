"""Observability demo: a traced multi-job run, exported for Perfetto.

Runs a small Harmony workload with the :mod:`repro.trace` layer
enabled, writes a Chrome-trace JSON (load it at https://ui.perfetto.dev
or ``chrome://tracing``) plus the metrics-registry CSV, and verifies
the §IV-A pipelining visually *and* numerically: on a machine set
hosting co-located jobs, COMP spans of one job overlap COMM spans of
another (that is Harmony's whole point — "the CPU subtask of one job
runs while the network subtask of another is in flight").
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.config import SimConfig
from repro.core.runtime import HarmonyRuntime
from repro.experiments.common import scaled_workload
from repro.metrics.export import export_counters
from repro.metrics.reporting import format_table
from repro.trace.export import write_chrome_trace

#: Jobs beyond this count only stretch the demo run without making the
#: trace more readable.
_MAX_JOBS = 8

#: Where the trace and the counters CSV are written (CI uploads the
#: trace from here).
OUT_DIR = "results/trace"


@dataclass
class TraceDemoResult:
    n_jobs: int
    n_machines: int
    makespan_seconds: float
    n_spans: int
    n_instants: int
    #: Total traced seconds per span category (comp, comm, wait, ...).
    category_seconds: dict
    #: Seconds during which a COMP span of one job overlapped a COMM
    #: span of a *different* co-located job, summed over machine sets.
    comp_comm_overlap_seconds: float
    steps_completed: float
    bytes_pushed: float
    trace_path: Path
    counters_path: Path


def _job_of_lane(tracer, span) -> str:
    """The job id encoded in a lane's thread name ("cpu · <job>")."""
    label = tracer.thread_names.get((span.track.pid, span.track.tid), "")
    return label.split(" · ", 1)[1] if " · " in label else label


def _overlap_seconds(tracer) -> float:
    """Σ |COMP(job a) ∩ COMM(job b)| over co-located job pairs a ≠ b."""
    by_key: dict = {}
    for span in tracer.spans:
        if span.cat not in ("comp", "comm"):
            continue
        key = (span.track.pid, span.cat, _job_of_lane(tracer, span))
        by_key.setdefault(key, []).append((span.start, span.end))
    total = 0.0
    for (pid, cat, job), comp_spans in by_key.items():
        if cat != "comp":
            continue
        for (other_pid, other_cat, other_job), comm_spans \
                in by_key.items():
            if (other_pid != pid or other_cat != "comm"
                    or other_job == job):
                continue
            for lo, hi in comp_spans:
                for lo2, hi2 in comm_spans:
                    total += max(0.0, min(hi, hi2) - max(lo, lo2))
    return total


def run(scale: float = 0.1, seed: int = 2021) -> TraceDemoResult:
    """Run the experiment; see the module docstring for
    the paper exhibit it reproduces."""
    config = SimConfig().with_seed(seed).with_tracing()
    specs, n_machines = scaled_workload(scale=scale, seed=seed)
    specs = specs[:_MAX_JOBS]
    runtime = HarmonyRuntime(n_machines, specs, config=config)
    result = runtime.run()
    tracer = result.trace
    assert tracer is not None  # with_tracing() guarantees a live tracer

    base = Path(OUT_DIR)
    trace_path = write_chrome_trace(base / "harmony_trace.json", tracer)
    counters_path = export_counters(base / "harmony_counters.csv", tracer)

    category_seconds: dict = {}
    for span in tracer.spans:
        category_seconds[span.cat] = (category_seconds.get(span.cat, 0.0)
                                      + span.duration)
    registry = tracer.registry
    return TraceDemoResult(
        n_jobs=len(specs),
        n_machines=n_machines,
        makespan_seconds=result.makespan,
        n_spans=len(tracer.spans),
        n_instants=len(tracer.instants),
        category_seconds=category_seconds,
        comp_comm_overlap_seconds=_overlap_seconds(tracer),
        steps_completed=registry.total(".steps"),
        bytes_pushed=registry.total(".bytes_pushed"),
        trace_path=trace_path,
        counters_path=counters_path)


def report(result: TraceDemoResult) -> str:
    """Render the paper-style rows for this exhibit."""
    rows = [(cat, f"{seconds / 60:.1f}")
            for cat, seconds in sorted(result.category_seconds.items())]
    table = format_table(
        ["span category", "total (min)"], rows,
        title=f"Traced run — {result.n_jobs} jobs on "
              f"{result.n_machines} machines, makespan "
              f"{result.makespan_seconds / 60:.1f} min "
              f"({result.n_spans} spans, {result.n_instants} instants)")
    overlap = result.comp_comm_overlap_seconds
    comp = result.category_seconds.get("comp", 0.0)
    lines = [
        table,
        f"COMP/COMM overlap across co-located jobs: "
        f"{overlap / 60:.1f} min "
        f"({100.0 * overlap / comp:.0f}% of COMP time)" if comp > 0
        else "no COMP spans recorded",
        f"steps completed: {result.steps_completed:.0f}; "
        f"bytes pushed: {result.bytes_pushed / 1024 ** 3:.1f} GiB",
        f"trace:    {result.trace_path}  (open in ui.perfetto.dev)",
        f"counters: {result.counters_path}",
    ]
    return "\n".join(lines)
