"""What one pass of a benchmark workload allocates and keeps, what one
call leaves for the cyclic collector, and what the collector costs a pass.

    python3 benchmarks/memory_profile.py --workload W [--src SRC]

Loads the benchmark's workloads (``benchmarks/perf/workloads.py``, read
only) from this checkout and the program from ``--src`` (default: this
checkout's ``src``) as ``benchmarks/layer_profile.py`` does, makes the
benchmark's untimed warm-up call, runs one pass of the workload at the
benchmark's seed, collects garbage, and runs the pass again under
``tracemalloc``.  It prints:

- the objects the pass's first call, made once more with the collector
  off and then dropped with its result, leaves for the cyclic collector,
  and their most common types: a finished run must be freed by
  reference counting, so this should read 0;
- the untraced pass's seconds (its calls and their checks), the cyclic
  collector's gen-0/1/2 collections during it and the seconds and share
  of the pass they took (``gc.callbacks``);
- the pass's peak traced memory, and the traced memory retained after
  its last call while that call (and the state it closes over, such as
  a scheduler's plan caches) is still alive;
- the retained allocation sites in the ``repro`` package, by file and
  line, largest first;
- the collector's collections and seconds during the traced pass
  (tracemalloc slows frees, so read these seconds as a comparison
  between trees, not as untraced cost);
- the process's ``ru_maxrss``, which includes tracemalloc's own tables.

Each call's result goes through the workload's checks, as in
``benchmarks/perf/run.py``; the exit code is 1 when one fails or when
the call leaves anything for the collector.
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from layer_profile import SEED, load_workload, warm_up  # noqa: E402

#: Retained allocation sites printed.
TOP_SITES = 12
#: Types printed of the objects a call leaves for the collector.
TOP_TYPES = 6

MIB = 1024.0 * 1024.0


class CollectorClock:
    """Collections per generation and the seconds they took, from
    ``gc.callbacks`` while installed."""

    def __init__(self):
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1

    def __enter__(self) -> CollectorClock:
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def collector_leftovers(workload, inputs) -> tuple[int, Counter]:
    """Run the pass's first call with the collector off and drop it and
    its result; the objects the collector then finds, and their types.
    """
    gc.collect()
    gc.disable()
    try:
        calls = iter(workload.calls(inputs))
        workload.inspect(next(calls)())
        del calls
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        types = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return found, types


def untraced_pass(workload, inputs) -> tuple[float, CollectorClock]:
    """One pass, calls and checks, without tracemalloc; its seconds and
    the collector's work during it."""
    with CollectorClock() as clock:
        started = time.perf_counter()
        for call in workload.calls(inputs):
            workload.inspect(call())
        seconds = time.perf_counter() - started
    return seconds, clock


def traced_pass(workload, inputs):
    """One pass under tracemalloc and the collector clock.

    Returns ``(outcomes, peak bytes, retained bytes, snapshot, clock)``;
    the snapshot is taken after the last call while that call is still
    referenced.
    """
    outcomes = []
    tracemalloc.start()
    with CollectorClock() as clock:
        calls = iter(workload.calls(inputs))
        last = None
        call = next(calls, None)
        while call is not None:
            outcomes.append(workload.inspect(call()))
            last = call
            call = next(calls, None)
    retained, peak = tracemalloc.get_traced_memory()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    del last
    return outcomes, peak, retained, snapshot, clock


def repro_sites(snapshot: tracemalloc.Snapshot, src: Path,
                limit: int = TOP_SITES) -> list[tuple[str, int, int]]:
    """The largest retained ``(file:line, bytes, blocks)`` sites under
    ``src/repro``."""
    package = str((src / "repro").resolve())
    ours = snapshot.filter_traces(
        [tracemalloc.Filter(True, os.path.join(package, "*"))])
    sites = []
    for stat in ours.statistics("lineno")[:limit]:
        frame = stat.traceback[0]
        name = os.path.relpath(frame.filename, src.resolve())
        sites.append((f"{name}:{frame.lineno}", stat.size, stat.count))
    return sites


def report(workload, seed: int, src: Path) -> tuple[str, list[str]]:
    """Profile one pass of ``workload``; its report and failed checks."""
    inputs = workload.setup(seed)
    warm_digests = warm_up(workload, inputs)
    leftovers, leftover_types = collector_leftovers(workload, inputs)
    gc.collect()
    pass_seconds, untraced = untraced_pass(workload, inputs)
    gc.collect()
    outcomes, peak, retained, snapshot, clock = traced_pass(workload,
                                                            inputs)
    problems = [problem for outcome in outcomes
                for problem in outcome.problems]
    digests = [outcome.digest for outcome in outcomes]
    if warm_digests != digests[:len(warm_digests)]:
        problems.append("warm-up outcomes differ from the traced pass")
    problems.extend(workload.cross_check(inputs, digests))
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    if leftovers:
        problems.append(f"one call leaves {leftovers} objects for the "
                        "cyclic collector")

    top = ", ".join(f"{name} {count:,d}" for name, count
                    in leftover_types.most_common(TOP_TYPES))
    lines = [f"{workload.name}: seed {seed}, one pass under tracemalloc "
             f"({len(outcomes)} calls)",
             f"left for the collector by one call: {leftovers:,d} objects"
             + (f" ({top})" if top else ""),
             f"untraced pass: {pass_seconds:.3f} s; "
             f"{collections(untraced)}; collector {untraced.seconds:.3f} s "
             f"({untraced.seconds / pass_seconds:.1%})",
             f"traced MiB: peak {peak / MIB:.2f}, "
             f"retained {retained / MIB:.2f}",
             "retained allocation sites in repro:",
             f"  {'KiB':>10s} {'blocks':>10s}  site"]
    lines += [f"  {size / 1024:10,.1f} {count:10,d}  {site}"
              for site, size, count in repro_sites(snapshot, src)]
    lines.append(f"{collections(clock)}; collector {clock.seconds:.3f} s")
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lines.append(f"ru_maxrss MiB: {maxrss / 1024:.1f}")
    verdict = "FAILED" if problems else "ok"
    lines.append(f"checks: {verdict}, {failed} of {attempted} failed")
    return "\n".join(lines), problems


def collections(clock: CollectorClock) -> str:
    gen0, gen1, gen2 = clock.collections
    return f"collections: gen0 {gen0}, gen1 {gen1}, gen2 {gen2}"


def main(argv: list[str] | None = None) -> int:
    loaded = load_workload(argv, __doc__.split("\n")[0])
    if loaded is None:
        return 2
    workload, src = loaded
    text, problems = report(workload, SEED, src)
    print(text)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
