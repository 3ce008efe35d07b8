"""What one pass of a benchmark workload allocates and keeps, and what the
cyclic collector costs it.

    python3 benchmarks/memory_profile.py --workload W [--src SRC]

Loads the benchmark's workloads (``benchmarks/perf/workloads.py``, read
only) from this checkout and the program from ``--src`` (default: this
checkout's ``src``) as ``benchmarks/layer_profile.py`` does, makes the
benchmark's untimed warm-up call, collects garbage, and runs one pass
of the workload, at the benchmark's seed, under ``tracemalloc``.  It
prints:

- the pass's peak traced memory, and the traced memory retained after
  its last call while that call (and the state it closes over, such as
  a scheduler's plan caches) is still alive;
- the retained allocation sites in the ``repro`` package, by file and
  line, largest first;
- the cyclic collector's gen-0/1/2 collections during the pass and the
  seconds they took (``gc.callbacks``; tracemalloc slows frees, so read
  the seconds as a comparison between trees, not as untraced cost);
- the process's ``ru_maxrss``, which includes tracemalloc's own tables.

Each call's result goes through the workload's checks, as in
``benchmarks/perf/run.py``; the exit code is 1 when one fails.
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from layer_profile import SEED, load_workload, warm_up  # noqa: E402

#: Retained allocation sites printed.
TOP_SITES = 12

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

    lines = [f"{workload.name}: seed {seed}, one pass under tracemalloc "
             f"({len(outcomes)} calls)",
             f"traced MiB: peak {peak / MIB:.2f}, "
             f"retained {retained / MIB:.2f}",
             "retained allocation sites in repro:",
             f"  {'KiB':>10s} {'blocks':>10s}  site"]
    lines += [f"  {size / 1024:10,.1f} {count:10,d}  {site}"
              for site, size, count in repro_sites(snapshot, src)]
    gen0, gen1, gen2 = clock.collections
    lines.append(f"collections: gen0 {gen0}, gen1 {gen1}, gen2 {gen2}; "
                 f"collector {clock.seconds:.3f} s")
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lines.append(f"ru_maxrss MiB: {maxrss / 1024:.1f}")
    verdict = "FAILED" if problems else "ok"
    lines.append(f"checks: {verdict}, {failed} of {attempted} failed")
    return "\n".join(lines), problems


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
