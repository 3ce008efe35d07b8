"""Simulator engine microbenchmark: batched fast path vs reference.

Runs the same group — once under the ``"fast"`` engine and once under
``"reference"`` — and compares both wall-clock cost and simulated
outcomes.  Two scenarios cover the engine's two lanes:

* :func:`run_solo` — a long single-job group, the *solo lane*'s shape: the
  whole job batches in closed form (~4.2x, the median of 24 runs on a
  shared 2-vCPU host).
* :func:`run_multi` — a 5-job contended group, the *coordinated drive
  lane*'s shape: every wake is parked and served in drive windows
  without heap round-trips (~2.1x, median of the same 24 runs; each
  wake still hands its completion to a generator through an event,
  which the solo lane skips).

The win must come from skipped event-loop work, not changed behaviour:
the two runs' simulated durations and iteration times are asserted
bitwise-equal by the caller (and exhaustively by
``tests/test_sim_fastpath.py``).

:func:`run` measures both.  Used by ``benchmarks/bench_sim_engines.py``
(which asserts the fast-over-reference ratio in-process, one scenario a
test) and runnable as ``python -m repro sim_engines``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.check.oracle import deterministic_config
from repro.core.group_runtime import ExecutionMode
from repro.experiments.common import SingleGroupResult, run_single_group
from repro.workloads.generator import WorkloadGenerator

#: Long enough that per-iteration cost dominates setup; short enough
#: for the smoke-bench budget (~0.3s fast / ~1.5s reference per round).
DEFAULT_ITERATIONS = 30_000
SOLO_MACHINES = 4
#: Best-of rounds per engine.
SOLO_ROUNDS = 2
#: Workload and simulation seed of both scenarios.
SEED = 7


@dataclass(frozen=True)
class EngineRun:
    """One engine's measurement."""

    engine: str
    #: Best-of-rounds real seconds for the whole run.
    wall_seconds: float
    result: SingleGroupResult


@dataclass(frozen=True)
class EngineComparison:
    fast: EngineRun
    reference: EngineRun
    n_iterations: int
    n_machines: int
    n_jobs: int = 1

    @property
    def speedup(self) -> float:
        if self.fast.wall_seconds <= 0:
            return float("inf")
        return self.reference.wall_seconds / self.fast.wall_seconds

    @property
    def outcomes_equal(self) -> bool:
        """Bitwise-identical simulated behaviour across engines."""
        a, b = self.fast.result, self.reference.result
        # harmony: allow[DET006] bitwise-identical engine outcomes are the property under test
        return (a.duration_seconds == b.duration_seconds
                # harmony: allow[DET006] bitwise-identical engine outcomes are the property under test
                and a.mean_iteration_seconds == b.mean_iteration_seconds
                # harmony: allow[DET006] bitwise-identical engine outcomes are the property under test
                and a.per_job_cycle_seconds == b.per_job_cycle_seconds)


def run_solo() -> EngineComparison:
    """Measure both engines on one long isolated single-job group."""
    pool = WorkloadGenerator(SEED).base_workload(hyper_params_per_pair=1)
    spec = replace(pool[0], iterations=DEFAULT_ITERATIONS, submit_time=0.0)
    config = deterministic_config(SEED)
    runs: dict[str, EngineRun] = {}
    for engine in ("fast", "reference"):
        cfg = config.with_engine(engine)
        best = float("inf")
        result = None
        for _ in range(SOLO_ROUNDS):
            # harmony: allow[DET001] wall_seconds measures real runtime, never simulation state
            t0 = time.perf_counter()
            result = run_single_group([spec], SOLO_MACHINES,
                                      mode=ExecutionMode.ISOLATED,
                                      config=cfg)
            # harmony: allow[DET001] wall_seconds measures real runtime, never simulation state
            best = min(best, time.perf_counter() - t0)
        runs[engine] = EngineRun(engine=engine, wall_seconds=best,
                                 result=result)
    return EngineComparison(fast=runs["fast"],
                            reference=runs["reference"],
                            n_iterations=DEFAULT_ITERATIONS,
                            n_machines=SOLO_MACHINES)


#: Drive-lane scenario: enough co-located jobs that every wake goes
#: through the coordinated engine, on enough machines that the group
#: stays healthy (no GC-pressure inflation blowing up iteration times).
MULTI_JOBS = 5
MULTI_ITERATIONS = 2_400
MULTI_MACHINES = 24
MULTI_ROUNDS = 3


def run_multi() -> EngineComparison:
    """Measure both engines on one contended multi-job HARMONY group.

    Unlike :func:`run_solo` this times CPU seconds (``time.process_time``)
    over interleaved rounds, keeping best-of: the effect under test
    (~2.1x) is smaller than the solo lane's, and wall-clock noise on a
    shared machine can exceed it.
    """
    pool = WorkloadGenerator(SEED).base_workload(
        hyper_params_per_pair=1)
    specs = [replace(pool[i % len(pool)], job_id=f"j{i}",
                     iterations=MULTI_ITERATIONS, submit_time=0.0)
             for i in range(MULTI_JOBS)]
    config = deterministic_config(SEED)
    best: dict[str, float] = {"fast": float("inf"),
                              "reference": float("inf")}
    results: dict[str, SingleGroupResult] = {}
    for _ in range(MULTI_ROUNDS):
        for engine in ("fast", "reference"):
            cfg = config.with_engine(engine)
            # harmony: allow[DET001] wall_seconds measures real runtime, never simulation state
            t0 = time.process_time()
            result = run_single_group(specs, MULTI_MACHINES,
                                      mode=ExecutionMode.HARMONY,
                                      config=cfg)
            # harmony: allow[DET001] wall_seconds measures real runtime, never simulation state
            best[engine] = min(best[engine], time.process_time() - t0)
            results[engine] = result
    return EngineComparison(
        fast=EngineRun("fast", best["fast"], results["fast"]),
        reference=EngineRun("reference", best["reference"],
                            results["reference"]),
        n_iterations=MULTI_ITERATIONS, n_machines=MULTI_MACHINES,
        n_jobs=MULTI_JOBS)


def run() -> tuple[EngineComparison, EngineComparison]:
    """Both scenarios: the solo lane's, then the drive lane's."""
    return run_solo(), run_multi()


def report(comparisons: tuple[EngineComparison, ...]) -> str:
    """One block per scenario."""
    return "\n".join(_report_one(comparison) for comparison in comparisons)


def _report_one(comparison: EngineComparison) -> str:
    lines = [
        f"simulator engines, {comparison.n_jobs} job(s) x "
        f"{comparison.n_iterations} iterations on "
        f"{comparison.n_machines} machines:",
        f"  fast:      {comparison.fast.wall_seconds:7.3f}s wall",
        f"  reference: {comparison.reference.wall_seconds:7.3f}s wall",
        f"  speedup:   {comparison.speedup:7.2f}x",
        f"  simulated outcomes bitwise equal: "
        f"{comparison.outcomes_equal}",
    ]
    return "\n".join(lines)
