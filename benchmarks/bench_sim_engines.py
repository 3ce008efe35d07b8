"""Simulator fast path vs per-event reference engine (§IV-A kernel).

Times the same long single-job group under both ``SimConfig.engine``
settings.  The batched engine must win on wall clock without changing
a single simulated number — equality of outcomes is asserted here at
run granularity and bitwise per-event in ``tests/test_sim_fastpath.py``.
"""

from repro.experiments import sim_engines


def test_sim_engine_fast_path(once, benchmark):
    comparison = once(sim_engines.run_solo)
    print()
    print(sim_engines.report((comparison,)))
    benchmark.extra_info["speedup"] = round(comparison.speedup, 2)
    benchmark.extra_info["fast_seconds"] = round(
        comparison.fast.wall_seconds, 3)
    benchmark.extra_info["reference_seconds"] = round(
        comparison.reference.wall_seconds, 3)

    # Same simulation, bit for bit — the speedup comes from skipped
    # event-loop machinery, never from changed arithmetic.
    assert comparison.outcomes_equal

    # The fast path's headline claim (~4.2x, the median of 24 runs
    # on the deterministic config; the floor leaves headroom for CI
    # jitter).
    assert comparison.speedup >= 3.0


def test_sim_engine_multi_job(once, benchmark):
    """Coordinated drive lane on a contended 5-job group.

    Multi-job groups cannot take the fused solo lane — their subtasks
    contend through shared rate policies — so the win is the drive
    lane's alone: parked wakes served without heap round-trips.
    """
    comparison = once(sim_engines.run_multi)
    print()
    print(sim_engines.report((comparison,)))
    benchmark.extra_info["speedup"] = round(comparison.speedup, 2)
    benchmark.extra_info["fast_seconds"] = round(
        comparison.fast.wall_seconds, 3)
    benchmark.extra_info["reference_seconds"] = round(
        comparison.reference.wall_seconds, 3)

    assert comparison.outcomes_equal

    # ~2.1x, the median of 24 runs (each wake still hands its
    # completion to a generator through an event, which the solo lane
    # skips); the floor leaves headroom for CI jitter.
    assert comparison.speedup >= 1.5
