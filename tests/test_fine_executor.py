"""Tests for the per-worker fine-grained executor and its barrier."""

import pytest

from repro.config import ExecutionConfig, SimConfig
from repro.core.fine_executor import (
    WARMUP_ITERATIONS,
    FineGrainedResult,
    SimBarrier,
    run_fine_grained_group,
)
from repro.errors import SimulationError
from repro.workloads.apps import DATASETS, JobSpec, LDA
from repro.workloads.costmodel import CostModel


def quiet_config():
    return SimConfig(execution=ExecutionConfig(duration_jitter_cv=0.0,
                                               barrier_overhead=0.0))


class TestSimBarrier:
    def test_releases_on_nth_arrival(self, sim):
        barrier = SimBarrier(sim, 3)
        first = barrier.arrive("k")
        second = barrier.arrive("k")
        assert not first.triggered
        third = barrier.arrive("k")
        assert first.triggered and second.triggered and third.triggered
        assert first is second is third

    def test_keys_are_independent(self, sim):
        barrier = SimBarrier(sim, 2)
        a = barrier.arrive(("job", 0))
        b = barrier.arrive(("job", 1))
        assert not a.triggered and not b.triggered
        barrier.arrive(("job", 0))
        assert a.triggered and not b.triggered

    def test_over_arrival_raises(self, sim):
        barrier = SimBarrier(sim, 1)
        barrier.arrive("k")
        with pytest.raises(SimulationError):
            barrier.arrive("k")

    def test_single_member_releases_immediately(self, sim):
        barrier = SimBarrier(sim, 1)
        assert barrier.arrive("x").triggered

    def test_bad_count_rejected(self, sim):
        with pytest.raises(SimulationError):
            SimBarrier(sim, 0)


class TestFineGrainedGroup:
    def _specs(self, n=2, iterations=5):
        return [JobSpec(f"j{i}", LDA, DATASETS["LDA"][0],
                        iterations=iterations) for i in range(n)]

    def test_single_job_matches_solo_pipeline(self):
        config = quiet_config()
        spec = self._specs(1)[0]
        result = run_fine_grained_group([spec], 8, config,
                                        iterations=5)
        profile = CostModel(config.machine).profile(spec, 8)
        assert result.pacing_cycle_seconds() == pytest.approx(
            profile.t_iteration, rel=0.02)

    def test_workers_synchronize_per_iteration(self):
        """Every job records exactly `iterations` cycles (machine 0's
        view, gated by the push barrier of all machines)."""
        result = run_fine_grained_group(self._specs(2), 4,
                                        quiet_config(), iterations=6)
        for durations in result.cycles.values():
            assert len(durations) == 6

    def test_busy_fractions_bounded(self):
        result = run_fine_grained_group(self._specs(3), 8,
                                        quiet_config(), iterations=5)
        assert 0.0 < result.cpu_busy_fraction <= 1.0
        assert 0.0 < result.net_busy_fraction <= 1.0

    def test_colocation_shares_the_cpu(self):
        """Two co-located jobs pace each other: the shared-group cycle
        exceeds a solo run's."""
        config = quiet_config()
        solo = run_fine_grained_group(self._specs(1), 8, config,
                                      iterations=5)
        pair = run_fine_grained_group(self._specs(2), 8, config,
                                      iterations=5)
        assert pair.pacing_cycle_seconds() > solo.pacing_cycle_seconds()

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SimulationError):
            run_fine_grained_group(self._specs(1), 0, quiet_config(),
                                   iterations=5)
        with pytest.raises(SimulationError):
            run_fine_grained_group(self._specs(1), 4, quiet_config(),
                                   iterations=0)

    def test_no_cycles_raises_on_stats(self):
        result = FineGrainedResult(duration_seconds=0.0)
        with pytest.raises(SimulationError):
            result.pacing_cycle_seconds()

    def test_a_job_with_only_warmup_cycles_does_not_pace(self):
        result = FineGrainedResult(duration_seconds=0.0, cycles={
            "warm": [9.0] * WARMUP_ITERATIONS,
            "steady": [9.0] * WARMUP_ITERATIONS + [2.0, 4.0]})
        assert result.pacing_cycle_seconds() == 3.0
        del result.cycles["steady"]
        with pytest.raises(SimulationError, match="no steady-state"):
            result.pacing_cycle_seconds()

    def test_a_group_without_jobs_measures_nothing(self):
        """No job, no time: the busy fractions stay 0 instead of
        dividing by a zero-length run."""
        result = run_fine_grained_group([], 2, quiet_config(),
                                        iterations=1)
        assert result == FineGrainedResult(duration_seconds=0.0)

    def test_straggler_jitter_stretches_cycles(self):
        """With per-machine jitter, the barrier waits for the slowest
        worker: mean cycles exceed the deterministic run's."""
        noisy = SimConfig(execution=ExecutionConfig(
            duration_jitter_cv=0.10, barrier_overhead=0.0))
        deterministic = run_fine_grained_group(
            self._specs(1), 16, quiet_config(), iterations=8)
        straggly = run_fine_grained_group(
            self._specs(1), 16, noisy, iterations=8)
        assert straggly.pacing_cycle_seconds() > \
            deterministic.pacing_cycle_seconds()


class TestGranularityDriver:
    def test_driver_reports_small_errors(self):
        from repro.experiments import granularity_validation
        result = granularity_validation.run(iterations=8)
        assert result.worst_abstraction_error < 0.08
        assert result.worst_model_error == max(
            row.model_error for row in result.rows)
        text = granularity_validation.report(result)
        assert "Granularity validation" in text
