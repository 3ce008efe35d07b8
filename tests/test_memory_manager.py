"""Tests for dynamic data reloading (§IV-C)."""

import pytest

from repro.cluster.memory import MemoryLedger
from repro.config import MemoryConfig
from repro.core.job import Job
from repro.core.memory_manager import (
    ADJUST_EVERY,
    TARGET_PRESSURE,
    FootprintTable,
    GroupMemoryManager,
)
from repro.workloads.apps import DATASETS, JobSpec, LDA, MLR
from repro.workloads.costmodel import CostModel


def _manager(n_machines=8, spill=True, config=None, machine_spec=None):
    cost_model = CostModel(machine_spec)
    ledger = MemoryLedger(cost_model.spec)
    footprints = FootprintTable(
        cost_model, config if config is not None else MemoryConfig(),
        mode_spills=spill)
    manager = GroupMemoryManager(ledger, footprints, n_machines=n_machines)
    return manager, ledger


def _job(job_id="j", dataset_index=0, app=MLR, iterations=5):
    return Job(JobSpec(job_id, app, DATASETS[app.name][dataset_index],
                       iterations=iterations))


class TestSpillBasis:
    """One derivation of the feasibility basis for every mode/config:
    the input-spill ratio alpha, and whether ratios adapt (which also
    gates the model-spill fallback)."""

    @pytest.mark.parametrize(
        "mode_spills, spill, fixed_alpha, alpha, adaptive", [
            (True, True, None, 1.0, True),
            (True, True, 0.35, 0.35, False),
            (True, True, 0.0, 0.0, False),
            (True, False, None, 0.0, False),
            (True, False, 0.35, 0.0, False),
            (False, True, None, 0.0, False),
            (False, True, 0.35, 0.0, False),
        ])
    def test_basis(self, mode_spills, spill, fixed_alpha, alpha,
                   adaptive):
        table = FootprintTable(
            CostModel(), MemoryConfig(spill_enabled=spill,
                                      fixed_alpha=fixed_alpha),
            mode_spills)
        assert table.spill is (mode_spills and spill)
        assert (table.alpha, table.adaptive) == (alpha, adaptive)


class TestAdmission:
    def test_small_job_keeps_everything_in_memory(self):
        manager, ledger = _manager(n_machines=8)
        job = _job("lda", app=LDA, dataset_index=1)
        assert manager.admit(job)
        assert job.alpha == 0.0
        assert ledger.pressure < TARGET_PRESSURE + 1e-9

    def test_big_jobs_get_spilled_to_target_pressure(self):
        manager, ledger = _manager(n_machines=4)
        first = _job("mlr1", dataset_index=1)
        second = _job("mlr2", dataset_index=1)
        assert manager.admit(first)
        assert manager.admit(second)
        assert ledger.pressure <= TARGET_PRESSURE + 1e-6
        assert first.alpha > 0.0

    def test_rebalance_shares_one_ratio(self):
        manager, _ = _manager(n_machines=4)
        first = _job("a", dataset_index=1)
        second = _job("b", dataset_index=1)
        manager.admit(first)
        manager.admit(second)
        assert first.alpha == pytest.approx(second.alpha)

    def test_admit_without_spill_keeps_alpha_zero(self):
        manager, _ = _manager(n_machines=8, spill=False)
        job = _job()
        assert manager.admit(job)
        assert job.alpha == 0.0

    def test_fixed_alpha_is_respected(self):
        config = MemoryConfig(fixed_alpha=0.4)
        manager, _ = _manager(n_machines=8, config=config)
        job = _job()
        assert manager.admit(job)
        assert job.alpha == 0.4

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="evict() rebalances a fixed-ratio group "
                              "with the shared closed-form alpha")
    def test_eviction_keeps_the_fixed_alpha(self):
        """The §V-G baseline uses "the same fixed alpha for all jobs",
        also after a co-located job leaves."""
        config = MemoryConfig(fixed_alpha=0.5)
        manager, _ = _manager(n_machines=4, config=config)
        first = _job("a", dataset_index=1)
        second = _job("b", dataset_index=1)
        assert manager.admit(first) and manager.admit(second)
        manager.evict(second)
        assert first.alpha == 0.5

    def test_evict_frees_memory_and_relaxes_others(self):
        manager, ledger = _manager(n_machines=4)
        first = _job("a", dataset_index=1)
        second = _job("b", dataset_index=1)
        manager.admit(first)
        manager.admit(second)
        alpha_crowded = first.alpha
        manager.evict(second)
        assert all(job_id != "b" for job_id, _ in ledger._components)
        assert first.alpha <= alpha_crowded

    def test_alphas_snapshot(self):
        manager, _ = _manager()
        job = _job("x")
        manager.admit(job)
        assert manager.alphas() == {"x": job.alpha}


class TestHillClimbing:
    def _admitted(self, config=None):
        manager, ledger = _manager(n_machines=4, config=config)
        job = _job("m", dataset_index=1)
        manager.admit(job)
        return manager, ledger, job

    def test_gc_pressure_raises_alpha(self):
        manager, _, job = self._admitted()
        before = job.alpha
        for _ in range(ADJUST_EVERY):
            manager.record_iteration(job, gc_overhead_seconds=10.0,
                                     stall_seconds=0.0,
                                     busy_seconds=100.0)
        assert job.alpha > before

    def test_stall_pressure_lowers_alpha(self):
        manager, ledger, job = self._admitted()
        job.alpha = 0.9
        manager._apply_components(job)
        for _ in range(ADJUST_EVERY):
            manager.record_iteration(job, gc_overhead_seconds=0.0,
                                     stall_seconds=10.0,
                                     busy_seconds=100.0)
        assert job.alpha < 0.9

    def test_alpha_never_lowered_into_pressure(self):
        """The climber refuses steps that would recreate GC pressure."""
        manager, ledger, job = self._admitted()
        start = job.alpha
        for _ in range(ADJUST_EVERY):
            manager.record_iteration(job, gc_overhead_seconds=0.0,
                                     stall_seconds=10.0,
                                     busy_seconds=100.0)
        assert ledger.pressure <= TARGET_PRESSURE + 1e-6
        assert job.alpha <= start  # moved down or stayed

    def test_balanced_overheads_leave_alpha_alone(self):
        manager, _, job = self._admitted()
        before = job.alpha
        for _ in range(4 * ADJUST_EVERY):
            manager.record_iteration(job, gc_overhead_seconds=1.0,
                                     stall_seconds=1.0,
                                     busy_seconds=100.0)
        assert job.alpha == pytest.approx(before)

    def test_model_spill_fallback_at_alpha_one(self):
        """Persistent GC at alpha=1 activates model-data spill."""
        manager, _, job = self._admitted()
        job.alpha = 1.0
        manager._apply_components(job)
        assert not job.model_spilled
        for _ in range(2 * ADJUST_EVERY):
            manager.record_iteration(job, gc_overhead_seconds=50.0,
                                     stall_seconds=0.0,
                                     busy_seconds=100.0)
        assert job.model_spilled

    def test_fixed_alpha_disables_adaptation(self):
        config = MemoryConfig(fixed_alpha=0.5)
        manager, _, job = self._admitted(config=config)
        for _ in range(4 * ADJUST_EVERY):
            manager.record_iteration(job, gc_overhead_seconds=50.0,
                                     stall_seconds=0.0,
                                     busy_seconds=100.0)
        assert job.alpha == 0.5


class TestReloadSeconds:
    def test_zero_alpha_means_no_reload(self):
        manager, _ = _manager()
        job = _job()
        job.alpha = 0.0
        assert manager.reload_seconds(job) == 0.0

    def test_reload_grows_with_alpha(self):
        manager, _ = _manager()
        job = _job()
        job.alpha = 0.2
        low = manager.reload_seconds(job)
        job.alpha = 0.8
        assert manager.reload_seconds(job) == pytest.approx(4 * low)

    def test_model_spill_adds_restore_traffic(self):
        manager, _ = _manager()
        job = _job()
        job.alpha = 0.5
        plain = manager.reload_seconds(job)
        job.model_spilled = True
        assert manager.reload_seconds(job) > plain
