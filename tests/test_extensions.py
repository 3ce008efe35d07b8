"""Tests for the §VI extensions: failures, all-reduce, interference."""

import pytest

from repro.cluster.allreduce import AllReduceModel
from repro.config import ExecutionConfig, SimConfig
from repro.config import GB, MachineSpec
from repro.core.master import CHECKPOINT_INTERVAL_ITERATIONS
from repro.core.runtime import HarmonyRuntime
from repro.errors import WorkloadError
from repro.workloads.costmodel import CostModel
from repro.workloads.generator import WorkloadGenerator
from tests.fault_plans import crash_plan


def small_workload(seed=3):
    return WorkloadGenerator(seed).base_workload(hyper_params_per_pair=1)


class TestMachineFailures:
    """Crashes from a :class:`FaultPlan`, each on a machine a group owns
    when the heartbeat monitor detects it."""

    def test_all_jobs_still_finish(self):
        runtime = HarmonyRuntime(24, small_workload(), fault_plan=crash_plan(
            [(3600.0, 12), (10800.0, 20)]))
        result = runtime.run()
        assert len(result.finished) == 8
        assert runtime.monitor.detections == 2
        assert all(record.job_ids for record in result.fault_log.records)

    def test_failure_loses_checkpointed_progress_only(self):
        """Victims restart with at most checkpoint_interval extra
        iterations, never more than the job's total."""
        runtime = HarmonyRuntime(24, small_workload(),
                                 fault_plan=crash_plan([(3600.0, 12)]))
        result = runtime.run()
        [record] = result.fault_log.records
        assert record.job_ids
        rolled_back = runtime.master.rolled_back_iterations
        assert set(rolled_back) <= set(record.job_ids)
        assert all(0 <= lost <= CHECKPOINT_INTERVAL_ITERATIONS
                   for lost in rolled_back.values())
        assert record.lost_iterations == sum(rolled_back.values())
        for outcome in result.finished:
            assert outcome.finish_time is not None

    def test_failure_on_free_machine_is_harmless(self):
        runtime = HarmonyRuntime(24, small_workload())
        # Directly poke the master with a machine that is never used.
        affected = runtime.master.inject_machine_failure(23)
        assert affected == []

    def test_crashed_group_releases_machines(self):
        """After a mid-run failure the cluster ledger stays
        consistent (everything released at the end)."""
        runtime = HarmonyRuntime(24, small_workload(), fault_plan=crash_plan(
            [(3600.0, 12), (7200.0, 0)]))
        result = runtime.run()
        assert all(record.job_ids for record in result.fault_log.records)
        assert runtime.cluster.n_free == runtime.cluster.size

    def test_failures_inflate_makespan_when_frequent(self):
        baseline = HarmonyRuntime(24, small_workload()).run()
        # A crash every 30 minutes, each on a machine a group owns.
        machines = (0, 1, 0, 0, 6, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 0)
        hammered = HarmonyRuntime(24, small_workload(), fault_plan=crash_plan(
            [(1800.0 * k, m) for k, m in enumerate(machines, start=1)])).run()
        assert all(record.job_ids for record in hammered.fault_log.records)
        assert hammered.makespan > baseline.makespan * 0.9
        assert len(hammered.finished) == 8


class TestAllReduce:
    def test_pull_is_free_under_allreduce(self):
        model = CostModel(comm_architecture="allreduce")
        job = small_workload()[4]
        assert model.pull_seconds(job, 8) == 0.0
        assert model.push_seconds(job, 8) > 0.0

    def test_sync_grows_with_workers_then_saturates(self):
        ring = AllReduceModel(MachineSpec())
        times = [ring.sync_seconds(GB, m) for m in (2, 4, 8, 64)]
        assert times == sorted(times)
        # Volume factor 2(m-1)/m saturates at 2x model size.
        assert times[-1] < 2.5 * times[0]

    def test_single_worker_sync_is_local(self):
        ring = AllReduceModel(MachineSpec())
        assert ring.sync_seconds(GB, 1) == 0.0

    def test_invalid_inputs_raise(self):
        ring = AllReduceModel(MachineSpec())
        with pytest.raises(ValueError):
            ring.sync_seconds(GB, 0)
        with pytest.raises(ValueError):
            ring.sync_seconds(-1.0, 2)

    def test_replica_memory_cost(self):
        """All-reduce replicates the model on every machine."""
        ps = CostModel()
        ring = CostModel(comm_architecture="allreduce")
        job = small_workload()[4]
        assert ring.model_resident_bytes(job, 16) > \
            ps.model_resident_bytes(job, 16)

    def test_unknown_architecture_rejected(self):
        with pytest.raises(WorkloadError):
            CostModel(comm_architecture="carrier-pigeon")

    def test_end_to_end_run_with_allreduce(self):
        runtime = HarmonyRuntime(
            24, small_workload(),
            cost_model=CostModel(comm_architecture="allreduce"),
            scheduler_name="harmony-allreduce")
        result = runtime.run()
        assert len(result.finished) == 8
        assert result.scheduler_name == "harmony-allreduce"


class TestInterference:
    def _noisy_config(self, probability):
        return SimConfig(execution=ExecutionConfig(
            comm_interference_probability=probability))

    def test_interference_slows_the_run(self):
        quiet = HarmonyRuntime(24, small_workload()).run()
        noisy = HarmonyRuntime(24, small_workload(),
                               config=self._noisy_config(0.3)).run()
        assert noisy.makespan > quiet.makespan

    def test_all_jobs_survive_interference(self):
        noisy = HarmonyRuntime(24, small_workload(),
                               config=self._noisy_config(0.2)).run()
        assert len(noisy.finished) == 8

    def test_zero_probability_is_noise_free(self):
        default = HarmonyRuntime(24, small_workload()).run()
        explicit = HarmonyRuntime(24, small_workload(),
                                  config=self._noisy_config(0.0)).run()
        assert default.makespan == explicit.makespan


class TestExtensionsDriver:
    def test_driver_runs_and_reports(self):
        from repro.experiments import extensions
        result = extensions.run(scale=0.2)
        text = extensions.report(result)
        assert "all-reduce architecture" in text
        assert len(result.allreduce.finished) == \
            len(result.baseline.finished)


class TestDesignAblationsDriver:
    def test_driver_covers_all_variants(self):
        from repro.experiments import design_ablations
        result = design_ablations.run(scale=0.2)
        labels = [row.label for row in result.rows]
        assert "default" in labels
        assert "no secondary COMM" in labels
        assert "no periodic check" in labels
        assert "no swap fine-tuning" in labels
        assert any(label.startswith("admission=") for label in labels)
        assert result.row("default").label == "default"
        with pytest.raises(KeyError):
            result.row("no such variant")
        assert "ablations" in design_ablations.report(result).lower()
