"""Tests for the fault-injection subsystem (repro.faults) and the
master's crash-recovery path."""

import math
import threading
import time

import pytest

from repro.check import InvariantChecker
from repro.cluster.cluster import Cluster
from repro.config import MachineSpec
from repro.core.job import JobState
from repro.core.master import CHECKPOINT_INTERVAL_ITERATIONS
from repro.core.runtime import HarmonyRuntime
from repro.core.subtask import SubTaskKind
from repro.core.synchronizer import SubTaskSynchronizer
from repro.errors import SimulationError
from repro.faults import FaultEvent, FaultKind, FaultPlan, HealthMonitor
from repro.sim import Simulator
from repro.workloads.apps import DATASETS, JobSpec, LDA
from repro.workloads.generator import WorkloadGenerator
from tests.fault_plans import crash_plan


# ---------------------------------------------------------------- plans


class TestFaultPlan:
    def test_same_seed_reproduces_identical_timeline(self):
        kwargs = dict(seed=11, n_machines=50, horizon_seconds=36_000,
                      crash_rate_per_hour=0.7,
                      slowdown_rate_per_hour=1.3,
                      drop_rate_per_hour=2.0)
        assert FaultPlan.generate(**kwargs).events == \
            FaultPlan.generate(**kwargs).events

    def test_different_seeds_differ(self):
        kwargs = dict(n_machines=50, horizon_seconds=36_000,
                      crash_rate_per_hour=2.0)
        assert FaultPlan.generate(seed=1, **kwargs).events != \
            FaultPlan.generate(seed=2, **kwargs).events

    def test_events_sorted_and_within_horizon(self):
        plan = FaultPlan.generate(seed=3, n_machines=10,
                                  horizon_seconds=7200,
                                  crash_rate_per_hour=1.0,
                                  drop_rate_per_hour=5.0)
        times = [e.time for e in plan]
        assert times == sorted(times)
        assert all(0 <= t < 7200 for t in times)
        assert all(0 <= e.machine_id < 10 for e in plan)

    def test_build_sorts_events(self):
        late = FaultEvent(100.0, FaultKind.MACHINE_CRASH, 0)
        early = FaultEvent(5.0, FaultKind.NETWORK_DROP, 1,
                           duration=60.0, severity=2.0)
        plan = FaultPlan.build([late, early])
        assert plan.events == (early, late)

    def test_describe_lists_every_event(self):
        plan = FaultPlan.build([
            FaultEvent(5.0, FaultKind.NETWORK_DROP, 1, duration=60.0,
                       severity=2.0),
            FaultEvent(100.0, FaultKind.MACHINE_CRASH, 0,
                       duration=900.0)], seed=7)
        assert plan.describe().splitlines() == [
            "FaultPlan: 2 events (seed 7)",
            "  t=      5.0s network_drop      machine=1 dur=60s sev=2.0",
            "  t=    100.0s machine_crash     machine=0 dur=900s sev=1.0"]
        assert FaultPlan.build([]).describe() == "FaultPlan: 0 events"

    def test_of_kind_filters(self):
        plan = FaultPlan.generate(seed=5, n_machines=8,
                                  horizon_seconds=36_000,
                                  crash_rate_per_hour=0.5,
                                  slowdown_rate_per_hour=0.5)
        crashes = plan.of_kind(FaultKind.MACHINE_CRASH)
        assert all(e.kind is FaultKind.MACHINE_CRASH for e in crashes)
        assert len(crashes) + len(plan.of_kind(
            FaultKind.MACHINE_SLOWDOWN)) == len(plan)

    def test_validation(self):
        with pytest.raises(SimulationError):
            FaultEvent(-1.0, FaultKind.MACHINE_CRASH, 0)
        with pytest.raises(SimulationError):
            FaultEvent(0.0, FaultKind.MACHINE_CRASH, 0, duration=-5.0)
        with pytest.raises(SimulationError, match="severity"):
            FaultEvent(0.0, FaultKind.NETWORK_DROP, 0, duration=10.0,
                       severity=0.5)
        with pytest.raises(SimulationError):
            FaultPlan.generate(seed=1, n_machines=0,
                               horizon_seconds=100)
        with pytest.raises(SimulationError):
            FaultPlan.generate(seed=1, n_machines=4, horizon_seconds=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["time", "duration", "severity"])
    def test_rejects_non_finite_inputs(self, field, value):
        fields = {"time": 0.0, "duration": 10.0, "severity": 2.0,
                  field: value}
        with pytest.raises(SimulationError,
                           match=f"{field} must be finite"):
            FaultEvent(kind=FaultKind.MACHINE_SLOWDOWN, machine_id=0,
                       **fields)

    @pytest.mark.parametrize("argument, value", [
        ("crash_rate_per_hour", float("nan")),
        ("horizon_seconds", float("inf")),
        ("horizon_seconds", float("nan")),
        ("slowdown_rate_per_hour", -1.0),
    ])
    def test_generate_rejects_unbounded_inputs(self, argument, value):
        # A NaN rate or an unbounded horizon never ends the arrival
        # loop; a negative rate would silently mean "no faults".
        kwargs = dict(seed=1, n_machines=4, horizon_seconds=3600.0,
                      crash_rate_per_hour=1.0)
        kwargs[argument] = value
        with pytest.raises(SimulationError, match=argument):
            FaultPlan.generate(**kwargs)


# --------------------------------------------- synchronizer fault paths


class TestSynchronizerFaultPaths:
    def test_release_wakes_blocked_worker_with_false(self):
        synchronizer = SubTaskSynchronizer(timeout=5.0)
        synchronizer.register_job("j", 2)
        outcome = []

        def worker():
            outcome.append(synchronizer.arrive("j", 0, SubTaskKind.PULL))

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        time.sleep(0.1)  # let the worker block at the barrier
        synchronizer.release_job("j")
        thread.join(timeout=5.0)
        assert outcome == [False]
        # Arrivals after the release observe it too (no half-barriers).
        assert synchronizer.arrive("j", 0, SubTaskKind.PULL) is False

    def test_reregister_clears_release_and_stale_state(self):
        synchronizer = SubTaskSynchronizer(timeout=5.0)
        synchronizer.register_job("j", 2)
        synchronizer.release_job("j")
        # Resume with a different worker count: barriers work again.
        synchronizer.register_job("j", 1)
        assert synchronizer.arrive("j", 0, SubTaskKind.PULL) is True

    def test_release_of_unknown_job_is_a_no_op(self):
        SubTaskSynchronizer().release_job("ghost")

    def test_double_release_during_migration_is_idempotent(self):
        """Regression for the regroup/fault interleaving: a crash
        landing while a migration's release is already in flight must
        not double-release the barrier — the blocked worker wakes
        exactly once, and a post-recovery re-registration restores a
        fully functional barrier."""
        synchronizer = SubTaskSynchronizer(timeout=5.0)
        synchronizer.register_job("j", 2)
        outcome = []

        def worker():
            outcome.append(synchronizer.arrive("j", 0, SubTaskKind.PULL))

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        time.sleep(0.1)  # let the worker block at the barrier
        synchronizer.release_job("j")  # migration checkpoint pause
        synchronizer.release_job("j")  # crash hits the same group
        thread.join(timeout=5.0)
        assert outcome == [False]
        assert synchronizer.pending("j") == 0
        # Recovery re-registers (possibly with fewer workers): barriers
        # work again and no stale arrival survived the double release.
        synchronizer.register_job("j", 1)
        assert synchronizer.arrive("j", 1, SubTaskKind.PULL) is True
        assert synchronizer.pending("j") == 0

    def test_release_then_unregister_leaves_no_state(self):
        synchronizer = SubTaskSynchronizer(timeout=5.0)
        synchronizer.register_job("j", 2)
        synchronizer.release_job("j")
        synchronizer.unregister_job("j")
        assert not synchronizer._arrived
        assert synchronizer.pending("j") is None

    def test_completed_barriers_do_not_leak(self):
        """Regression: completed (job, iteration, kind) keys used to stay
        in the arrival table forever, growing without bound over a job's
        lifetime."""
        synchronizer = SubTaskSynchronizer(timeout=5.0)
        synchronizer.register_job("j", 2)

        def worker(iterations):
            for i in range(iterations):
                for kind in (SubTaskKind.PULL, SubTaskKind.COMP,
                             SubTaskKind.PUSH):
                    assert synchronizer.arrive("j", i, kind)

        threads = [threading.Thread(target=worker, args=(40,),
                                    daemon=True) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not synchronizer._arrived  # nothing retained
        assert synchronizer.pending("j") == 0

    def test_reregister_drops_a_timed_out_arrival(self):
        # A worker that timed out at a barrier leaves its arrival on
        # file; a fresh registration starts the job's barriers clean.
        synchronizer = SubTaskSynchronizer(timeout=0.01)
        synchronizer.register_job("j", 2)
        with pytest.raises(SimulationError, match="barrier timeout"):
            synchronizer.arrive("j", 0, SubTaskKind.PULL)
        assert synchronizer.pending("j") == 1
        synchronizer.register_job("j", 2)
        assert synchronizer.pending("j") == 0

    def test_reregister_forgets_completed_barriers(self):
        # A resumed job replays the iteration it was checkpointed in;
        # without the reset its barrier would count as an over-arrival.
        synchronizer = SubTaskSynchronizer()
        synchronizer.register_job("j", 1)
        assert synchronizer.arrive("j", 3, SubTaskKind.PULL)
        synchronizer.register_job("j", 1)
        assert synchronizer.arrive("j", 3, SubTaskKind.PULL)

    def test_over_arrival_still_detected_after_completion(self):
        synchronizer = SubTaskSynchronizer()
        synchronizer.register_job("j", 1)
        assert synchronizer.arrive("j", 3, SubTaskKind.PULL)
        with pytest.raises(SimulationError, match="more arrivals"):
            synchronizer.arrive("j", 3, SubTaskKind.PULL)


# ------------------------------------------------------- health monitor


class _RecordingMaster:
    def __init__(self):
        self.failures: list[tuple[int, float]] = []
        self.sim = None

    def inject_machine_failure(self, machine_id, fault_record=None):
        self.failures.append((machine_id, self.sim.now))
        return []


class TestHealthMonitor:
    def _fixture(self):
        sim = Simulator()
        cluster = Cluster(4, MachineSpec())
        master = _RecordingMaster()
        master.sim = sim
        monitor = HealthMonitor(sim, cluster, master,
                                interval=5.0, timeout=10.0)
        return sim, cluster, master, monitor

    @pytest.mark.parametrize("field, value", [
        ("interval", 0.0),
        ("interval", -5.0),
        ("interval", math.nan),
        ("interval", math.inf),
        ("timeout", 0.0),
        ("timeout", math.nan),
        ("timeout", math.inf),
    ])
    def test_bad_heartbeat_setting_fails_at_construction(self, field,
                                                         value):
        sim = Simulator()
        with pytest.raises(SimulationError, match="positive and finite"):
            HealthMonitor(sim, Cluster(4, MachineSpec()),
                          _RecordingMaster(), **{field: value})

    def test_silenced_machine_detected_after_timeout(self):
        sim, _cluster, master, monitor = self._fixture()
        monitor.start()
        sim.call_at(7.0, lambda: monitor.silence(2, None))
        sim.run(until=60.0)
        assert len(master.failures) == 1
        machine_id, detected_at = master.failures[0]
        assert machine_id == 2
        # Silence at t=7, last beat t=5; earliest poll with
        # now - last_beat >= 10 is t=15.
        assert detected_at == pytest.approx(15.0)
        assert monitor.detections == 1

    def test_revived_before_timeout_never_reported(self):
        sim, _cluster, master, monitor = self._fixture()
        monitor.start()
        sim.call_at(6.0, lambda: monitor.silence(1, None))
        sim.call_at(12.0, lambda: monitor.revive(1))
        sim.run(until=60.0)
        assert master.failures == []

    def test_stop_kills_the_heartbeat_loop(self):
        sim, _cluster, _master, monitor = self._fixture()
        monitor.start()
        sim.call_at(20.0, monitor.stop)
        sim.run()  # would never drain if the loop survived
        assert sim.now == pytest.approx(20.0)

    def test_stop_before_start_and_after_the_loop_died(self):
        sim, _cluster, _master, monitor = self._fixture()
        monitor.stop()  # never started: nothing to kill
        monitor.start()
        process = monitor._process
        process.kill()
        monitor.stop()  # already dead: not killed twice
        assert monitor._process is None and not process.alive

    def test_a_monitor_starts_once(self):
        _sim, _cluster, _master, monitor = self._fixture()
        monitor.start()
        with pytest.raises(SimulationError, match="already started"):
            monitor.start()


# ------------------------------------------------ end-to-end recovery


class TestCrashRecoveryEndToEnd:
    def _run(self):
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        runtime = HarmonyRuntime(24, jobs, fault_plan=crash_plan(
            [(3600.0, 5)], downtime=1800.0))
        return runtime, runtime.run()

    def test_jobs_regroup_on_survivors_and_all_finish(self):
        runtime, result = self._run()
        assert len(result.finished) == 8
        assert not result.failed
        assert runtime.monitor.detections == 1

        log = result.fault_log
        assert log is not None and len(log.records) == 1
        record = log.records[0]
        assert record.kind == "machine_crash"
        assert record.machine_id == 5
        # The heartbeat monitor, not an oracle, found the crash: the
        # detection latency is in (0, interval + timeout].
        assert 0.0 < record.detection_seconds <= 120.0
        # The displaced jobs rolled back at most one checkpoint
        # interval each and every one of them recovered.
        assert record.job_ids
        interval = CHECKPOINT_INTERVAL_ITERATIONS
        assert 0 <= record.lost_iterations \
            <= interval * len(record.job_ids)
        assert set(record.recovery_seconds) == set(record.job_ids)
        summary = log.summary()
        assert summary.n_crashes == 1
        assert summary.unrecovered_jobs == 0
        assert summary.max_recovery_seconds >= record.detection_seconds

    def test_a_crash_without_downtime_is_never_repaired(self):
        """A zero ``duration`` crash schedules no repair: the machine
        stays out of service and the jobs finish on the survivors."""
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        runtime = HarmonyRuntime(24, jobs, fault_plan=crash_plan(
            [(3600.0, 5)], downtime=0.0))
        result = runtime.run()
        assert len(result.finished) == 8
        assert runtime.injector.pending_repairs == 0
        assert runtime.cluster.is_failed(5)
        assert runtime.cluster.owner_of(5) is None

    def test_a_whole_cluster_outage_waits_for_the_repairs(self):
        # Every machine is down for two hours: nothing runs and nothing
        # can start, but the watchdog must not give up while repairs
        # are scheduled.
        job = JobSpec("tiny", LDA, DATASETS["LDA"][1], iterations=30)
        downtime = 7200.0
        plan = FaultPlan.build([
            FaultEvent(200.0, FaultKind.MACHINE_CRASH, machine,
                       duration=downtime) for machine in range(4)], seed=1)
        result = HarmonyRuntime(4, [job], fault_plan=plan).run()
        assert result.outcomes["tiny"].state is JobState.FINISHED
        assert result.outcomes["tiny"].finish_time > 200.0 + downtime
        assert "faults: 4 crashes / 0 slowdowns / 0 drops" \
            in result.summary()

    def test_a_crash_in_a_draining_group_leaves_the_rebuild(self):
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        runtime = HarmonyRuntime(24, jobs)
        master = runtime.master
        master.sim.spawn(runtime._pacer(), name="pacer")
        for spec in runtime.workload:
            master.sim.call_at(spec.submit_time,
                               lambda s=spec: master.submit(s))
        until = 0.0
        while master._rebuild is None or not master._rebuild.draining:
            until += 10.0
            master.sim.run(until=until)
        draining = sorted(master._rebuild.draining)
        victim = runtime.cluster.owned_by(draining[0])[0]
        master.inject_machine_failure(victim)
        assert draining[0] not in master.groups
        assert master._rebuild is None \
            or draining[0] not in master._rebuild.draining
        master.sim.run()
        assert all(job.state is JobState.FINISHED
                   for job in master.jobs.values())

    def test_same_seed_replays_identically(self):
        _, first = self._run()
        _, second = self._run()
        assert {j: o.finish_time for j, o in first.outcomes.items()} \
            == {j: o.finish_time for j, o in second.outcomes.items()}
        assert first.fault_log.records == second.fault_log.records

    def test_crash_rolls_back_one_checkpoint_interval(self):
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        runtime = HarmonyRuntime(24, jobs)
        master = runtime.master
        master.sim.spawn(runtime._pacer(), name="pacer")
        for spec in runtime.workload:
            master.sim.call_at(spec.submit_time,
                               lambda s=spec: master.submit(s))
        master.sim.run(until=3600.0)
        victim = next(m for m in runtime.cluster.machine_ids
                      if runtime.cluster.owner_of(m))
        group = master.groups[runtime.cluster.owner_of(victim)]
        before = {j.job_id: j.remaining_iterations
                  for j in group.jobs()}
        displaced = master.inject_machine_failure(victim)
        assert set(displaced) == set(before)
        interval = CHECKPOINT_INTERVAL_ITERATIONS
        for job_id in displaced:
            job = master.jobs[job_id]
            rollback = job.remaining_iterations - before[job_id]
            assert 0 <= rollback <= interval
            # Never rolled back past the job's total work.
            assert job.remaining_iterations <= job.spec.iterations

    def test_crash_during_inflight_pause_checkpoint(self):
        """Regroup/fault interleaving: a machine dies while one of its
        jobs is pausing for a migration checkpoint.  The job must be
        rolled back exactly once (not once for the pause and once for
        the crash), and the resumed run must finish with every
        run-level invariant intact."""
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        runtime = HarmonyRuntime(24, jobs)
        master = runtime.master
        master.sim.spawn(runtime._pacer(), name="pacer")
        for spec in runtime.workload:
            master.sim.call_at(spec.submit_time,
                               lambda s=spec: master.submit(s))
        master.sim.run(until=3600.0)
        group = next(g for g in master.groups.values() if g.n_jobs >= 2)
        migrating = group.jobs()[0]
        group.request_pause(migrating.job_id)  # checkpoint in flight
        before = {j.job_id: j.remaining_iterations
                  for j in group.jobs()}
        displaced = master.inject_machine_failure(group.machine_ids[0])
        assert migrating.job_id in displaced
        interval = CHECKPOINT_INTERVAL_ITERATIONS
        for job_id in displaced:
            job = master.jobs[job_id]
            rollback = job.remaining_iterations - before[job_id]
            assert 0 <= rollback <= interval  # rolled back at most once
            # The pump may have re-admitted the victim already.
            assert job.state in (JobState.PAUSED, JobState.RUNNING)
        master.sim.run()
        assert all(j.state is JobState.FINISHED
                   for j in master.jobs.values())
        assert master.rolled_back_iterations  # the crash was accounted
        assert InvariantChecker().check_runtime(runtime) == []


class TestTransientFaults:
    def test_slowdown_and_drop_windows_cost_time_not_jobs(self):
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        plan = FaultPlan.build([
            FaultEvent(3600.0, FaultKind.MACHINE_SLOWDOWN, 3,
                       duration=1800.0, severity=4.0),
            FaultEvent(5400.0, FaultKind.NETWORK_DROP, 9,
                       duration=600.0, severity=2.0),
        ], seed=1)
        baseline = HarmonyRuntime(24, jobs).run()
        faulty = HarmonyRuntime(24, jobs, fault_plan=plan).run()
        assert len(faulty.finished) == len(baseline.finished)
        # No crash ⇒ nothing to detect or recover from.
        summary = faulty.fault_log.summary()
        assert summary.n_crashes == 0
        assert summary.n_slowdowns == 1
        assert summary.n_drops == 1
        assert summary.unrecovered_jobs == 0
        # Both windows struck a live group (machines were owned).
        for record in faulty.fault_log.records:
            assert record.group_id is not None
            assert record.job_ids

    def test_fault_on_unknown_machine_rejected(self):
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        plan = FaultPlan.build([FaultEvent(
            10.0, FaultKind.MACHINE_CRASH, 99)], seed=1)
        runtime = HarmonyRuntime(24, jobs, fault_plan=plan)
        with pytest.raises(SimulationError, match="unknown machine"):
            runtime.injector.install()

    def test_a_plan_installs_once(self):
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        runtime = HarmonyRuntime(24, jobs, fault_plan=crash_plan(
            [(3600.0, 5)], downtime=1800.0))
        runtime.injector.install()
        with pytest.raises(SimulationError, match="already installed"):
            runtime.injector.install()


# --------------------------------------------------- cluster ledger


class TestClusterFailureLedger:
    def test_failed_machine_leaves_and_rejoins_free_pool(self):
        cluster = Cluster(4, MachineSpec())
        assert cluster.n_free == 4
        cluster.mark_failed(2)
        assert cluster.n_free == 3
        assert cluster.n_failed == 1
        assert cluster.is_failed(2)
        assert 2 not in cluster.allocate(3, "g1")
        cluster.restore_machine(2)
        assert cluster.n_failed == 0
        assert cluster.n_free == 1

    def test_owned_machine_parked_on_release(self):
        cluster = Cluster(4, MachineSpec())
        held = cluster.allocate(2, "g1")
        victim = held[0]
        cluster.mark_failed(victim)
        cluster.release_all("g1")
        # The failed machine must not silently rejoin the free pool.
        assert cluster.n_free == 3
        assert cluster.is_failed(victim)
        cluster.restore_machine(victim)
        assert cluster.n_free == 4
