"""Edge-case tests across runtime components discovered during
calibration — regression guards for subtle behaviours."""


from repro.config import ExecutionConfig, SimConfig
from repro.core.group_runtime import ExecutionMode, GroupRuntime
from repro.core.job import Job, JobState
from repro.core.runtime import HarmonyRuntime
from repro.sim import RandomStreams, Simulator
from repro.workloads.apps import DATASETS, JobSpec, LDA
from repro.workloads.costmodel import CostModel
from repro.workloads.generator import WorkloadGenerator
from tests.fault_plans import crash_plan


class _Hooks:
    def __init__(self):
        self.events = []

    def on_iteration(self, job, group):
        self.events.append(("iter", job.job_id))

    def on_job_finished(self, job, group):
        job.state = JobState.FINISHED
        self.events.append(("finish", job.job_id))

    def on_job_paused(self, job, group):
        job.state = JobState.PAUSED
        self.events.append(("pause", job.job_id))

    def on_job_failed(self, job, group, error):
        job.state = JobState.FAILED
        self.events.append(("fail", job.job_id))


def make_group(n_machines=8):
    sim = Simulator()
    config = SimConfig(execution=ExecutionConfig(
        duration_jitter_cv=0.0, barrier_overhead=0.0))
    hooks = _Hooks()
    group = GroupRuntime(sim, "g", tuple(range(n_machines)),
                         ExecutionMode.HARMONY,
                         CostModel(config.machine), config,
                         RandomStreams(1), hooks)
    return sim, group, hooks


def lda_job(job_id, iterations=4):
    job = Job(JobSpec(job_id, LDA, DATASETS["LDA"][1],
                      iterations=iterations))
    job.state = JobState.RUNNING
    return job


class TestCrashEdgeCases:
    def test_crash_empty_group_is_safe(self):
        sim, group, _ = make_group()
        assert group.crash() == []
        assert group.is_idle

    def test_crash_mid_iteration_returns_all_victims(self):
        sim, group, hooks = make_group()
        jobs = [lda_job(f"j{i}", iterations=50) for i in range(3)]
        for job in jobs:
            group.add_job(job)
        victims = []
        sim.call_at(30.0, lambda: victims.extend(group.crash()))
        sim.run()
        assert {j.job_id for j in victims} == {"j0", "j1", "j2"}
        # No finish/pause hooks fired for the crashed jobs.
        assert not [e for e in hooks.events if e[0] != "iter"]
        # Group state fully cleared.
        assert group.is_idle
        for job in jobs:
            assert job.group_id is None

    def test_crash_then_restart_elsewhere(self):
        """A crashed job can immediately join a fresh group."""
        sim, group, _ = make_group()
        job = lda_job("j", iterations=6)
        group.add_job(job)
        state = {}

        def crash_and_restart():
            group.crash()
            job.state = JobState.RUNNING
            sim2_group = GroupRuntime(
                sim, "g2", (100, 101, 102, 103),
                ExecutionMode.HARMONY, group.cost_model, group.config,
                group.streams, group.hooks)
            state["ok"] = sim2_group.add_job(job, restore=True)
        sim.call_at(10.0, crash_and_restart)
        sim.run()
        assert state["ok"]
        assert job.state is JobState.FINISHED

    def test_crash_accounting_stops_resources(self):
        sim, group, _ = make_group()
        group.add_job(lda_job("j", iterations=50))
        sim.call_at(60.0, group.crash)
        sim.run()
        # Busy accounting frozen at crash time, not at queue drain.
        assert group.stopped_at == 60.0


class TestRuntimeFailureEdges:
    """Crashes at the edges of a run, each on a machine a group owns
    (or, after the last job, owned during the run)."""

    def test_failure_at_time_zero(self):
        """The t=0 submissions start groups before the crash fires."""
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        result = HarmonyRuntime(
            24, jobs, fault_plan=crash_plan([(0.0, 20)])).run()
        [record] = result.fault_log.records
        assert record.job_ids
        assert len(result.finished) == len(jobs)

    def test_many_failures_on_one_machine(self):
        """Crashes in one heartbeat window: machine 12 three times
        within a second (one detection), and at the same instant one
        machine in each of two other groups."""
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        runtime = HarmonyRuntime(24, jobs, fault_plan=crash_plan(
            [(1800.0, 12), (1800.5, 12), (1801.0, 12),
             (1800.0, 8), (1800.0, 16)]))
        result = runtime.run()
        displaced = [record for record in result.fault_log.records
                     if record.job_ids]
        assert len({record.group_id for record in displaced}) == 3
        assert runtime.monitor.detections == 3
        assert len(result.finished) == len(jobs)

    def test_failure_after_everything_finished(self):
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        baseline = HarmonyRuntime(24, jobs).run()
        late = baseline.makespan + 10_000.0
        result = HarmonyRuntime(
            24, jobs, fault_plan=crash_plan([(late, 12)])).run()
        assert len(result.finished) == len(jobs)
        assert result.makespan == baseline.makespan


class TestProfilingEdgeCases:
    def test_job_shorter_than_profiling_window_finishes(self):
        """A 2-iteration job converges while still PROFILING."""
        spec = JobSpec("flash", LDA, DATASETS["LDA"][1], iterations=2)
        result = HarmonyRuntime(8, [spec]).run()
        assert len(result.finished) == 1

    def test_single_iteration_job(self):
        spec = JobSpec("one", LDA, DATASETS["LDA"][1], iterations=1)
        result = HarmonyRuntime(8, [spec]).run()
        assert len(result.finished) == 1

    def test_many_tiny_jobs_churn_through_profiling(self):
        specs = [JobSpec(f"tiny{i}", LDA, DATASETS["LDA"][1],
                         iterations=2) for i in range(12)]
        result = HarmonyRuntime(16, specs).run()
        assert len(result.finished) == 12
