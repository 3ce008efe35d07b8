"""Tests for the simulated group execution engine (§IV-A)."""

import pytest

from repro.config import ExecutionConfig, SimConfig
from repro.core.group_runtime import ExecutionMode, GroupRuntime
from repro.core.job import Job, JobState
from repro.core.perfmodel import PerfModel
from repro.core.profiler import Profiler
from repro.errors import OutOfMemoryError, SimulationError
from repro.sim import RandomStreams, Simulator
from repro.workloads.apps import DATASETS, JobSpec, LASSO, LDA, MLR, NMF
from repro.workloads.costmodel import CostModel


class Hooks:
    def __init__(self):
        self.finished = []
        self.paused = []
        self.failed = []
        self.iterations = 0

    def on_iteration(self, job, group):
        self.iterations += 1

    def on_job_finished(self, job, group):
        job.state = JobState.FINISHED
        self.finished.append(job.job_id)

    def on_job_paused(self, job, group):
        job.state = JobState.PAUSED
        self.paused.append(job.job_id)

    def on_job_failed(self, job, group, error):
        job.state = JobState.FAILED
        self.failed.append((job.job_id, error))


def build_group(n_machines=8, mode=ExecutionMode.HARMONY,
                config=None):
    sim = Simulator()
    config = config if config is not None else SimConfig(
        execution=ExecutionConfig(duration_jitter_cv=0.0,
                                  barrier_overhead=0.0))
    hooks = Hooks()
    group = GroupRuntime(sim, "g", tuple(range(n_machines)), mode,
                         CostModel(config.machine), config,
                         RandomStreams(1), hooks)
    return sim, group, hooks


def running_job(job_id, app=LDA, dataset=1, iterations=3, **kwargs):
    job = Job(JobSpec(job_id, app, DATASETS[app.name][dataset],
                      iterations=iterations, **kwargs))
    job.state = JobState.RUNNING
    return job


class TestBasicExecution:
    def test_single_job_runs_to_convergence(self):
        sim, group, hooks = build_group()
        job = running_job("a", iterations=4)
        assert group.add_job(job)
        sim.run()
        assert hooks.finished == ["a"]
        assert hooks.iterations == 4
        assert job.remaining_iterations == 0

    def test_no_machines_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            GroupRuntime(sim, "g", (), ExecutionMode.HARMONY,
                         CostModel(), SimConfig(), RandomStreams(1),
                         Hooks())

    def test_duplicate_add_raises(self):
        sim, group, _ = build_group()
        job = running_job("a")
        group.add_job(job)
        with pytest.raises(SimulationError):
            group.add_job(job)

    def test_job_in_other_group_rejected(self):
        sim, group, _ = build_group()
        job = running_job("a")
        job.group_id = "elsewhere"
        with pytest.raises(SimulationError):
            group.add_job(job)

    def test_stop_with_live_jobs_raises(self):
        sim, group, _ = build_group()
        group.add_job(running_job("a"))
        with pytest.raises(SimulationError):
            group.stop()

    def test_cycles_record_measured_subtasks(self):
        sim, group, _ = build_group(n_machines=16)
        job = running_job("a", iterations=2)
        group.add_job(job)
        sim.run()
        assert len(group.cycles) == 2
        profile = CostModel().profile(job.spec, 16)
        cycle = group.cycles[-1]
        assert cycle.t_cpu_measured == pytest.approx(profile.t_comp,
                                                     rel=0.01)
        assert cycle.t_net_measured == pytest.approx(profile.t_comm,
                                                     rel=0.01)


class TestPipelining:
    def test_coordinated_group_matches_eq1(self):
        """Steady-state cycle times track the Eq. 1 prediction within a
        few percent (Fig. 13b's claim)."""
        sim, group, _ = build_group(n_machines=16)
        jobs = [running_job(f"j{i}", app=LDA, dataset=0, iterations=8)
                for i in range(3)]
        for job in jobs:
            group.add_job(job)
        sim.run()
        profiler = Profiler()
        for cycle in group.cycles:
            profiler.record_iteration(cycle.job_id,
                                      cycle.t_cpu_measured,
                                      cycle.t_net_measured, 16)
        estimate = PerfModel().estimate_group(
            [profiler.get(j.job_id) for j in jobs], 16)
        steady = [c.duration for c in group.cycles][len(jobs) * 2:]
        measured = sum(steady) / len(steady)
        assert measured == pytest.approx(estimate.t_group_iteration,
                                         rel=0.10)

    def test_colocation_beats_sequential_execution(self):
        """Two jobs pipelined finish sooner than back-to-back solo
        runs (the whole point of §IV-A)."""
        solo_durations = []
        for index in range(2):
            sim, group, _ = build_group(n_machines=16)
            group.add_job(running_job(f"solo{index}", app=LDA,
                                      dataset=0, iterations=5))
            sim.run()
            solo_durations.append(sim.now)

        sim, group, _ = build_group(n_machines=16)
        group.add_job(running_job("a", app=LDA, dataset=0, iterations=5))
        group.add_job(running_job("b", app=LDA, dataset=0, iterations=5))
        sim.run()
        assert sim.now < sum(solo_durations)

    def test_cpu_never_runs_two_comps_at_once(self):
        sim, group, _ = build_group(n_machines=16)
        for index in range(3):
            group.add_job(running_job(f"j{index}", app=LDA, dataset=0,
                                      iterations=4))
        sim.run()
        group.cpu.close_segments()
        assert all(segment.level <= 1.0 + 1e-9
                   for segment in group.cpu.segments)


class TestPause:
    def test_pause_waits_for_iteration_boundary(self):
        sim, group, hooks = build_group()
        job = running_job("a", iterations=10)
        group.add_job(job)
        # Ask for a pause shortly after start: the ongoing iteration
        # must complete first (§IV-B4).
        sim.call_at(1.0, lambda: group.request_pause("a"))
        sim.run()
        assert hooks.paused == ["a"]
        assert 0 < job.remaining_iterations < 10

    def test_pause_unknown_job_raises(self):
        sim, group, _ = build_group()
        with pytest.raises(SimulationError):
            group.request_pause("ghost")

    def test_pause_all_empties_group(self):
        sim, group, hooks = build_group()
        for index in range(2):
            group.add_job(running_job(f"j{index}", iterations=50))
        sim.call_at(1.0, group.request_pause_all)
        sim.run()
        assert sorted(hooks.paused) == ["j0", "j1"]
        assert group.is_idle

    def test_finished_job_beats_pause(self):
        """A job on its last iteration finishes rather than pauses."""
        sim, group, hooks = build_group()
        job = running_job("a", iterations=1)
        group.add_job(job)
        sim.call_at(1.0, lambda: group.request_pause("a"))
        sim.run()
        assert hooks.finished == ["a"]
        assert hooks.paused == []


class TestMemoryBehaviour:
    def test_naive_triple_ooms(self):
        """The Fig. 4 failure: three big jobs, no spill, 16 machines."""
        sim, group, hooks = build_group(n_machines=16,
                                        mode=ExecutionMode.NAIVE)
        group.add_job(running_job("nmf", app=NMF, dataset=0))
        group.add_job(running_job("mlr", app=MLR, dataset=0,
                                  model_scale=2.0))
        group.add_job(running_job("lasso", app=LASSO, dataset=0,
                                  model_scale=2.0))
        sim.run()
        assert len(hooks.failed) >= 1
        assert all(isinstance(error, OutOfMemoryError)
                   for _, error in hooks.failed)

    def test_harmony_spills_where_naive_ooms(self):
        """The same three jobs survive under Harmony's reloading."""
        sim, group, hooks = build_group(n_machines=16,
                                        mode=ExecutionMode.HARMONY)
        group.add_job(running_job("nmf", app=NMF, dataset=0))
        group.add_job(running_job("mlr", app=MLR, dataset=0,
                                  model_scale=2.0))
        group.add_job(running_job("lasso", app=LASSO, dataset=0,
                                  model_scale=2.0))
        sim.run()
        assert not hooks.failed
        assert len(hooks.finished) == 3

    def test_reload_stall_recorded_when_disk_saturated(self):
        """A spilling job on few machines must sometimes wait on disk."""
        sim, group, _ = build_group(n_machines=4)
        job = running_job("big", app=MLR, dataset=1, iterations=3)
        group.add_job(job)
        sim.run()
        assert job.alpha > 0  # it had to spill
        assert any(cycle.stall >= 0 for cycle in group.cycles)

    def test_can_admit_rejects_impossible_job(self):
        """Even with full input AND model spill, the worker-side cache
        of an absurdly large model cannot fit one machine."""
        sim, group, _ = build_group(n_machines=1)
        monster = running_job("big", app=MLR, dataset=1,
                              model_scale=30.0)
        assert not group.can_admit(monster)

    def test_can_admit_accepts_spillable_giant(self):
        """A Table-I-sized job fits even one machine via the §IV-C
        input + model spill fallbacks (slow, but placeable)."""
        sim, group, _ = build_group(n_machines=1)
        assert group.can_admit(running_job("big", app=MLR, dataset=1))


class TestModes:
    @pytest.mark.parametrize("factor", [0.0, -1.0])
    def test_fault_windows_need_a_positive_factor(self, factor):
        _, group, _ = build_group()
        with pytest.raises(SimulationError, match="slowdown factor"):
            group.apply_cpu_slowdown(factor)
        with pytest.raises(SimulationError, match="penalty factor"):
            group.apply_net_penalty(factor)

    def test_naive_mode_shares_cpu(self):
        """Uncoordinated COMPs overlap: utilization level reflects
        concurrent service."""
        sim, group, _ = build_group(n_machines=16,
                                    mode=ExecutionMode.NAIVE)
        for index in range(2):
            group.add_job(running_job(f"j{index}", app=LDA, dataset=0,
                                      iterations=3))
        sim.run()
        assert len(group.cycles) == 6

    def test_naive_slower_than_harmony_for_same_jobs(self):
        durations = {}
        for mode in (ExecutionMode.HARMONY, ExecutionMode.NAIVE):
            sim, group, _ = build_group(n_machines=16, mode=mode)
            for index in range(3):
                group.add_job(running_job(f"j{index}", app=LDA,
                                          dataset=0, iterations=5))
            sim.run()
            durations[mode] = sim.now
        assert durations[ExecutionMode.NAIVE] > \
            durations[ExecutionMode.HARMONY]

    def test_mode_flags(self):
        assert ExecutionMode.HARMONY.coordinated
        assert ExecutionMode.HARMONY.spill_enabled
        assert not ExecutionMode.NAIVE.coordinated
        assert not ExecutionMode.ISOLATED.spill_enabled
