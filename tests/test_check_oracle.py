"""Differential tests for the multi-job Eq. 1 boundary oracle.

:func:`repro.check.oracle.predict_group_boundaries` replays a shared
group as a pure fixed-point mini-simulator; these tests pit its
predicted iteration boundaries against the full execution engine's
``CycleRecord.finished_at`` instants under the deterministic config
(jitter, barrier overhead and spill all off, so the engine *is*
Eq. 1's world and the two must agree to float accumulation error).
"""

import numpy as np
import pytest

from repro.check.oracle import (
    deterministic_config,
    job_subtasks,
    predict_group_boundaries,
    predict_group_iteration_boundaries,
    predict_iteration_seconds,
    predict_job_span,
    exact_metrics,
    step_boundaries,
)
from repro.core.group_runtime import (
    NAIVE_CPU_INTERFERENCE,
    NAIVE_NET_INTERFERENCE,
    ExecutionMode,
    GroupRuntime,
)
from repro.core.job import Job, JobState
from repro.core.profiler import JobMetrics
from repro.sim import RandomStreams, Simulator
from repro.sim.resources import (
    primary_secondary,
    processor_sharing,
    serial,
)
from repro.workloads.apps import DATASETS, LASSO, LDA, MLR, NMF, JobSpec
from repro.workloads.costmodel import CostModel


class _Hooks:
    on_iteration = None

    def __init__(self):
        self.finished = []

    def on_job_finished(self, job, group):
        job.state = JobState.FINISHED
        self.finished.append(job.job_id)

    def on_job_paused(self, job, group):  # pragma: no cover - unused
        job.state = JobState.PAUSED

    def on_job_failed(self, job, group, error):  # pragma: no cover
        job.state = JobState.FAILED


def spec_pool():
    # Small enough that a 5-job group on 24 machines stays below the
    # GC-pressure onset (asserted per test) — Eq. 1 has no GC term.
    return [
        JobSpec("j0", LDA, DATASETS[LDA.name][1], iterations=4),
        JobSpec("j1", MLR, DATASETS[MLR.name][0], iterations=3),
        JobSpec("j2", NMF, DATASETS[NMF.name][0], iterations=5),
        JobSpec("j3", LASSO, DATASETS[LASSO.name][0], iterations=4),
        JobSpec("j4", LDA, DATASETS[LDA.name][0], iterations=2),
    ]


def run_engine(specs, m, mode, seed=3):
    """Run the real engine; per-job finished_at arrays + the group."""
    config = deterministic_config(seed)
    sim = Simulator()
    group = GroupRuntime(sim, "g", tuple(range(m)), mode,
                         CostModel(config.machine), config,
                         RandomStreams(config.seed), _Hooks())
    for spec in specs:
        job = Job(spec)
        job.state = JobState.RUNNING
        assert group.add_job(job)
    sim.run()
    measured = {spec.job_id: [] for spec in specs}
    for cycle in group.cycles:
        measured[cycle.job_id].append(cycle.finished_at)
    return {job_id: np.asarray(times)
            for job_id, times in measured.items()}, group


def oracle_inputs(specs, m, mode, seed=3):
    """The (jobs, policies) tapes mirroring the engine's construction."""
    config = deterministic_config(seed)
    cost_model = CostModel(config.machine)
    jobs = []
    for spec in specs:
        job = Job(spec)
        profile = cost_model.profile(spec, m)
        load = cost_model.disk.read_seconds(
            spec.input_gb * (1.0 - job.alpha) / m * 1024**3)
        jobs.append((spec.job_id,
                     job_subtasks(load, profile.t_pull, profile.t_comp,
                                  profile.t_push, spec.iterations)))
    if mode is ExecutionMode.NAIVE:
        policies = {"cpu": processor_sharing(NAIVE_CPU_INTERFERENCE),
                    "net": processor_sharing(NAIVE_NET_INTERFERENCE),
                    "disk": processor_sharing()}
    else:
        policies = {"cpu": serial(),
                    "net": primary_secondary(
                        config.execution.secondary_comm_rate),
                    "disk": processor_sharing()}
    return jobs, policies


class TestInputErrors:
    def test_a_negative_step_count_is_rejected(self):
        with pytest.raises(ValueError, match="negative n_steps -1"):
            step_boundaries(0.0, -1, 0.1)

    def test_an_iteration_needs_a_machine(self):
        metrics = JobMetrics(job_id="j", cpu_work=4.0, t_net=1.0,
                             m_observed=1)
        assert predict_iteration_seconds(metrics, 2) == 3.0
        with pytest.raises(ValueError, match="at least one machine"):
            predict_iteration_seconds(metrics, 0)


class TestAgainstEngine:
    @pytest.mark.parametrize("n_jobs", [1, 2, 3, 4, 5])
    def test_harmony_boundaries_match(self, n_jobs):
        specs = spec_pool()[:n_jobs]
        m = 24
        measured, group = run_engine(specs, m, ExecutionMode.HARMONY)
        # The scenario must stay in Eq. 1's regime: no GC inflation,
        # no reload stalls — otherwise the tapes are the wrong model.
        assert all(c.gc_overhead == 0.0 and c.stall == 0.0
                   for c in group.cycles)
        jobs, policies = oracle_inputs(specs, m, ExecutionMode.HARMONY)
        predicted = predict_group_iteration_boundaries(jobs, policies)
        for spec in specs:
            np.testing.assert_allclose(predicted[spec.job_id],
                                       measured[spec.job_id],
                                       rtol=1e-9)

    @pytest.mark.parametrize("n_jobs", [2, 3, 4])
    def test_naive_boundaries_match(self, n_jobs):
        specs = spec_pool()[:n_jobs]
        m = 24
        measured, group = run_engine(specs, m, ExecutionMode.NAIVE)
        assert all(c.gc_overhead == 0.0 and c.stall == 0.0
                   for c in group.cycles)
        jobs, policies = oracle_inputs(specs, m, ExecutionMode.NAIVE)
        predicted = predict_group_iteration_boundaries(jobs, policies)
        for spec in specs:
            np.testing.assert_allclose(predicted[spec.job_id],
                                       measured[spec.job_id],
                                       rtol=1e-9)

    def test_solo_degenerates_to_eq1_span(self):
        """With one job the joint fixed point collapses to Eq. 1."""
        spec = spec_pool()[0]
        m = 24
        config = deterministic_config(3)
        cost_model = CostModel(config.machine)
        jobs, policies = oracle_inputs([spec], m, ExecutionMode.HARMONY)
        predicted = predict_group_iteration_boundaries(jobs, policies)
        metrics = exact_metrics(cost_model, spec, m)
        load = jobs[0][1][0][1]
        span = predict_job_span(metrics, m, spec.iterations)
        assert predicted[spec.job_id][-1] == pytest.approx(
            load + span, rel=1e-12)


class TestMiniSimulatorSemantics:
    def test_two_jobs_overlap_on_harmony_policies(self):
        """Co-location pipelines CPU against network (§III-B): the
        joint makespan beats running the tapes back-to-back."""
        jobs = [("a", job_subtasks(0.0, 2.0, 6.0, 2.0, 3)),
                ("b", job_subtasks(0.0, 2.0, 6.0, 2.0, 3))]
        policies = {"cpu": serial(), "net": primary_secondary(0.4),
                    "disk": processor_sharing()}
        done = predict_group_boundaries(jobs, policies)
        joint = max(done["a"][-1], done["b"][-1])
        solo = 3 * (2.0 + 6.0 + 2.0)
        assert solo < joint < 2 * solo

    def test_zero_work_waits_for_serial_turn(self):
        """A zero-work subtask behind a serial() head is starved until
        the head completes — it must not finish at t=0."""
        jobs = [("a", [("cpu", 5.0)]), ("b", [("cpu", 0.0)])]
        done = predict_group_boundaries(jobs, {"cpu": serial()})
        assert done["a"][0] == pytest.approx(5.0)
        assert done["b"][0] == pytest.approx(5.0)

    def test_zero_work_completes_instantly_under_sharing(self):
        jobs = [("a", [("cpu", 5.0)]), ("b", [("cpu", 0.0)])]
        done = predict_group_boundaries(
            jobs, {"cpu": processor_sharing()})
        assert done["b"][0] == 0.0
        assert done["a"][0] == pytest.approx(5.0)

    def test_starved_forever_raises(self):
        def dead_policy(n_active):
            return (0.0,)
        jobs = [("a", [("cpu", 1.0)])]
        with pytest.raises(RuntimeError, match="starved"):
            predict_group_boundaries(jobs, {"cpu": dead_policy})

    def test_empty_tape_job(self):
        jobs = [("a", []), ("b", [("cpu", 1.0)])]
        done = predict_group_boundaries(jobs, {"cpu": serial()})
        assert done["a"].size == 0
        assert done["b"][0] == pytest.approx(1.0)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            job_subtasks(0.0, 1.0, 1.0, 1.0, -1)
