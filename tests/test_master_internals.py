"""White-box tests of the HarmonyMaster's scheduling machinery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.config import ExecutionConfig, MemoryConfig, SimConfig
from repro.core.job import JobState
from repro.core.master import HarmonyMaster
from repro.core.memory_manager import TARGET_PRESSURE
from repro.core.scheduler import GroupPlan, SchedulePlan
from repro.errors import SchedulingError, SimulationError
from repro.metrics.utilization import ClusterUsageRecorder
from repro.policies.base import GroupStart
from repro.sim import RandomStreams, Simulator
from repro.workloads.apps import APPS, DATASETS, JobSpec, LDA, MLR
from repro.workloads.costmodel import CostModel


def build_master(n_machines=24, config=None, comm_architecture="ps"):
    sim = Simulator()
    config = config if config is not None else SimConfig(
        execution=ExecutionConfig(duration_jitter_cv=0.0,
                                  barrier_overhead=0.0))
    cluster = Cluster(n_machines, config.machine)
    recorder = ClusterUsageRecorder(n_machines)
    cost_model = CostModel(config.machine,
                           comm_architecture=comm_architecture)
    master = HarmonyMaster(sim, cluster, cost_model,
                           config, RandomStreams(config.seed), recorder)
    return sim, master


def lda_spec(job_id, iterations=5, **kwargs):
    return JobSpec(job_id, LDA, DATASETS["LDA"][1],
                   iterations=iterations, **kwargs)


def mlr_spec(job_id, iterations=5, **kwargs):
    return JobSpec(job_id, MLR, DATASETS["MLR"][0],
                   iterations=iterations, **kwargs)


class TestSubmission:
    def test_submit_enters_profiling_immediately(self):
        sim, master = build_master()
        job = master.submit(lda_spec("a"))
        assert job.state is JobState.PROFILING
        assert master.groups  # a bootstrap group exists

    def test_duplicate_submit_rejected(self):
        sim, master = build_master()
        master.submit(lda_spec("a"))
        with pytest.raises(SchedulingError):
            master.submit(lda_spec("a"))

    def test_bootstrap_group_size_covers_memory_floor(self):
        sim, master = build_master(n_machines=24)
        master.submit(mlr_spec("big"))
        group = next(iter(master.groups.values()))
        floor = master._memory_floor(["big"])
        assert group.n_machines >= floor

    def test_second_job_joins_profiling_group(self):
        """§IV-B1: deploy to 'a job group that is already profiling
        another new job'."""
        sim, master = build_master()
        master.submit(lda_spec("a"))
        master.submit(lda_spec("b"))
        assert len(master.groups) == 1

    def test_third_profiler_opens_new_group(self):
        """At most two concurrent profilees per group."""
        sim, master = build_master()
        for name in ("a", "b", "c"):
            master.submit(lda_spec(name))
        assert len(master.groups) == 2


class TestHooks:
    def test_a_harmony_group_never_fails_a_job(self):
        # Only naive co-location fails jobs on OOM, and no Harmony
        # group co-locates naively.
        sim, master = build_master()
        job = master.submit(lda_spec("a"))
        group = next(iter(master.groups.values()))
        with pytest.raises(SimulationError, match="never co-locate"):
            master.on_job_failed(job, group, RuntimeError("oom"))


class TestMemoryFloor:
    def test_floor_with_spill_is_small(self):
        sim, master = build_master()
        master.submit(mlr_spec("big"))
        assert master._memory_floor(["big"]) <= 4

    def test_floor_without_spill_is_larger(self):
        config = SimConfig(memory=MemoryConfig(spill_enabled=False))
        sim, master = build_master(config=config)
        master.submit(mlr_spec("big"))
        assert master._memory_floor(["big"]) >= 5

    def test_floor_sums_over_colocated_jobs(self):
        config = SimConfig(memory=MemoryConfig(spill_enabled=False))
        sim, master = build_master(config=config)
        master.submit(mlr_spec("a"))
        master.submit(mlr_spec("b"))
        single = master._memory_floor(["a"])
        double = master._memory_floor(["a", "b"])
        assert double > single

    def test_unplaceable_jobs_get_sentinel(self):
        sim, master = build_master(n_machines=8)
        master.submit(mlr_spec("huge", model_scale=40.0,
                               compute_scale=1.0))
        config_floor = master._memory_floor(["huge"])
        assert config_floor == master.cluster.size + 1


def linear_scan_floor(master, specs, max_machines=None):
    """The floor straight from the cost model: every resident byte
    count re-derived at every machine count up to ``max_machines`` (the
    cluster size by default), on the master's basis."""
    cost_model = master.cost_model
    footprints = master.footprints
    budget = cost_model.spec.usable_memory_bytes * TARGET_PRESSURE
    if max_machines is None:
        max_machines = master.cluster.size
    for m in range(1, max_machines + 1):
        need = sum(cost_model.resident_bytes(
            spec, m, alpha=footprints.alpha) for spec in specs)
        if need <= budget:
            return m
    if footprints.adaptive:
        for m in range(1, max_machines + 1):
            need = sum(cost_model.resident_bytes(
                spec, m, alpha=1.0, model_spilled=True) for spec in specs)
            if need <= budget:
                return m
    return max_machines + 1


def assert_entries_exact(footprints, specs):
    """Every entry the table has served is the cost model's float."""
    by_id = {spec.job_id: spec for spec in specs}
    for (job_id, m, alpha, spilled), value in footprints._entries.items():
        assert value == footprints.cost_model.resident_bytes(
            by_id[job_id], m, alpha, spilled)


#: (app, dataset index, model scale); a 40x model never fits a small
#: cluster unless the model itself spills.
job_draws = st.lists(st.tuples(st.sampled_from(sorted(APPS)),
                               st.integers(0, 1),
                               st.sampled_from((1.0, 3.0, 40.0))),
                     min_size=1, max_size=6)


def floor_specs(draws):
    return [JobSpec(f"j{index}", APPS[app], DATASETS[app][dataset],
                    model_scale=scale, iterations=1)
            for index, (app, dataset, scale) in enumerate(draws)]


def draw_groups(data, specs):
    """Up to 12 member lists of 1-5 of ``specs``, in drawn orders."""
    return data.draw(st.lists(
        st.permutations(specs).flatmap(
            lambda order: st.integers(1, min(5, len(order))).map(
                lambda size: order[:size])),
        min_size=1, max_size=12))


#: Under all-reduce every machine holds the whole model, so a 40x LDA
#: or NMF model never fits at the basis alpha on any machine count;
#: only the model-spill basis places it.
spill_only_draws = st.lists(st.tuples(st.sampled_from(("LDA", "NMF")),
                                      st.integers(0, 1), st.just(40.0)),
                            min_size=1, max_size=3)


class TestFloorRows:
    """The master's floors read the footprint table; they must equal the
    direct cost-model scan's floor for every group, in every member
    order, under every machine limit, whatever the table already holds,
    and every entry the table serves must be ``CostModel.resident_bytes``
    bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(draws=job_draws, n_machines=st.integers(1, 48),
           other_limit=st.integers(1, 48),
           architecture=st.sampled_from(("ps", "allreduce")),
           spill=st.booleans(),
           fixed_alpha=st.sampled_from((None, 0.0, 0.35, 1.0)),
           data=st.data())
    def test_rows_match_linear_scan(self, draws, n_machines, other_limit,
                                    architecture, spill, fixed_alpha,
                                    data):
        config = SimConfig(memory=MemoryConfig(spill_enabled=spill,
                                               fixed_alpha=fixed_alpha))
        _, master = build_master(n_machines, config, architecture)
        specs = floor_specs(draws)
        for group in draw_groups(data, specs):
            for order in (group, group[::-1]):
                # The same members under two limits on one table.
                for limit in (n_machines, other_limit):
                    assert master.footprints.floor(order, limit) \
                        == linear_scan_floor(master, order, limit)
        assert_entries_exact(master.footprints, specs)

    @settings(max_examples=60, deadline=None)
    @given(spill_only=spill_only_draws, draws=job_draws,
           n_machines=st.integers(1, 48), data=st.data())
    def test_spill_only_members_match_linear_scan(self, spill_only, draws,
                                                  n_machines, data):
        _, master = build_master(n_machines, SimConfig(), "allreduce")
        footprints = master.footprints
        assert footprints.adaptive
        specs = floor_specs(spill_only + draws)
        budget = footprints.budget
        for spec in specs[:len(spill_only)]:
            assert all(master.cost_model.resident_bytes(
                spec, m, alpha=footprints.alpha) > budget
                for m in range(1, n_machines + 1))
        groups = draw_groups(data, specs) + [specs[:len(spill_only)]]
        for group in groups:
            for order in (group, group[::-1]):
                assert footprints.floor(order, n_machines) \
                    == linear_scan_floor(master, order)
        assert_entries_exact(footprints, specs)

    @pytest.mark.parametrize("architecture", ["ps", "allreduce"])
    @pytest.mark.parametrize("spill", [True, False])
    def test_group_that_never_fits(self, architecture, spill):
        config = SimConfig(memory=MemoryConfig(spill_enabled=spill))
        _, master = build_master(2, config, architecture)
        footprints = master.footprints
        specs = floor_specs([("MLR", 1, 40.0), ("Lasso", 1, 40.0)])
        assert linear_scan_floor(master, specs) == 3
        assert footprints.floor(specs, 2) == 3
        assert footprints.floor(specs[:1], 2) \
            == linear_scan_floor(master, specs[:1])
        assert (("j0", 1, 1.0, True) in footprints._entries) is spill

    def test_rows_grow_only_as_far_as_the_scan(self):
        """The group scan adds each member's rows from ``m = 1`` up to
        the group's floor, and no further."""
        _, master = build_master(24)
        footprints = master.footprints
        specs = floor_specs([("MLR", 1, 3.0), ("MLR", 0, 3.0),
                             ("LDA", 1, 1.0)])
        floor = footprints.floor(specs, 24)
        assert floor == linear_scan_floor(master, specs)
        assert 1 < floor <= 24
        assert set(footprints._entries) == {
            (spec.job_id, m, 1.0, False)
            for spec in specs for m in range(1, floor + 1)}


class TestEndToEndInvariants:
    def _run(self, specs, n_machines=24):
        sim, master = build_master(n_machines)
        for spec in specs:
            sim.call_at(spec.submit_time,
                        lambda s=spec: master.submit(s))
        sim.run()
        return sim, master

    def test_machines_never_oversubscribed(self):
        specs = [lda_spec(f"j{i}", iterations=6) for i in range(6)]
        sim, master = self._run(specs)
        assert master.all_done
        assert master.cluster.n_free == master.cluster.size

    def test_every_decision_record_is_consistent(self):
        specs = [lda_spec(f"j{i}", iterations=8) for i in range(4)]
        sim, master = self._run(specs)
        for record in master.recorder.decisions:
            assert record.n_machines >= 1
            assert record.predicted_t_group > 0
            assert len(record.job_ids) >= 1
            if record.measured_t_group is not None:
                assert record.measured_t_group > 0

    def test_group_shape_log_matches_decisions(self):
        specs = [lda_spec(f"j{i}", iterations=8) for i in range(4)]
        sim, master = self._run(specs)
        assert len(master.group_shape_log) == \
            len(master.recorder.decisions)

    def test_pending_moves_drained_by_completion(self):
        specs = [lda_spec(f"j{i}", iterations=6) for i in range(5)]
        sim, master = self._run(specs)
        assert master._pending_moves == {}
        assert master._rebuild is None

    def test_mixed_workload_completes(self):
        specs = [lda_spec("small", iterations=6),
                 mlr_spec("large", iterations=4),
                 lda_spec("small2", iterations=6)]
        sim, master = self._run(specs)
        assert master.all_done
        assert all(job.state is JobState.FINISHED
                   for job in master.jobs.values())


class TestPeriodicCheck:
    def test_noop_when_nothing_profiled(self):
        sim, master = build_master()
        master.periodic_check()  # must not raise
        assert master._rebuild is None

    def test_cooldown_suppresses_back_to_back_applies(self):
        sim, master = build_master()
        master._last_apply_time = 0.0
        # Immediately after an apply, even a beneficial plan must wait.
        master.periodic_check()
        assert master._rebuild is None

    def test_check_skips_during_rebuild(self):
        sim, master = build_master()
        from repro.core.master import _Rebuild
        master._rebuild = _Rebuild(draining=set(), slots=[])
        master.periodic_check()  # no exception, no change
        assert master._rebuild is not None


class TestPlanSlots:
    def test_a_slot_whose_jobs_a_crash_displaced_opens_no_group(self):
        """A regrouping routes a and b to a fresh 6-machine slot, which
        waits for their 4-machine group to drain; a crash displaces both
        first.  The slot opens nothing (no empty group spends an id),
        and the waiting pool's admission places them."""
        sim, master = build_master(n_machines=8)
        for name in ("a", "b"):
            master._add_job(lda_spec(name)).state = JobState.PAUSED
            master.profiler.record_iteration(name, 1.0, 1.0, 4)
        assert master._apply((GroupStart(("a", "b"), 4),), ("a", "b"))
        (old,) = master.groups.values()
        metrics = master._metrics_of(old.jobs())
        estimate = master.perf_model.estimate_group(metrics, 6)
        master._apply_plan(SchedulePlan(
            groups=(GroupPlan(("a", "b"), 6, estimate),),
            utilization=estimate.utilization, score=1.0,
            total_machines=8), scope_group_ids={old.group_id})
        assert master._pending_moves == {"a": "slot:0", "b": "slot:0"}
        assert master._rebuild.draining == {old.group_id}

        machine = old.machine_ids[0]
        master.cluster.mark_failed(machine)
        assert master.inject_machine_failure(machine) == ["a", "b"]
        assert master._rebuild is None
        assert [usage.group_id for usage in
                master.recorder.finished_groups] == [old.group_id]
        assert master.groups
        assert all(not group.is_idle for group in master.groups.values())
        assert all(master.jobs[name].group_id in master.groups
                   for name in ("a", "b"))


class TestBalancedMachines:
    def test_balanced_m_reflects_ratio(self):
        sim, master = build_master(n_machines=24)
        master.submit(lda_spec("a", iterations=40))
        sim.run(until=7200.0)
        metrics = master.profiler.get("a")
        balanced = master._balanced_machines(metrics)
        if balanced is not None:
            assert 1 <= balanced <= 24

    def test_none_when_no_free_machines(self):
        from repro.core.profiler import JobMetrics
        sim, master = build_master(n_machines=4)
        master.cluster.allocate(master.cluster.n_free, "hog")
        stub = JobMetrics("stub", cpu_work=100.0, t_net=10.0,
                          m_observed=4)
        assert master._balanced_machines(stub) is None
