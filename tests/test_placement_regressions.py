"""Regression tests for placement bugs found during calibration.

Each test pins a failure mode that once produced livelocks, stuck
rebuilds, or over-committed groups — the kind of thing only visible in
long end-to-end runs, captured here as fast, direct scenarios.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.config import DEFAULT_SIM_CONFIG
from repro.core.group_runtime import ExecutionMode, GroupRuntime
from repro.core.job import Job
from repro.core.master import HarmonyMaster
from repro.core.runtime import HarmonyRuntime
from repro.experiments.common import scaled_workload
from repro.metrics.utilization import ClusterUsageRecorder
from repro.policies.base import GroupStart
from repro.sim import RandomStreams, Simulator
from repro.workloads.costmodel import CostModel
from repro.workloads.generator import WorkloadGenerator
from tests.fault_plans import crash_plan


def fixed_alpha_config(alpha):
    return replace(DEFAULT_SIM_CONFIG,
                   memory=replace(DEFAULT_SIM_CONFIG.memory,
                                  fixed_alpha=alpha))


#: Hang guard for the end-to-end runs below: every one of them ends by
#: about 63,000 simulated seconds.
MAX_SIM_SECONDS = 500_000.0


def run_guarded(runtime):
    """Run under the simulated-time hang guard and check the run stayed
    on the configured engine's lanes."""
    result = runtime.run(max_sim_seconds=MAX_SIM_SECONDS)
    assert result.fastpath.engaged == (runtime.config.engine == "fast")
    return result


class TestFixedAlphaPlacement:
    """The §V-G fixed-ratio mode once over-committed groups (admission
    had no fit check and nothing rebalanced), inflating GC until drains
    never finished."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_fixed_alpha_runs_terminate(self, alpha):
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        result = run_guarded(HarmonyRuntime(
            24, jobs, config=fixed_alpha_config(alpha)))
        assert len(result.finished) == len(jobs)

    def test_no_group_sits_above_oom(self):
        """With the admission gate, live groups stay below the OOM
        line at every decision epoch."""
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        runtime = HarmonyRuntime(24, jobs,
                                 config=fixed_alpha_config(0.5))
        # Sample group pressure on every membership change.
        pressures = []
        master = runtime.master
        original = master._note_membership_change

        def spy(group):
            pressures.append(group.ledger.pressure)
            original(group)
        master._note_membership_change = spy
        run_guarded(runtime)
        assert pressures
        assert max(pressures) < 1.0


#: The paper-scale base workload (80 jobs) at seed 7.
POOL = {spec.job_id: spec for spec in scaled_workload(1.0, 7)[0]}


def rejected_at_floor(job_ids, architecture, spill, fixed_alpha,
                      n_machines=20):
    """Start a group sized at the jobs' memory floor, whose jobs the
    master admits one by one through the gate; returns (floor, ids the
    group refused)."""
    config = replace(DEFAULT_SIM_CONFIG, memory=replace(
        DEFAULT_SIM_CONFIG.memory, spill_enabled=spill,
        fixed_alpha=fixed_alpha))
    master = HarmonyMaster(
        Simulator(), Cluster(n_machines, config.machine),
        CostModel(config.machine, comm_architecture=architecture),
        config, RandomStreams(1), ClusterUsageRecorder(n_machines))
    for job_id in job_ids:
        master.jobs[job_id] = Job(POOL[job_id])
    floor = master._memory_floor(job_ids)
    if floor > n_machines:
        return floor, []
    assert master._apply((GroupStart(tuple(job_ids), floor),), job_ids)
    return floor, [job_id for job_id in job_ids
                   if master.jobs[job_id].group_id is None]


#: Every (architecture, spill, fixed alpha) but all-reduce's default,
#: whose floor assumes every model spilled while admission spills only
#: a model that does not fit alone (pinned below).
gate_configs = st.tuples(
    st.sampled_from(("ps", "allreduce")), st.booleans(),
    st.sampled_from((None, 0.0, 0.35, 1.0))).filter(
        lambda config: config != ("allreduce", True, None))


class TestPlanFloorGateAlignment:
    """A plan sized exactly at its memory floor must pass the admission
    gate, or placement livelocks (plan -> reject -> re-plan forever).
    The floors and the gate read one footprint table: a group sized at
    its jobs' floor admits every one of them."""

    def test_floor_sized_groups_are_admittable(self):
        config = DEFAULT_SIM_CONFIG
        sim = Simulator()
        cluster = Cluster(100, config.machine)
        master = HarmonyMaster(sim, cluster, CostModel(config.machine),
                               config, RandomStreams(1),
                               ClusterUsageRecorder(100))
        jobs = WorkloadGenerator(5).base_workload(hyper_params_per_pair=1)
        for spec in jobs:
            master.jobs[spec.job_id] = Job(spec)
        for spec in jobs:
            floor = master._memory_floor([spec.job_id])
            assert floor <= cluster.size
            group = GroupRuntime(sim, f"probe-{spec.job_id}",
                                 tuple(range(floor)),
                                 ExecutionMode.HARMONY,
                                 master.cost_model, config,
                                 RandomStreams(1), master)
            assert group.can_admit(master.jobs[spec.job_id]), \
                f"{spec.job_id} rejected at its own floor ({floor})"

    @settings(max_examples=150, deadline=None)
    @given(config=gate_configs, job_ids=st.lists(
        st.sampled_from(sorted(POOL)), min_size=1, max_size=4,
        unique=True))
    def test_floor_sized_group_admits_its_jobs(self, config, job_ids):
        floor, rejected = rejected_at_floor(job_ids, *config)
        assert not rejected, (floor, rejected)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="all-reduce floors assume every model "
                              "spilled; admission spills only a model "
                              "that does not fit alone")
    def test_allreduce_default_floor_admits_its_jobs(self):
        job_ids = ["LDA-NYTimes-h9", "MLR-Synthetic155-h0",
                   "LDA-PubMed-h6"]
        floor, rejected = rejected_at_floor(job_ids, "allreduce", True,
                                            None)
        assert floor == 1
        assert not rejected, (floor, rejected)


class TestShrunkSlotSafety:
    """Rebuild slots created with fewer machines than planned (budget
    shrank mid-drain) must not over-commit: jobs that no longer fit
    stay paused and get placed later."""

    def test_heavy_workload_with_small_cluster_terminates(self):
        jobs = WorkloadGenerator(7).base_workload(hyper_params_per_pair=2)
        result = run_guarded(HarmonyRuntime(20, jobs))
        done = len(result.finished) + len(result.failed)
        assert done == len(jobs)
        assert not result.failed


class TestPauseResumeStability:
    def test_repeated_failures_never_wedge_rebuilds(self):
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        # A crash every 2,400 s, each on a machine a group owns.
        machines = (8, 0, 0, 0, 0, 0, 1, 0)
        crashes = list(zip(range(1200, 20_000, 2400), machines,
                           strict=True))
        runtime = HarmonyRuntime(24, jobs, fault_plan=crash_plan(crashes))
        result = run_guarded(runtime)
        assert all(record.job_ids for record in result.fault_log.records)
        assert runtime.monitor.detections == len(crashes)
        assert len(result.finished) == len(jobs)
        assert runtime.master._rebuild is None
        assert runtime.master._pending_moves == {}
