"""The policy functions and the competitor zoo (repro.policies).

Covers the decision-level edge cases (empty queues, jobs larger than
the cluster, reservation-delay vetoes), the bitwise differential pins
(legacy constructor args vs explicit policies; registry entries
vs direct runtimes), hash-seed independence of the tie-breaks, and
harmonylint cleanliness of the package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.baselines.base import BaselineRuntime
from repro.baselines.isolated import IsolatedRuntime
from repro.baselines.naive import NaiveRuntime
from repro.config import SchedulerConfig, SimConfig
from repro.core.group_runtime import ExecutionMode
from repro.core.profiler import JobMetrics
from repro.core.runtime import HarmonyRuntime
from repro.errors import SchedulingError, SimulationError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.policies.interleave import cassini
from repro.policies.packing import synergy
from repro.policies.base import (
    GroupStart,
    PolicyObservation,
    RunningGroupView,
)
from repro.policies.queueing import conservative, easy, fcfs, packed_fifo
from repro.policies.planner import harmony_static, plan_decision
from repro.policies.registry import available, build_runtime, register
from repro.workloads.generator import WorkloadGenerator

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_obs(queue=(), free=8, cluster=16, demands=None, solo=None,
             running=(), now=0.0):
    """A synthetic observation over per-job demand/runtime tables."""
    demands = demands or {}
    solo = solo or {}

    def batch_demand(job_ids):
        return sum(demands.get(job_id, 1) for job_id in job_ids)

    return PolicyObservation(
        now=now, cluster_size=cluster, n_free=free, queue=tuple(queue),
        batch_demand=batch_demand,
        memory_floor=lambda job_ids: 1,
        metrics_at=lambda job_id, m: None,
        solo_seconds=lambda job_id, m: solo.get(job_id, 100.0),
        running=lambda: tuple(running))


class TestDecisionEdgeCases:
    @pytest.mark.parametrize("policy", [fcfs, easy, conservative,
                                        packed_fifo(group_size=2)])
    def test_empty_queue_yields_no_starts(self, policy):
        assert policy(make_obs(queue=(), free=8)) == ()

    def test_backfill_with_empty_queue_and_running_groups(self):
        # Reservation bookkeeping must not blow up when there is
        # nothing to reserve *for* but machines are still busy.
        running = (RunningGroupView("b0", ("j9",), 8,
                                    predicted_release=500.0),)
        assert easy(make_obs(queue=(), free=0, running=running)) == ()

    @pytest.mark.parametrize("policy", [easy, conservative])
    def test_job_larger_than_cluster_never_wedges(self, policy):
        # "huge" cannot run on any cluster state; the jobs behind it
        # must still be admitted, and no infinite reservation forms.
        obs = make_obs(queue=("huge", "small"), free=8, cluster=16,
                       demands={"huge": 99, "small": 2})
        assert [s.job_ids for s in policy(obs)] == [("small",)]

    def test_fcfs_head_of_line_blocks(self):
        obs = make_obs(queue=("wide", "narrow"), free=4, cluster=16,
                       demands={"wide": 8, "narrow": 1})
        assert fcfs(obs) == ()

    def test_packed_fifo_backfills_past_blocked_head(self):
        obs = make_obs(queue=("wide", "narrow"), free=4, cluster=16,
                       demands={"wide": 8, "narrow": 1})
        starts = packed_fifo(group_size=1)(obs)
        assert [s.job_ids for s in starts] == [("narrow",)]

    def test_backfill_vetoed_when_it_delays_reservation(self):
        # Head "blocked" (demand 8) reserves t=100, when the running
        # group's 6 machines join the 2 free ones.  A 500s backfill
        # candidate holding those 2 machines would push the reservation
        # to t=500 — vetoed.
        running = (RunningGroupView("b0", ("r",), 6,
                                    predicted_release=100.0),)
        obs = make_obs(queue=("blocked", "cand"), free=2, cluster=16,
                       demands={"blocked": 8, "cand": 2},
                       solo={"cand": 500.0}, running=running)
        assert easy(obs) == ()

    def test_backfill_allowed_when_it_finishes_in_time(self):
        # Same scenario, but the candidate releases its machines at
        # t=50 — before the reservation needs them.
        running = (RunningGroupView("b0", ("r",), 6,
                                    predicted_release=100.0),)
        obs = make_obs(queue=("blocked", "cand"), free=2, cluster=16,
                       demands={"blocked": 8, "cand": 2},
                       solo={"cand": 50.0}, running=running)
        assert [s.job_ids for s in easy(obs)] == [("cand",)]

    def test_group_start_validation(self):
        with pytest.raises(SchedulingError):
            GroupStart((), 1)
        with pytest.raises(SchedulingError):
            GroupStart(("a",), 0)
        with pytest.raises(SchedulingError):
            GroupStart(("a", "b"), 2, start_offsets=(0.0,))

    @pytest.mark.parametrize("offset", [-1.0, float("nan"), float("inf")])
    def test_group_start_rejects_an_offset_outside_zero_to_inf(
            self, offset):
        with pytest.raises(SchedulingError, match="job b: start offset"):
            GroupStart(("a", "b"), 2, start_offsets=(0.0, offset))


class TestDifferentialPins:
    """The refactor must not move a single float."""

    @pytest.fixture
    def jobs(self):
        return WorkloadGenerator(3).base_workload(
            hyper_params_per_pair=1)

    def _finish_times(self, result):
        return {job_id: outcome.finish_time
                for job_id, outcome in result.outcomes.items()}

    def test_legacy_args_equal_explicit_policy(self, jobs):
        legacy = NaiveRuntime(20, jobs, group_size=2, shuffle_seed=0,
                              dop_scale=0.4).run()
        explicit = BaselineRuntime(
            20, jobs, mode=ExecutionMode.NAIVE, name="explicit",
            policy=packed_fifo(group_size=2), shuffle_seed=0,
            dop_scale=0.4).run()
        # harmony: allow[DET006] bitwise equality is the property under test
        assert self._finish_times(legacy) == self._finish_times(explicit)

    def test_registry_naive_equals_direct_runtime(self, jobs):
        registry = build_runtime("naive", 20, jobs).run()
        direct = NaiveRuntime(20, jobs).run()
        # harmony: allow[DET006] bitwise equality is the property under test
        assert self._finish_times(registry) == self._finish_times(direct)

    def test_registry_isolated_equals_direct_runtime(self, jobs):
        registry = build_runtime("isolated", 20, jobs).run()
        direct = IsolatedRuntime(20, jobs).run()
        # harmony: allow[DET006] bitwise equality is the property under test
        assert self._finish_times(registry) == self._finish_times(direct)

    def test_registry_lists_all_policies_in_fixed_order(self):
        names = [name for name, _ in available()]
        assert names[:3] == ["harmony", "naive", "isolated"]
        assert set(names) >= {"fcfs", "easy", "conservative",
                              "synergy", "cassini", "harmony-static"}
        with pytest.raises(SchedulingError):
            build_runtime("nope", 20, [])


class TestCompetitorRuntimes:
    """End-to-end smoke + invariants for the new policy runtimes."""

    @pytest.fixture
    def jobs(self):
        return WorkloadGenerator(5).base_workload(
            hyper_params_per_pair=1)

    @pytest.mark.parametrize("name", ["fcfs", "easy", "conservative",
                                      "synergy", "cassini",
                                      "harmony-static"])
    def test_runs_clean_under_invariants(self, name, jobs):
        from repro.check import InvariantChecker
        runtime = build_runtime(name, 20, jobs,
                                config=SimConfig(seed=11))
        result = runtime.run()
        assert len(result.finished) == len(jobs)
        assert not result.failed
        violations = InvariantChecker().check_runtime(runtime)
        assert violations == []

    @staticmethod
    def _group(sim_config):
        from repro.cluster.cluster import Cluster
        from repro.core.group_runtime import GroupRuntime
        from repro.sim import RandomStreams, Simulator
        from repro.workloads.costmodel import CostModel

        sim = Simulator()
        cluster = Cluster(8, sim_config.machine)
        return GroupRuntime(
            sim, "g0", cluster.allocate(4, "g0"), ExecutionMode.HARMONY,
            CostModel(sim_config.machine), sim_config,
            RandomStreams(7), hooks=_InertHooks())

    def test_negative_start_delay_rejected(self, jobs, sim_config):
        from repro.core.job import Job

        group = self._group(sim_config)
        with pytest.raises(SimulationError):
            group.add_job(Job(jobs[0]), start_delay=-1.0)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_start_delay_rejected(self, jobs, sim_config,
                                             delay):
        """NaN used to start the job at once and +inf to park it
        forever; neither admits the job now."""
        from repro.core.job import Job

        group = self._group(sim_config)
        job = Job(jobs[0])
        with pytest.raises(SimulationError, match="must be finite"):
            group.add_job(job, start_delay=delay)
        assert group.is_idle and job.group_id is None


class _StaleStartPolicy:
    """fcfs, with stale starts around its own each pass: ahead of them,
    one naming a job started in an earlier pass, one repeating an id
    and one wider than the free machines; after them, a one-machine
    start of the jobs its first start just took."""

    def __init__(self):
        self.seen: list[str] = []
        self.emitted = {"started-earlier": 0, "started-now": 0,
                        "repeated": 0, "too-wide": 0}

    def __call__(self, obs):
        self.seen += [job_id for job_id in obs.queue
                      if job_id not in self.seen]
        stale = []
        started = [job_id for job_id in self.seen
                   if job_id not in obs.queue]
        if started:
            stale.append(GroupStart((started[0],), 1))
            self.emitted["started-earlier"] += 1
        if obs.queue:
            head = obs.queue[0]
            stale.append(GroupStart((head, head), 1))
            stale.append(GroupStart((head,), obs.n_free + 1))
            self.emitted["repeated"] += 1
            self.emitted["too-wide"] += 1
        starts = fcfs(obs)
        if starts:
            starts += (GroupStart(starts[0].job_ids, 1),)
            self.emitted["started-now"] += 1
        return tuple(stale) + starts


class TestStaleStarts:
    """MasterBase._apply skips stale starts: the run is the one the
    policy's valid starts alone would give."""

    def test_stale_starts_start_no_group(self):
        jobs = WorkloadGenerator(5).base_workload(hyper_params_per_pair=1)
        policy = _StaleStartPolicy()

        def run(policy):
            runtime = BaselineRuntime(20, jobs, mode=ExecutionMode.ISOLATED,
                                      name="stale-starts", policy=policy)
            return runtime, runtime.run()

        stale_rt, stale = run(policy)
        plain_rt, plain = run(fcfs)
        assert all(count > 0 for count in policy.emitted.values())
        assert len(stale.finished) == len(jobs)
        assert not stale.failed
        assert len(stale_rt.master.group_audits) == \
            len(plain_rt.master.group_audits) == len(jobs)
        # harmony: allow[DET006] skipped starts must not move a float
        assert stale.jcts == plain.jcts

    def test_a_pass_of_only_stale_starts_ends_the_pump(self):
        # Every pass carries a start for a job id the master never saw;
        # once fcfs has nothing to start, that start alone must end the
        # pump rather than start a group or loop.
        jobs = WorkloadGenerator(5).base_workload(hyper_params_per_pair=1)
        runtime = BaselineRuntime(
            20, jobs, mode=ExecutionMode.ISOLATED, name="ghost",
            policy=lambda obs: (GroupStart(("ghost",), 1),) + fcfs(obs))
        result = runtime.run()
        assert len(result.finished) == len(jobs)
        assert "ghost" not in runtime.master.jobs


class TestPlanDecision:
    def test_no_plan_starts_nothing(self):
        assert plan_decision(None, 8) == ()

    def test_groups_that_no_longer_fit_are_skipped_in_order(self):
        plan = SimpleNamespace(groups=[
            SimpleNamespace(job_ids=("a",), n_machines=5),
            SimpleNamespace(job_ids=("b", "c"), n_machines=4),
            SimpleNamespace(job_ids=("d",), n_machines=3)])
        assert plan_decision(plan, 8) == (GroupStart(("a",), 5),
                                          GroupStart(("d",), 3))


def metric_obs(metrics, queue, free=8, cluster=16, demands=None):
    """A synthetic observation whose jobs carry profiled metrics."""
    demands = demands or {}
    obs = make_obs(queue=queue, free=free, cluster=cluster,
                   demands=demands)
    return replace(obs, metrics_at=lambda job_id, m: metrics[job_id],
                   memory_floor=lambda job_ids: 1)


def _metrics(job_id, cpu_work, t_net):
    return JobMetrics(job_id=job_id, cpu_work=cpu_work, t_net=t_net,
                      m_observed=1)


class TestPackingAndInterleavingPasses:
    """The queue walks of the Synergy-, CASSINI- and Algorithm 1-style
    policies: heads no cluster state can place, partners that do not
    fit the free machines, and partners that do not pay off."""

    METRICS = {
        "huge": _metrics("huge", 10.0, 1.0),
        "a": _metrics("a", 10.0, 1.0),
        "wide": _metrics("wide", 1.0, 10.0),
        "twin": _metrics("twin", 10.0, 1.0),
        "idle": _metrics("idle", 0.0, 0.0),
        "idle2": _metrics("idle2", 0.0, 0.0),
        "dud": _metrics("dud", 0.1, 0.1),
    }

    @pytest.mark.parametrize("make", [cassini, synergy])
    def test_a_head_no_cluster_can_place_is_stepped_over(self, make):
        obs = metric_obs(self.METRICS, ("huge", "a"),
                         demands={"huge": 99, "a": 2})
        assert [s.job_ids for s in make(obs)] == [("a",)]

    @pytest.mark.parametrize("make, partner", [(cassini, "twin"),
                                               (synergy, "dud")])
    def test_partners_that_do_not_fit_or_pay_off_stay_queued(
            self, make, partner):
        # "wide" would complement "a" but needs more than the free
        # machines.  The partner fits but does not pay off: "twin" is
        # as CPU-bound as "a" (below CASSINI's compatibility bar) and
        # "dud" lowers the packed score (no Synergy gain).  "a" starts
        # alone, and the FIFO head "wide" then waits for machines.
        obs = metric_obs(self.METRICS, ("a", "wide", partner), free=8,
                         demands={"a": 2, "wide": 7, partner: 2})
        assert [s.job_ids for s in make(obs)] == [("a",)]

    def test_jobs_without_work_are_fully_compatible(self):
        obs = metric_obs(self.METRICS, ("idle", "idle2"))
        assert [s.job_ids for s in cassini(obs)] == [("idle", "idle2")]

    def test_plan_policy_skips_jobs_no_cluster_can_place(self):
        demands = {"huge": 99, "a": 2}
        only_huge = metric_obs(self.METRICS, ("huge",), demands=demands)
        assert harmony_static(SchedulerConfig())(only_huge) == ()
        both = metric_obs(self.METRICS, ("huge", "a"), demands=demands)
        starts = harmony_static(SchedulerConfig())(both)
        assert [s.job_ids for s in starts] == [("a",)]

    def test_a_reservation_no_release_can_meet_vetoes_nothing(self):
        # "blocked" needs 10 of 16 machines, but only 4 are free and
        # nothing running will release any: its reserved start is inf,
        # and a backfill cannot delay inf.
        obs = make_obs(queue=("blocked", "cand"), free=4, cluster=16,
                       demands={"blocked": 10, "cand": 2})
        assert [s.job_ids for s in conservative(obs)] == [("cand",)]

    def test_packed_fifo_needs_a_positive_group_size(self):
        with pytest.raises(SchedulingError, match="group_size"):
            packed_fifo(group_size=0)

    def test_a_policy_name_registers_once(self):
        with pytest.raises(SchedulingError, match="duplicate policy"):
            register("fcfs", "again")(lambda *args: None)
        assert "fcfs" in dict(available())


class TestSharedRunLoop:
    """Every registry entry runs through the same run loop, so tracing
    and the cycle-derived result fields behave the same for all."""

    @pytest.fixture(scope="class")
    def jobs(self):
        return WorkloadGenerator(5).base_workload(
            hyper_params_per_pair=1)

    #: Harmony on an axis whose instrumentation sits behind the tracing
    #: off-switch outside the registry policies, with an instant only
    #: that axis emits (proof the traced run crossed the guarded site).
    AXES = {"harmony+faults": "fault-detected",
            "harmony+sharding": "placer.route"}

    @staticmethod
    def _runtime(name, jobs, config):
        if name == "harmony+sharding":
            return HarmonyRuntime(20, jobs, config=config.with_sharding(2))
        if name == "harmony+faults":
            plan = FaultPlan.build([
                FaultEvent(2000.0, FaultKind.MACHINE_CRASH, 3,
                           duration=900.0),
                FaultEvent(4000.0, FaultKind.MACHINE_SLOWDOWN, 5,
                           duration=900.0, severity=3.0),
                FaultEvent(6000.0, FaultKind.NETWORK_DROP, 7,
                           duration=300.0, severity=2.0)])
            return HarmonyRuntime(20, jobs, config=config, fault_plan=plan)
        return build_runtime(name, 20, jobs, config=config)

    @pytest.mark.parametrize(
        "name", [name for name, _ in available()] + sorted(AXES))
    def test_traced_run_matches_untraced(self, name, jobs):
        config = SimConfig(seed=11)
        plain_runtime = self._runtime(name, jobs, config)
        plain = plain_runtime.run()
        traced = self._runtime(name, jobs, config.with_tracing()).run()
        assert plain_runtime.sim.tracer is None
        assert plain.trace is None
        assert traced.trace is not None and traced.trace.spans
        if name in self.AXES:
            assert self.AXES[name] in {
                event.name for event in traced.trace.instants}
        # harmony: allow[DET006] bitwise equality is the property under test
        assert traced.jcts == plain.jcts
        # harmony: allow[DET006] bitwise equality is the property under test
        assert traced.makespan == plain.makespan
        for which in ("cpu", "net"):
            # harmony: allow[DET006] bitwise equality is the property under test
            assert traced.average_utilization(which) == \
                plain.average_utilization(which)
        assert traced.gates == plain.gates
        assert traced.fastpath == plain.fastpath

    def test_naive_result_sums_its_cycles(self, jobs):
        result = NaiveRuntime(20, jobs).run()
        cycles = result._all_cycles
        assert cycles
        assert result.gc_seconds > 0.0
        # harmony: allow[DET006] the result field is this very sum
        assert result.gc_seconds == sum(c.gc_overhead for c in cycles)
        # harmony: allow[DET006] the result field is this very sum
        assert result.stall_seconds == sum(c.stall for c in cycles)
        assert result.alpha_samples == [c.alpha for c in cycles]


class _InertHooks:
    on_iteration = None

    def on_job_finished(self, job, group):
        pass

    def on_job_paused(self, job, group):
        pass

    def on_job_failed(self, job, group, error):
        pass


class TestHashSeedIndependence:
    """Policy tie-breaks must follow queue order, never hash order."""

    _SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
from repro.experiments.tournament import TournamentParams, run
result = run(TournamentParams(
    seed=3, scale=0.2,
    policies=("synergy", "cassini", "easy", "fcfs"),
    arrivals=("batch",), cluster_scales=(1.0,), engines=("fast",)))
print(json.dumps({{
    "ordering": list(result.ordering()),
    "jcts": [(c.policy, c.mean_jct, c.makespan) for c in result.cells],
}}, sort_keys=True))
"""

    def test_leaderboard_stable_across_hash_seeds(self):
        outputs = []
        script = self._SCRIPT.format(
            src=os.path.join(REPO_ROOT, "src"))
        for hash_seed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True)
            outputs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        assert outputs[0] == outputs[1] == outputs[2]


class TestHarmonylintClean:
    def test_policies_package_passes_det_and_sim_rules(self):
        from repro.analysis.engine import AnalysisConfig, Analyzer
        report = Analyzer(AnalysisConfig(
            paths=["src/repro/policies"], root=REPO_ROOT)).run()
        assert [str(f) for f in report.findings] == []
        assert report.n_files >= 6
