"""The policy protocol and the competitor zoo (repro.policies).

Covers the decision-level edge cases (empty queues, jobs larger than
the cluster, reservation-delay vetoes), the bitwise differential pins
(legacy constructor args vs explicit policy objects; registry entries
vs direct runtimes), hash-seed independence of the tie-breaks, and
harmonylint cleanliness of the package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.baselines.base import BaselineRuntime
from repro.baselines.isolated import IsolatedRuntime
from repro.baselines.naive import NaiveRuntime
from repro.config import SimConfig
from repro.core.group_runtime import ExecutionMode
from repro.errors import SchedulingError, SimulationError
from repro.policies.base import (
    GroupStart,
    PolicyObservation,
    RunningGroupView,
    SchedulingPolicy,
)
from repro.policies.queueing import (
    conservative,
    easy,
    easy_backfill,
    fcfs,
    packed_fifo,
)
from repro.policies.registry import available, build_runtime
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
        memory_dominated=lambda job_ids, wanted: False,
        metrics_at=lambda job_id, m: None,
        remaining_iterations=lambda job_id: 10,
        solo_seconds=lambda job_id, m: solo.get(job_id, 100.0),
        running=lambda: tuple(running))


class TestDecisionEdgeCases:
    @pytest.mark.parametrize("policy", [fcfs(), easy(), conservative(),
                                        packed_fifo(group_size=2)])
    def test_empty_queue_yields_no_starts(self, policy):
        decision = policy.decide(make_obs(queue=(), free=8))
        assert decision.starts == ()
        assert decision.machines_requested == 0

    def test_backfill_with_empty_queue_and_running_groups(self):
        # Reservation bookkeeping must not blow up when there is
        # nothing to reserve *for* but machines are still busy.
        running = (RunningGroupView("b0", ("j9",), 8,
                                    predicted_release=500.0),)
        decision = easy().decide(make_obs(queue=(), free=0,
                                          running=running))
        assert decision.starts == ()

    @pytest.mark.parametrize("policy", [easy(), conservative()])
    def test_job_larger_than_cluster_never_wedges(self, policy):
        # "huge" cannot run on any cluster state; the jobs behind it
        # must still be admitted, and no infinite reservation forms.
        obs = make_obs(queue=("huge", "small"), free=8, cluster=16,
                       demands={"huge": 99, "small": 2})
        decision = policy.decide(obs)
        assert [s.job_ids for s in decision.starts] == [("small",)]

    def test_fcfs_head_of_line_blocks(self):
        obs = make_obs(queue=("wide", "narrow"), free=4, cluster=16,
                       demands={"wide": 8, "narrow": 1})
        assert fcfs().decide(obs).starts == ()

    def test_packed_fifo_backfills_past_blocked_head(self):
        obs = make_obs(queue=("wide", "narrow"), free=4, cluster=16,
                       demands={"wide": 8, "narrow": 1})
        decision = packed_fifo(group_size=1).decide(obs)
        assert [s.job_ids for s in decision.starts] == [("narrow",)]

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
        assert easy_backfill(obs).starts == ()

    def test_backfill_allowed_when_it_finishes_in_time(self):
        # Same scenario, but the candidate releases its machines at
        # t=50 — before the reservation needs them.
        running = (RunningGroupView("b0", ("r",), 6,
                                    predicted_release=100.0),)
        obs = make_obs(queue=("blocked", "cand"), free=2, cluster=16,
                       demands={"blocked": 8, "cand": 2},
                       solo={"cand": 50.0}, running=running)
        decision = easy_backfill(obs)
        assert [s.job_ids for s in decision.starts] == [("cand",)]

    def test_group_start_validation(self):
        with pytest.raises(SchedulingError):
            GroupStart((), 1)
        with pytest.raises(SchedulingError):
            GroupStart(("a",), 0)
        with pytest.raises(SchedulingError):
            GroupStart(("a", "b"), 2, start_offsets=(0.0,))

    def test_policies_satisfy_the_protocol(self):
        for policy in (fcfs(), easy(), conservative(),
                       packed_fifo(group_size=3)):
            assert isinstance(policy, SchedulingPolicy)
            assert policy.name


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

    def test_negative_start_delay_rejected(self, jobs, sim_config):
        from repro.cluster.cluster import Cluster
        from repro.core.group_runtime import GroupRuntime
        from repro.core.job import Job
        from repro.sim import RandomStreams, Simulator
        from repro.workloads.costmodel import CostModel

        sim = Simulator()
        cluster = Cluster(8, sim_config.machine)
        group = GroupRuntime(
            sim, "g0", cluster.allocate(4, "g0"), ExecutionMode.HARMONY,
            CostModel(sim_config.machine), sim_config,
            RandomStreams(7), hooks=_InertHooks())
        with pytest.raises(SimulationError):
            group.add_job(Job(jobs[0]), start_delay=-1.0)


class TestSharedRunLoop:
    """Every registry entry runs through the same run loop, so tracing
    and the cycle-derived result fields behave the same for all."""

    @pytest.fixture(scope="class")
    def jobs(self):
        return WorkloadGenerator(5).base_workload(
            hyper_params_per_pair=1)

    @pytest.mark.parametrize("name", [name for name, _ in available()])
    def test_traced_run_matches_untraced(self, name, jobs):
        config = SimConfig(seed=11)
        plain = build_runtime(name, 20, jobs, config=config).run()
        traced = build_runtime(name, 20, jobs,
                               config=config.with_tracing()).run()
        assert plain.trace is None
        assert traced.trace is not None and traced.trace.spans
        # harmony: allow[DET006] bitwise equality is the property under test
        assert traced.jcts == plain.jcts
        # harmony: allow[DET006] bitwise equality is the property under test
        assert traced.makespan == plain.makespan
        for which in ("cpu", "net"):
            # harmony: allow[DET006] bitwise equality is the property under test
            assert traced.average_utilization(which) == \
                plain.average_utilization(which)

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
    iteration_hooks_inert = True

    def on_iteration(self, job, group):
        pass

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
            paths=["src/repro/policies"], root=REPO_ROOT,
            baseline_path=None)).run()
        assert [str(f) for f in report.findings] == []
        assert report.n_files >= 6
