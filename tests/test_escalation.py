"""The regroup gates of ``HarmonyMaster``.

An escalation (§IV-B4, ``_escalate``) regroups over up to four growing
scopes and applies the preferred candidate only when it beats the
current cluster score by more than the regroup threshold.
``_best_case_score`` bounds every candidate's score from above, so an
escalation whose bound cannot clear the threshold is skipped before
Algorithm 1 runs, and one whose choice no larger scope can displace
stops growing (``regroup.settled``).  A periodic check (§IV-B2) whose
current score puts the threshold above ``_SCORE_CEILING`` skips
Algorithm 1 too.  These tests pin that the bounds are sound, that
skipping never changes a run, and that the sharded front end (whose
schedule() calls leave history behind) never skips.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.config import MemoryConfig, SimConfig
from repro.core import master as master_module
from repro.core.master import HarmonyMaster
from repro.core.perfmodel import PerfModel
from repro.core.profiler import JobMetrics
from repro.core.runtime import HarmonyRuntime
from repro.core.scheduler import HarmonyScheduler
from repro.experiments.common import scaled_workload
from repro.experiments.fig13_model_accuracy import make_error_injector
from repro.faults.plan import FaultPlan
from repro.metrics.utilization import ClusterUsageRecorder
from repro.sim import RandomStreams, Simulator
from repro.workloads.costmodel import CostModel


def run_fig10(scale, seed, config=None, **kwargs):
    jobs, machines = scaled_workload(scale, seed)
    config = config if config is not None else SimConfig(seed=seed)
    runtime = HarmonyRuntime(machines, jobs, config=config, **kwargs)
    result = runtime.run()
    digest = tuple(sorted(
        (o.job_id, o.state.name, o.finish_time, o.migrations)
        for o in result.outcomes.values()))
    return runtime, result, digest


def bound_off(monkeypatch):
    """Nothing can be skipped: every escalation plans every scope and
    every periodic check plans."""
    monkeypatch.setattr(HarmonyMaster, "_best_case_score",
                        lambda self, scope: math.inf)
    monkeypatch.setattr(master_module, "_SCORE_CEILING", math.inf)


def assert_nothing_skipped(master):
    assert master.escalations_pruned == 0
    assert master.escalations_settled == 0
    assert master.checks_pruned == 0


def _fault_plan(seed):
    return FaultPlan.generate(seed=seed, n_machines=50,
                              horizon_seconds=40000.0,
                              crash_rate_per_hour=0.2,
                              slowdown_rate_per_hour=0.2,
                              crash_downtime_seconds=600.0)


#: Each case builds the keyword arguments of one fig10 run at scale 0.5.
VARIANTS = {
    "plain": lambda seed: {},
    "fault_plan": lambda seed: {"fault_plan": _fault_plan(seed)},
    "fixed_alpha": lambda seed: {"config": SimConfig(
        seed=seed, memory=MemoryConfig(fixed_alpha=0.5))},
    "error_injector": lambda seed: {"perf_model": PerfModel(
        error_injector=make_error_injector(0.3, seed=seed))},
}


class TestBestCaseBound:
    @pytest.mark.parametrize("seed", [2021, 2022])
    def test_bound_covers_every_evaluated_scope(self, monkeypatch, seed):
        """With skipping off, every scope an escalation plans scores at
        most its own best case and at most the largest scope's."""
        real_bound = HarmonyMaster._best_case_score
        real_plan = HarmonyMaster._plan_scope
        real_escalate = HarmonyMaster._escalate
        active: list[tuple] = []
        escalations: list[list] = []

        def escalate(self, anchor):
            active.append((anchor, []))
            try:
                real_escalate(self, anchor)
            finally:
                escalations.append(active.pop()[1])

        def plan_scope(self, groups):
            scoped = real_plan(self, groups)
            # Only the scopes [anchor, *others[:k]], not the admission
            # planning that applying the chosen plan may trigger.
            if active and groups and groups[0] is active[-1][0]:
                score = None
                if scoped is not None:
                    scope_ids = {g.group_id for g in groups}
                    score = self._score_estimates(
                        self._live_estimates(exclude_groups=scope_ids)
                        + [g.estimate for g in scoped[0].groups])
                active[-1][1].append((score, real_bound(self, groups)))
            return scoped

        monkeypatch.setattr(HarmonyMaster, "_escalate", escalate)
        monkeypatch.setattr(HarmonyMaster, "_plan_scope", plan_scope)
        bound_off(monkeypatch)
        run_fig10(0.5, seed)

        scored = [score for probes in escalations
                  for score, _ in probes if score is not None]
        assert len(scored) > 20
        for probes in escalations:
            largest = probes[-1][1]
            bounds = [bound for _, bound in probes]
            assert bounds == sorted(bounds)  # growing scope, growing bound
            for score, bound in probes:
                if score is not None:
                    assert score <= bound * (1.0 + 1e-9)
                    assert score <= largest * (1.0 + 1e-9)


class TestSkippingChangesNothing:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_bound_on_equals_bound_off(self, monkeypatch, variant):
        seed = 2023  # every variant skips at least once on this seed
        runtime, _, pruned_digest = run_fig10(0.5, seed,
                                              **VARIANTS[variant](seed))
        assert runtime.master.escalations_pruned > 0
        bound_off(monkeypatch)
        unpruned, _, digest = run_fig10(0.5, seed,
                                        **VARIANTS[variant](seed))
        assert_nothing_skipped(unpruned.master)
        assert digest == pruned_digest

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_settling_and_check_skips_change_nothing(self, monkeypatch,
                                                     variant):
        seed = 2021  # every variant settles and skips a check here
        runtime, _, skipping_digest = run_fig10(0.5, seed,
                                                **VARIANTS[variant](seed))
        assert runtime.master.escalations_settled > 0
        assert runtime.master.checks_pruned > 0
        bound_off(monkeypatch)
        planned, _, digest = run_fig10(0.5, seed,
                                       **VARIANTS[variant](seed))
        assert_nothing_skipped(planned.master)
        assert planned.master.checks_planned \
            > runtime.master.checks_planned
        assert digest == skipping_digest

    def test_settle_queries_see_the_next_pool(self, monkeypatch):
        """Each settle query carries the pool size of the scope it
        would plan next, and no pool planned before it is larger."""
        queries: list[list] = []
        real_settled = master_module.settled
        real_plan = HarmonyMaster._plan_scope

        def spy_settled(plans, top, next_size):
            result = real_settled(plans, top, next_size)
            queries.append([list(plans), next_size, result, None])
            return result

        def plan_scope(self, groups):
            # An unsettled query is followed by planning its scope.
            if queries and not queries[-1][2] and queries[-1][3] is None:
                queries[-1][3] = len(self._scope_pool(groups))
            return real_plan(self, groups)

        monkeypatch.setattr(master_module, "settled", spy_settled)
        monkeypatch.setattr(HarmonyMaster, "_plan_scope", plan_scope)
        runtime, _, _ = run_fig10(0.5, 2021)
        assert sum(result for _, _, result, _ in queries) \
            == runtime.master.escalations_settled > 0
        assert any(not result for _, _, result, _ in queries)
        for plans, next_size, result, planned_size in queries:
            assert next_size >= max(size for size, _ in plans)
            if not result:
                assert next_size == planned_size

    def test_applied_plans_equal_bound_off(self, monkeypatch):
        """Not just the outcomes: the very plans applied, in order."""
        seed = 2022
        applied: list[list] = [[], []]
        real_apply = HarmonyMaster._apply_plan

        def spy(run):
            def apply_plan(self, plan, scope_group_ids):
                applied[run].append((self.sim.now, plan,
                                     sorted(scope_group_ids)))
                return real_apply(self, plan, scope_group_ids)
            return apply_plan

        monkeypatch.setattr(HarmonyMaster, "_apply_plan", spy(0))
        skipping, _, _ = run_fig10(0.5, seed)
        assert skipping.master.escalations_settled > 0
        assert skipping.master.checks_pruned > 0
        bound_off(monkeypatch)
        monkeypatch.setattr(HarmonyMaster, "_apply_plan", spy(1))
        run_fig10(0.5, seed)
        assert len(applied[0]) > 5
        assert applied[0] == applied[1]

    def test_escalate_instants_match_the_counters(self):
        """One ``escalate`` instant per escalation, pruned ones flagged;
        tracing changes no outcome."""
        seed = 2021
        plain, _, digest = run_fig10(0.5, seed)
        traced, result, traced_digest = run_fig10(
            0.5, seed, config=SimConfig(seed=seed).with_tracing())
        assert traced_digest == digest
        instants = [i for i in result.trace.instants
                    if i.name == "escalate"]
        assert len(instants) == traced.master.full_path_regroups > 0
        pruned = [i for i in instants if i.args["pruned"]]
        assert len(pruned) == traced.master.escalations_pruned \
            == plain.master.escalations_pruned > 0
        for instant in pruned:
            assert instant.args["scopes_evaluated"] == 0
            assert not instant.args["applied"]
            assert not instant.args["settled"]
            assert instant.args["bound"] <= instant.args["current"] \
                * (1.0 + instant.args["threshold"]) + 1e-4
        assert any(i.args["applied"] for i in instants)
        settled = [i for i in instants if i.args["settled"]]
        assert len(settled) == traced.master.escalations_settled \
            == plain.master.escalations_settled > 0
        for instant in settled:
            assert instant.args["scopes_evaluated"] >= 1

    def test_regroup_check_instants_match_the_counters(self):
        """One ``regroup-check`` instant per planned or skipped check;
        a skipped one carries no planned score, and a planned one counts
        the prefixes whose n_G* the L6 certificate settled, which only
        planned (not cached) prefixes can be."""
        seed = 2021
        plain, _, _ = run_fig10(0.5, seed)
        traced, result, _ = run_fig10(
            0.5, seed, config=SimConfig(seed=seed).with_tracing())
        assert traced.master.gate_counts() == plain.master.gate_counts()
        checks = [i for i in result.trace.instants
                  if i.name == "regroup-check"]
        skipped = [i for i in checks if i.args["pruned"]]
        assert len(skipped) == traced.master.checks_pruned > 0
        assert len(checks) - len(skipped) \
            == traced.master.checks_planned > 0
        for instant in skipped:
            assert instant.args["planned_score"] is None
            assert not instant.args["triggered"]
            assert instant.args["current_score"] \
                * (1.0 + instant.args["threshold"]) >= 1.0 - 1e-4
        for instant in checks:
            if not instant.args["pruned"]:
                assert instant.args["planned_score"] <= 1.0
                assert instant.args["prefixes_evaluated"] >= 1
                assert 0 <= instant.args["groups_certified"] \
                    <= instant.args["cache_misses"]
        assert sum(i.args["groups_certified"] for i in checks
                   if not i.args["pruned"]) > 0

    def test_summary_reports_the_gates(self):
        runtime, result, _ = run_fig10(0.5, 2021)
        assert result.gates == runtime.master.gate_counts()
        gates = result.gates
        assert gates.escalations == runtime.master.full_path_regroups
        assert (f"{gates.escalations - gates.escalations_pruned} "
                f"escalations planned ({gates.escalations_settled} "
                f"settled early), {gates.escalations_pruned} skipped by "
                f"bound; {gates.checks_planned} periodic checks planned, "
                f"{gates.checks_pruned} skipped") in result.summary()


#: Per-job Eq. 2 inputs: machine-seconds of computation and network
#: seconds per iteration; equal values make groups that saturate both.
job_values = st.lists(
    st.tuples(st.one_of(st.floats(0.0, 80.0), st.just(8.0)),
              st.one_of(st.floats(0.0, 6.0), st.just(1.0))),
    min_size=1, max_size=24)


class TestScoreCeiling:
    @settings(max_examples=150, deadline=None)
    @given(values=job_values, machines=st.integers(1, 300),
           error_level=st.sampled_from([None, 0.1, 0.3, 0.9]),
           injector_seed=st.integers(0, 20))
    def test_plan_scores_never_exceed_the_ceiling(self, values, machines,
                                                  error_level,
                                                  injector_seed):
        """Exactly, not approximately: the periodic check skips on a
        float comparison against the ceiling."""
        jobs = [JobMetrics(job_id=f"j{i}", cpu_work=work, t_net=net,
                           m_observed=8)
                for i, (work, net) in enumerate(values)]
        perf_model = PerfModel() if error_level is None else PerfModel(
            error_injector=make_error_injector(error_level,
                                               seed=injector_seed))
        plan = HarmonyScheduler(perf_model=perf_model).schedule(jobs,
                                                                machines)
        if plan is not None:
            assert plan.score <= master_module._SCORE_CEILING == 1.0


class TestShardedExclusion:
    @pytest.mark.parametrize("n_cells,seed", [(2, 32021), (4, 2021),
                                              (4, 2022)])
    def test_sharded_runs_never_skip(self, monkeypatch, n_cells, seed):
        """Every sharded schedule() call moves placer stickiness and the
        rebalance cadence, so skipping one would change later plans
        (these three runs diverge when it does)."""
        config = SimConfig(seed=seed).with_sharding(n_cells)
        runtime, _, sharded_digest = run_fig10(1.0, seed, config=config)
        assert runtime.master.full_path_regroups > 0
        assert_nothing_skipped(runtime.master)
        assert runtime.master.checks_planned > 0
        bound_off(monkeypatch)
        _, _, digest = run_fig10(1.0, seed, config=config)
        assert digest == sharded_digest


class TestCellCountValidation:
    def _build(self, n_machines, n_cells):
        config = SimConfig().with_sharding(n_cells)
        return HarmonyMaster(Simulator(), Cluster(n_machines, config.machine),
                             CostModel(config.machine), config,
                             RandomStreams(config.seed),
                             ClusterUsageRecorder(n_machines))

    @pytest.mark.parametrize("n_cells", [21, 64, 500])
    def test_more_cells_than_machines_rejected(self, n_cells):
        with pytest.raises(ValueError, match="n_cells"):
            self._build(20, n_cells)

    @pytest.mark.parametrize("n_cells", [1, 2, 20])
    def test_cells_up_to_the_machine_count_construct(self, n_cells):
        master = self._build(20, n_cells)
        assert master._may_skip_planning is (n_cells == 1)

    def test_runtime_rejects_before_running(self):
        jobs, machines = scaled_workload(0.2, 5)
        with pytest.raises(ValueError, match="n_cells"):
            HarmonyRuntime(machines, jobs,
                           config=SimConfig(seed=5).with_sharding(64))
