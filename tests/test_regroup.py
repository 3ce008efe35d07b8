"""Tests for the §IV-B4 regrouping helpers."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.profiler import JobMetrics
from repro.core.regroup import (
    FEWER_JOBS_PREFERENCE,
    find_similar_bundle,
    find_similar_job,
    is_similar_job,
    prefer_fewer_jobs,
    settled,
)


def metrics(job_id, cpu_work, t_net):
    return JobMetrics(job_id, cpu_work=cpu_work, t_net=t_net,
                      m_observed=1)


class TestSimilarity:
    def test_identical_jobs_are_similar(self):
        a = metrics("a", 100.0, 10.0)
        b = metrics("b", 100.0, 10.0)
        assert is_similar_job(a, b, m=4)

    def test_within_five_percent_is_similar(self):
        a = metrics("a", 100.0, 10.0)
        b = metrics("b", 103.0, 10.2)
        assert is_similar_job(a, b, m=4, threshold=0.05)

    def test_different_iteration_time_not_similar(self):
        a = metrics("a", 100.0, 10.0)
        b = metrics("b", 200.0, 10.0)
        assert not is_similar_job(a, b, m=4)

    def test_same_total_different_ratio_not_similar(self):
        """Equal iteration times but opposite comp/comm balance."""
        a = metrics("a", 100.0, 10.0)   # at m=4: 25 + 10 = 35
        b = metrics("b", 40.0, 25.0)    # at m=4: 10 + 25 = 35
        assert not is_similar_job(a, b, m=4)

    def test_find_similar_picks_closest(self):
        target = metrics("target", 100.0, 10.0)
        near = metrics("near", 101.0, 10.0)
        far = metrics("far", 104.0, 10.4)
        found = find_similar_job([far, near], target, m=4)
        assert found is near

    def test_find_similar_none_when_empty(self):
        assert find_similar_job([], metrics("t", 1, 1), m=4) is None

    def test_find_similar_none_when_all_too_different(self):
        target = metrics("t", 100.0, 10.0)
        candidates = [metrics("c", 500.0, 50.0)]
        assert find_similar_job(candidates, target, m=4) is None


class TestBundles:
    def test_two_halves_replace_one_whole(self):
        target = metrics("t", 200.0, 20.0)
        halves = [metrics("h1", 100.0, 10.0),
                  metrics("h2", 100.0, 10.0)]
        bundle = find_similar_bundle(halves, target, m=4)
        assert bundle is not None
        assert {item.job_id for item in bundle} == {"h1", "h2"}

    def test_single_candidate_is_not_a_bundle(self):
        target = metrics("t", 200.0, 20.0)
        assert find_similar_bundle([metrics("c", 200.0, 20.0)],
                                   target, m=4) is None

    def test_bundle_respects_budgets(self):
        target = metrics("t", 100.0, 10.0)
        oversized = [metrics("big", 300.0, 30.0),
                     metrics("big2", 300.0, 30.0)]
        assert find_similar_bundle(oversized, target, m=4) is None

    def test_bundle_rejects_ratio_mismatch(self):
        """Sum of iteration times can match while the comp/comm split
        does not."""
        target = metrics("t", 200.0, 20.0)   # cpu 50, net 20 at m=4
        candidates = [metrics("c1", 20.0, 30.0),
                      metrics("c2", 20.0, 30.0)]
        assert find_similar_bundle(candidates, target, m=4) is None

    def test_max_bundle_limits_size(self):
        target = metrics("t", 400.0, 40.0)
        shards = [metrics(f"s{i}", 100.0, 10.0) for i in range(6)]
        bundle = find_similar_bundle(shards, target, m=4)
        assert bundle is not None
        assert len(bundle) <= 4


class TestPreferFewerJobs:
    def test_empty_returns_none(self):
        assert prefer_fewer_jobs([]) is None

    def test_single_candidate_chosen(self):
        assert prefer_fewer_jobs([(3, 0.8)]) == 0

    def test_smaller_scope_wins_marginal_improvements(self):
        # Larger decision only 2% better: keep the smaller one.
        assert prefer_fewer_jobs([(3, 0.80), (6, 0.816)]) == 0

    def test_larger_scope_wins_big_improvements(self):
        assert prefer_fewer_jobs([(3, 0.80), (6, 0.90)]) == 1

    def test_equal_size_takes_better_score(self):
        assert prefer_fewer_jobs([(3, 0.80), (3, 0.85)]) == 1

    def test_chain_of_scopes(self):
        plans = [(2, 0.70), (4, 0.72), (8, 0.90), (12, 0.91)]
        # 8 beats 2 by >5%; 12 is not >5% over 8.
        assert prefer_fewer_jobs(plans) == 2


@st.composite
def escalation_candidates(draw):
    """(pool size, score) per scope in planning order, and a ``top``
    no score exceeds.  Pools are nested, so sizes never shrink; a zero
    step is a scope whose added group holds only profiling jobs.
    Scores mix free floats with near-ties of the 5% preference."""
    steps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    sizes = list(itertools.accumulate(steps,
                                      initial=draw(st.integers(1, 5))))
    base = draw(st.floats(0.0, 1.0))
    ties = [base, base * (1.0 + FEWER_JOBS_PREFERENCE),
            base * (1.0 + FEWER_JOBS_PREFERENCE / 2)]
    scores = draw(st.lists(st.one_of(st.floats(0.0, 1.0),
                                     st.sampled_from(ties)),
                           min_size=len(sizes), max_size=len(sizes)))
    highest = max(scores)
    tops = [highest] + [s * (1.0 + FEWER_JOBS_PREFERENCE)
                        for s in scores
                        if s * (1.0 + FEWER_JOBS_PREFERENCE) >= highest]
    top = draw(st.one_of(st.sampled_from(tops),
                         st.floats(highest, highest + 0.2)))
    return list(zip(sizes, scores, strict=True)), top


class TestSettled:
    @settings(max_examples=500, deadline=None)
    @given(case=escalation_candidates())
    def test_a_settled_choice_is_final(self, case):
        """Once settled after a prefix, no later candidate (no larger
        score than ``top``, no smaller pool than the next) moves the
        choice."""
        plans, top = case
        final = prefer_fewer_jobs(plans)
        for index in range(1, len(plans)):
            if settled(plans[:index], top, plans[index][0]):
                assert prefer_fewer_jobs(plans[:index]) == final

    def test_nothing_planned_is_not_settled(self):
        assert not settled([], 0.0, 1)

    def test_larger_pools_cannot_beat_the_preference(self):
        assert settled([(3, 0.90)], 0.92, next_size=5)
        assert settled([(3, 0.90)], 0.90 * (1.0 + FEWER_JOBS_PREFERENCE),
                       next_size=4)
        assert not settled([(3, 0.90)], 0.95, next_size=5)

    def test_an_equal_pool_can_still_tie(self):
        """The next group may hold only profiling jobs: an equal pool
        replaces the choice on a score that merely ties it."""
        assert not settled([(3, 0.90)], 0.92, next_size=3)
        assert not settled([(3, 0.90)], 0.90, next_size=3)
        assert settled([(3, 0.90)], 0.89, next_size=3)

    def test_reads_the_choice_not_the_last_plan(self):
        # (4, 0.72) is within 5% of (2, 0.70), so (2, 0.70) is chosen.
        plans = [(2, 0.70), (4, 0.72)]
        assert settled(plans, 0.73, next_size=6)
        assert not settled(plans, 0.74, next_size=6)


class TestRegroupFaultInterleaving:
    """A crash racing an in-flight §IV-B4 plan application.

    The master applies regroup plans asynchronously: unmatched groups
    drain (pause -> checkpoint) before their machines are rebuilt into
    new groups.  A machine crash landing inside that window used to be
    able to double-release jobs or strand a rebuild slot; the run must
    instead complete with every run-level invariant intact.
    """

    def _run_with_midflight_crash(self, seed):
        from repro.check import InvariantChecker
        from repro.core.job import JobState
        from repro.core.runtime import HarmonyRuntime
        from repro.workloads.generator import WorkloadGenerator

        jobs = WorkloadGenerator(seed).base_workload(
            hyper_params_per_pair=1)
        runtime = HarmonyRuntime(24, jobs)
        master = runtime.master
        crashed: list[str] = []

        def migration_source():
            # Prefer the group a migrating job is pausing out of, then
            # a draining rebuild group, then any live group.
            for job_id in master._pending_moves:
                job = master.jobs.get(job_id)
                if job is not None and job.group_id in master.groups:
                    return job.group_id
            if master._rebuild is not None:
                for gid in master._rebuild.draining:
                    if gid in master.groups:
                        return gid
            return next(iter(master.groups), None)

        total = len(runtime.workload)

        def saboteur():
            # all_done is vacuously true before the first submission,
            # so also wait for the whole workload to arrive.
            while len(master.jobs) < total or not master.all_done:
                inflight = (master._rebuild is not None
                            or master._pending_moves)
                if inflight and not crashed:
                    target_id = migration_source()
                    if target_id is not None:
                        crashed.append(target_id)
                        master.inject_machine_failure(
                            master.groups[target_id].machine_ids[0])
                        return
                yield master.sim.timeout(5.0)

        master.sim.spawn(runtime._pacer(), name="pacer")
        master.sim.spawn(saboteur(), name="saboteur")
        for spec in runtime.workload:
            master.sim.call_at(spec.submit_time,
                               lambda s=spec: master.submit(s))
        master.sim.run()
        assert all(job.state is JobState.FINISHED
                   for job in master.jobs.values())
        assert InvariantChecker().check_runtime(runtime) == []
        return crashed

    def test_crash_during_rebuild_keeps_run_consistent(self):
        # At least one seed must actually catch an in-flight rebuild,
        # otherwise the interleaving was never exercised.
        observed = [bool(self._run_with_midflight_crash(seed))
                    for seed in (3, 5, 11)]
        assert any(observed)
