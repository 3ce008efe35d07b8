"""Tests for Algorithm 1 (HarmonyScheduler)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SchedulerConfig
from repro.core.profiler import JobMetrics
from repro.core.scheduler import (
    HarmonyScheduler,
    _prefix_sizes,
    argmin_convex,
)
from repro.errors import SchedulingError


def metrics(job_id, cpu_work, t_net):
    return JobMetrics(job_id, cpu_work=cpu_work, t_net=t_net,
                      m_observed=1)


def mixed_pool(n=12):
    pool = []
    for index in range(n):
        cpu = 100.0 + 40.0 * (index % 5)
        net = 10.0 + 8.0 * ((index + 2) % 4)
        pool.append(metrics(f"j{index}", cpu, net))
    return pool


class TestPrefixSizes:
    def test_exhaustive_for_small_pools(self):
        assert list(_prefix_sizes(5)) == [1, 2, 3, 4, 5]

    def test_always_reaches_n(self):
        for n in (1, 63, 64, 65, 200, 1000):
            sizes = list(_prefix_sizes(n))
            assert sizes[-1] == n
            assert sizes == sorted(sizes)

    def test_geometric_beyond_64(self):
        sizes = list(_prefix_sizes(1000))
        assert len(sizes) < 120  # far fewer than 1000 candidate sets

    def test_zero_jobs(self):
        assert list(_prefix_sizes(0)) == []


class TestArgminConvex:
    """Regression: the L6 ternary search used a strict comparison and
    could discard the true minimizer when the convex cost is flat
    around the minimum (the balance cost is piecewise-linear, so exact
    plateaus happen)."""

    def test_flat_bottom_plateau(self):
        # Flat and minimal on [10, 20]; the answer must land there.
        cost = lambda n: max(0, abs(n - 15) - 5)  # noqa: E731
        best = argmin_convex(cost, 1, 64)
        assert cost(best) == 0

    def test_plateau_touching_window_edge(self):
        # Minimal plateau is the tail [50, 64]: every probe pair in the
        # middle compares equal-or-decreasing toward the edge.
        cost = lambda n: max(0, 50 - n)  # noqa: E731
        assert cost(argmin_convex(cost, 1, 64)) == 0
        cost = lambda n: max(0, n - 3)  # noqa: E731 (head plateau)
        assert cost(argmin_convex(cost, 1, 64)) == 0

    def test_strictly_convex_exact(self):
        for target in (1, 2, 17, 63, 64):
            assert argmin_convex(lambda n, t=target: (n - t) ** 2,
                                 1, 64) == target

    def test_matches_exhaustive_on_random_convex_costs(self):
        import numpy as np
        for seed in range(30):
            rng = np.random.default_rng(seed)
            # Σ|a_i·n − b_i| is convex piecewise-linear in n — the same
            # family as Algorithm 1's balance cost, plateaus included.
            coeffs = rng.uniform(0.1, 5.0, size=4)
            offsets = rng.uniform(1.0, 200.0, size=4)
            cost = lambda n, cs=coeffs, bs=offsets: float(  # noqa: E731
                sum(abs(a * n - b) for a, b in zip(cs, bs, strict=True)))
            low, high = 1, int(rng.integers(2, 100))
            best = argmin_convex(cost, low, high)
            exhaustive = min(cost(n) for n in range(low, high + 1))
            assert cost(best) == pytest.approx(exhaustive)

    def test_plateau_returns_a_minimizer_not_the_smallest(self):
        """A tie shrinks the window to [mid1, mid2], so the final scan
        starts inside the plateau: the answer minimizes the cost but is
        not the smallest minimizer.  Changing this would move n_G*."""
        cost = lambda n: max(0, abs(n - 50) - 20)  # noqa: E731
        best = argmin_convex(cost, 0, 100)
        assert cost(best) == 0
        assert best != min(n for n in range(101) if cost(n) == 0)
        assert best == 49

    def test_tiny_windows(self):
        assert argmin_convex(lambda n: n, 5, 5) == 5
        assert argmin_convex(lambda n: -n, 3, 4) == 4

    def test_empty_window_raises(self):
        with pytest.raises(SchedulingError):
            argmin_convex(lambda n: n, 4, 3)


class TestSchedule:
    def test_empty_pool_returns_none(self):
        assert HarmonyScheduler().schedule([], 10) is None

    def test_bad_machine_count_raises(self):
        with pytest.raises(SchedulingError):
            HarmonyScheduler().schedule([metrics("a", 1, 1)], 0)

    def test_single_job_gets_a_plan(self):
        plan = HarmonyScheduler().schedule([metrics("a", 100.0, 10.0)],
                                           16)
        assert plan is not None
        assert plan.scheduled_job_ids == {"a"}
        assert 1 <= plan.machines_used <= 16

    def test_plan_respects_machine_budget(self):
        plan = HarmonyScheduler().schedule(mixed_pool(), 20)
        assert plan.machines_used <= 20

    def test_groups_are_disjoint(self):
        plan = HarmonyScheduler().schedule(mixed_pool(), 30)
        seen = set()
        for group in plan.groups:
            for job_id in group.job_ids:
                assert job_id not in seen
                seen.add(job_id)

    def test_max_jobs_per_group_enforced(self):
        config = SchedulerConfig(max_jobs_per_group=2)
        plan = HarmonyScheduler(config=config).schedule(mixed_pool(), 40)
        assert all(group.n_jobs <= 2 for group in plan.groups)

    def test_memory_floor_propagates(self):
        scheduler = HarmonyScheduler(memory_floor=lambda ids: 3)
        plan = scheduler.schedule(mixed_pool(4), 20)
        assert all(group.n_machines >= 3 for group in plan.groups)

    def test_infeasible_memory_returns_none(self):
        scheduler = HarmonyScheduler(memory_floor=lambda ids: 100)
        assert scheduler.schedule(mixed_pool(4), 10) is None

    def test_balanced_pool_yields_high_predicted_utilization(self):
        plan = HarmonyScheduler().schedule(mixed_pool(16), 50)
        assert plan.utilization.cpu > 0.6

    def test_admission_orders_differ_but_stay_valid(self):
        for order in ("sjf", "ljf", "interleave", "critical"):
            config = SchedulerConfig(admission_order=order)
            plan = HarmonyScheduler(config=config).schedule(
                mixed_pool(), 30)
            assert plan is not None
            assert plan.machines_used <= 30

    def test_unknown_admission_order_raises(self):
        with pytest.raises(ValueError, match="admission_order"):
            SchedulerConfig(admission_order="bogus")

    def test_deterministic_for_same_inputs(self):
        pool = mixed_pool()
        first = HarmonyScheduler().schedule(pool, 25)
        second = HarmonyScheduler().schedule(pool, 25)
        assert first.describe() == second.describe()

    def test_group_count_search_balances(self):
        """n_G* (L6): a pool that balances exactly at n_G = 2 on 20
        machines should produce two groups."""
        # Each job: W = 200, t_net = 20 -> T_cpu(m) = t_net at m = 10,
        # i.e. n_G = 20/10 = 2.
        pool = [metrics(f"j{i}", 200.0, 20.0) for i in range(4)]
        plan = HarmonyScheduler().schedule(pool, 20)
        assert len(plan.groups) == 2

    @settings(max_examples=25, deadline=None)
    @given(n_jobs=st.integers(1, 14), machines=st.integers(2, 64),
           seed=st.integers(0, 99))
    def test_plan_invariants(self, n_jobs, machines, seed):
        import numpy as np
        rng = np.random.default_rng(seed)
        pool = [metrics(f"j{i}", float(rng.uniform(10, 500)),
                        float(rng.uniform(5, 200)))
                for i in range(n_jobs)]
        plan = HarmonyScheduler().schedule(pool, machines)
        assert plan is not None
        assert plan.machines_used <= machines
        assert 0.0 <= plan.utilization.cpu <= 1.0 + 1e-9
        placed = [jid for g in plan.groups for jid in g.job_ids]
        assert len(placed) == len(set(placed))
        assert set(placed) <= {f"j{i}" for i in range(n_jobs)}
        assert all(g.n_machines >= 1 for g in plan.groups)


class TestDescribe:
    def test_describe_mentions_every_group(self):
        plan = HarmonyScheduler().schedule(mixed_pool(6), 20)
        text = plan.describe()
        assert f"{len(plan.groups)} groups" in text
        assert text.count("group[") == len(plan.groups)
