"""Tests for the exhaustive-search Oracle scheduler."""


import pytest

from repro.baselines.oracle import OracleScheduler, set_partitions
from repro.core.profiler import JobMetrics
from repro.core.scheduler import HarmonyScheduler
from repro.errors import SchedulingError


def metrics(job_id, cpu_work, t_net):
    return JobMetrics(job_id, cpu_work=cpu_work, t_net=t_net,
                      m_observed=1)


#: Bell numbers B(1)..B(5): the count of set partitions of n items.
_BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}


def bell(n: int) -> int:
    return _BELL[n]


class TestSetPartitions:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_counts_match_bell_numbers(self, n):
        items = list(range(n))
        assert sum(1 for _ in set_partitions(items)) == bell(n)

    def test_partitions_are_distinct(self):
        seen = set()
        for partition in set_partitions(list(range(4))):
            key = frozenset(frozenset(group) for group in partition)
            assert key not in seen
            seen.add(key)

    def test_every_partition_covers_items(self):
        items = list(range(4))
        for partition in set_partitions(items):
            flat = sorted(x for group in partition for x in group)
            assert flat == items

    def test_max_group_size_respected(self):
        for partition in set_partitions(list(range(5)),
                                        max_group_size=2):
            assert all(len(group) <= 2 for group in partition)

    def test_empty_items(self):
        assert list(set_partitions([])) == [[]]


class TestOracleScheduler:
    def _pool(self, n=5):
        return [metrics(f"j{i}", 50.0 + 30.0 * i, 10.0 + 5.0 * i)
                for i in range(n)]

    def test_oracle_never_worse_than_greedy(self):
        pool = self._pool(6)
        oracle_plan = OracleScheduler().schedule(pool, 24)
        greedy_plan = HarmonyScheduler().schedule(pool, 24)
        assert oracle_plan.score >= greedy_plan.score - 1e-9

    def test_gap_is_small(self):
        """Fig. 14: the greedy decision lands within a few percent."""
        pool = self._pool(6)
        oracle_plan = OracleScheduler().schedule(pool, 24)
        greedy_plan = HarmonyScheduler().schedule(pool, 24)
        assert greedy_plan.score >= 0.85 * oracle_plan.score

    def test_search_size_reported(self):
        oracle = OracleScheduler()
        oracle.schedule(self._pool(4), 16)
        assert oracle.last_search_size > bell(4)  # prefixes add up

    def test_stats_describe_the_last_call(self):
        """The same ``last_stats`` seam as the greedy scheduler, which
        the master's traced periodic check reads."""
        oracle = OracleScheduler()
        plan = oracle.schedule(self._pool(4), 16)
        stats = oracle.last_stats
        assert (stats.n_jobs_offered, stats.n_prefixes_evaluated) == (4, 4)
        assert stats.best_n_groups == len(plan.groups)
        assert stats.best_n_jobs == len(plan.scheduled_job_ids)
        assert stats.best_score == plan.score

    def test_too_many_jobs_rejected(self):
        oracle = OracleScheduler(max_jobs=4)
        with pytest.raises(SchedulingError):
            oracle.schedule(self._pool(5), 16)

    def test_empty_pool(self):
        assert OracleScheduler().schedule([], 4) is None

    def test_no_machines_rejected(self):
        with pytest.raises(SchedulingError, match="at least one machine"):
            OracleScheduler().schedule(self._pool(2), 0)

    def test_partitions_above_the_memory_floors_are_skipped(self):
        # Three machines per job: on five machines only one job fits,
        # whichever way the two are partitioned.
        oracle = OracleScheduler(memory_floor=lambda ids: 3 * len(ids))
        plan = oracle.schedule(self._pool(2), 5)
        assert len(plan.scheduled_job_ids) == 1
        assert plan.machines_used <= 5

    def test_plan_within_budget(self):
        plan = OracleScheduler().schedule(self._pool(5), 12)
        assert plan.machines_used <= 12

    def test_respects_memory_floor(self):
        oracle = OracleScheduler(memory_floor=lambda ids: 5)
        plan = oracle.schedule(self._pool(3), 30)
        assert all(group.n_machines >= 5 for group in plan.groups)
