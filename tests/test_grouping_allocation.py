"""Tests for job grouping (assignJobs) and machine allocation, called
on jobs through the adapters in ``tests/sched_oracle.py``."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.grouping import assign_jobs
from repro.core.profiler import JobMetrics
from repro.errors import SchedulingError
from tests.sched_oracle import (
    allocate_metrics,
    assign_metrics,
    reference_imbalance,
)


def metrics(job_id, cpu_work, t_net):
    return JobMetrics(job_id, cpu_work=cpu_work, t_net=t_net,
                      m_observed=1)


def balanced_pool(n):
    """Jobs whose CPU/net profiles alternate between heavy sides."""
    pool = []
    for index in range(n):
        if index % 2 == 0:
            pool.append(metrics(f"cpu{index}", 100.0 + index, 5.0))
        else:
            pool.append(metrics(f"net{index}", 20.0, 50.0 + index))
    return pool


class TestAssignJobs:
    def test_mismatched_time_lists_are_rejected(self):
        with pytest.raises(SchedulingError, match="3 COMP times for 2"):
            assign_jobs([1.0, 2.0, 3.0], [1.0, 2.0], 1)

    def test_partitions_every_job_once(self):
        pool = balanced_pool(10)
        groups = assign_metrics(pool, n_groups=3, m_ref=4)
        placed = [job.job_id for group in groups for job in group]
        assert sorted(placed) == sorted(j.job_id for j in pool)

    def test_group_sizes_even(self):
        groups = assign_metrics(balanced_pool(10), n_groups=3, m_ref=4)
        sizes = sorted(len(g) for g in groups)
        assert sizes == [3, 3, 4]

    def test_single_group(self):
        pool = balanced_pool(4)
        groups = assign_metrics(pool, n_groups=1, m_ref=4)
        assert len(groups) == 1 and len(groups[0]) == 4

    def test_more_groups_than_jobs_raises(self):
        with pytest.raises(SchedulingError):
            assign_metrics(balanced_pool(2), n_groups=3, m_ref=1)

    def test_zero_groups_raises(self):
        with pytest.raises(SchedulingError):
            assign_metrics(balanced_pool(2), n_groups=0, m_ref=1)

    def test_mixing_reduces_imbalance_vs_naive_split(self):
        """The balanced fill + swaps beat a sorted chunk split."""
        pool = balanced_pool(12)
        groups = assign_metrics(pool, n_groups=3, m_ref=4)
        ordered = sorted(pool, key=lambda j: j.t_iteration_at(4),
                         reverse=True)
        naive = [ordered[0:4], ordered[4:8], ordered[8:12]]
        smart_cost = sum(abs(reference_imbalance(g, 4)) for g in groups)
        naive_cost = sum(abs(reference_imbalance(g, 4)) for g in naive)
        assert smart_cost <= naive_cost

    def test_similar_iteration_times_kept_together(self):
        """Two long jobs and six short ones: the long pair should land
        in the same group (prevents Fig. 8b's job-bound case)."""
        pool = ([metrics(f"long{i}", 500.0, 100.0) for i in range(2)]
                + [metrics(f"short{i}", 10.0, 2.0) for i in range(6)])
        groups = assign_metrics(pool, n_groups=4, m_ref=4)
        homes = {job.job_id: index for index, group in enumerate(groups)
                 for job in group}
        assert homes["long0"] == homes["long1"]

    @settings(max_examples=30, deadline=None)
    @given(n_jobs=st.integers(2, 16), n_groups=st.integers(1, 4),
           seed=st.integers(0, 100))
    def test_partition_invariants(self, n_jobs, n_groups, seed):
        import numpy as np
        rng = np.random.default_rng(seed)
        n_groups = min(n_groups, n_jobs)
        pool = [metrics(f"j{i}", float(rng.uniform(1, 200)),
                        float(rng.uniform(1, 200)))
                for i in range(n_jobs)]
        groups = assign_metrics(pool, n_groups, m_ref=4)
        assert len(groups) == n_groups
        assert all(groups)
        placed = sorted(j.job_id for g in groups for j in g)
        assert placed == sorted(j.job_id for j in pool)


class TestAllocateMachines:
    def test_every_group_gets_at_least_one(self):
        groups = [[metrics("a", 1.0, 100.0)],
                  [metrics("b", 1.0, 100.0)]]
        allocation = allocate_metrics(groups, total_machines=10)
        assert all(m >= 1 for m in allocation)

    def test_cpu_bound_group_attracts_machines(self):
        cpu_heavy = [metrics("cpu", 1000.0, 1.0)]
        net_heavy = [metrics("net", 1.0, 1000.0)]
        allocation = allocate_metrics([cpu_heavy, net_heavy],
                                       total_machines=20)
        assert allocation[0] > allocation[1]

    def test_stops_when_nothing_cpu_bound(self):
        """Network-bound groups leave spare machines unallocated."""
        groups = [[metrics("a", 1.0, 100.0)]]
        allocation = allocate_metrics(groups, total_machines=50)
        assert allocation[0] < 50

    def test_balances_toward_equal_pressure(self):
        groups = [[metrics("a", 400.0, 10.0)],
                  [metrics("b", 400.0, 10.0)]]
        allocation = allocate_metrics(groups, total_machines=21)
        assert abs(allocation[0] - allocation[1]) <= 1

    def test_memory_floor_is_respected(self):
        groups = [[metrics("a", 1.0, 100.0)]]
        allocation = allocate_metrics(groups, total_machines=10,
                                       memory_floor=lambda ids: 4)
        assert allocation[0] >= 4

    def test_infeasible_floors_return_none(self):
        groups = [[metrics("a", 1.0, 1.0)], [metrics("b", 1.0, 1.0)]]
        assert allocate_metrics(groups, total_machines=5,
                                 memory_floor=lambda ids: 3) is None

    def test_never_exceeds_total(self):
        groups = [[metrics(f"g{i}", 500.0, 1.0)] for i in range(3)]
        allocation = allocate_metrics(groups, total_machines=10)
        assert sum(allocation) <= 10

    def test_empty_groups_list(self):
        assert allocate_metrics([], total_machines=5) == []

    def test_empty_group_raises(self):
        with pytest.raises(SchedulingError):
            allocate_metrics([[]], total_machines=5)

    def test_bad_total_raises(self):
        with pytest.raises(SchedulingError):
            allocate_metrics([[metrics("a", 1, 1)]], total_machines=0)

    @settings(max_examples=30, deadline=None)
    @given(n_groups=st.integers(1, 5), total=st.integers(5, 60),
           seed=st.integers(0, 50))
    def test_allocation_invariants(self, n_groups, total, seed):
        import numpy as np
        rng = np.random.default_rng(seed)
        groups = [[metrics(f"g{i}j{j}", float(rng.uniform(1, 500)),
                           float(rng.uniform(1, 100)))
                   for j in range(rng.integers(1, 4))]
                  for i in range(n_groups)]
        allocation = allocate_metrics(groups, total)
        assert allocation is not None
        assert len(allocation) == n_groups
        assert all(m >= 1 for m in allocation)
        assert sum(allocation) <= total
