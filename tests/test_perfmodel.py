"""Tests for the performance model (Eqs. 1-4)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.perfmodel import PerfModel, UtilizationVector
from repro.core.profiler import JobMetrics
from repro.errors import SchedulingError


def metrics(job_id, cpu_work, t_net):
    return JobMetrics(job_id, cpu_work=cpu_work, t_net=t_net,
                      m_observed=1)


class TestGroupEstimate:
    def test_cpu_bound_case(self):
        """Fig. 8: ΣT_cpu dominates -> CPU util 1, net util < 1."""
        model = PerfModel()
        estimate = model.estimate_group(
            [metrics("a", 100.0, 2.0), metrics("b", 100.0, 2.0)], m=1)
        assert estimate.bound_case == "cpu"
        assert estimate.t_group_iteration == pytest.approx(200.0)
        assert estimate.utilization.cpu == pytest.approx(1.0)
        assert estimate.utilization.net < 1.0

    def test_net_bound_case(self):
        model = PerfModel()
        estimate = model.estimate_group(
            [metrics("a", 10.0, 50.0), metrics("b", 10.0, 50.0)], m=1)
        assert estimate.bound_case == "net"
        assert estimate.t_group_iteration == pytest.approx(100.0)
        assert estimate.utilization.net == pytest.approx(1.0)

    def test_job_bound_case(self):
        """Fig. 8b: one job's iteration exceeds both sums."""
        model = PerfModel()
        estimate = model.estimate_group(
            [metrics("big", 80.0, 80.0), metrics("small", 1.0, 1.0)],
            m=1)
        assert estimate.bound_case == "job"
        assert estimate.t_group_iteration == pytest.approx(160.0)
        assert estimate.utilization.cpu < 1.0
        assert estimate.utilization.net < 1.0

    def test_more_machines_shrink_cpu_side(self):
        model = PerfModel()
        small = model.estimate_group([metrics("a", 100.0, 10.0)], m=1)
        large = model.estimate_group([metrics("a", 100.0, 10.0)], m=10)
        assert large.t_cpu_sum == pytest.approx(small.t_cpu_sum / 10)
        assert large.t_net_sum == pytest.approx(small.t_net_sum)

    def test_empty_group_raises(self):
        with pytest.raises(SchedulingError):
            PerfModel().estimate_group([], m=1)

    def test_bad_dop_raises(self):
        with pytest.raises(SchedulingError):
            PerfModel().estimate_group([metrics("a", 1, 1)], m=0)

    @given(cpu=st.floats(1.0, 1e4), net=st.floats(1.0, 1e4),
           m=st.integers(1, 64))
    def test_utilizations_bounded(self, cpu, net, m):
        estimate = PerfModel().estimate_group(
            [metrics("a", cpu, net)], m=m)
        assert 0.0 <= estimate.utilization.cpu <= 1.0 + 1e-9
        assert 0.0 <= estimate.utilization.net <= 1.0 + 1e-9

    @given(cpu=st.floats(1.0, 1e4), net=st.floats(1.0, 1e4))
    def test_group_iteration_at_least_each_bound(self, cpu, net):
        estimate = PerfModel().estimate_group(
            [metrics("a", cpu, net), metrics("b", cpu / 2, net / 2)],
            m=2)
        assert estimate.t_group_iteration >= estimate.t_cpu_sum - 1e-9
        assert estimate.t_group_iteration >= estimate.t_net_sum - 1e-9
        assert estimate.t_group_iteration >= estimate.t_itr_max - 1e-9


class TestClusterUtilization:
    def test_no_machines_to_average_over_is_an_error(self):
        with pytest.raises(SchedulingError, match="no machines"):
            PerfModel.utilization_from_terms((), (), ())

    def test_weighted_average_by_machines(self):
        model = PerfModel()
        busy = model.estimate_group([metrics("a", 100.0, 100.0)], m=3)
        idle = model.estimate_group([metrics("b", 1.0, 100.0)], m=1)
        cluster = model.cluster_utilization([busy, idle])
        expected_cpu = (3 * busy.utilization.cpu
                        + 1 * idle.utilization.cpu) / 4
        assert cluster.cpu == pytest.approx(expected_cpu)

    def test_total_machines_counts_idle_ones(self):
        model = PerfModel()
        group = model.estimate_group([metrics("a", 10.0, 10.0)], m=5)
        partial = model.cluster_utilization([group], total_machines=10)
        full = model.cluster_utilization([group], total_machines=5)
        assert partial.cpu == pytest.approx(full.cpu / 2)

    def test_empty_groups_are_zero(self):
        assert PerfModel().cluster_utilization([]).cpu == 0.0

    def test_terms_are_each_groups_stored_products(self):
        """Eq. 4's terms, in group order, are ``m``, ``m·U_cpu`` and
        ``m·U_net`` bit for bit; no groups give three empty tuples."""
        model = PerfModel()
        groups = [model.estimate_group([metrics("a", 100.0, 7.0)], m=3),
                  model.estimate_group([metrics("b", 1.0, 9.0),
                                        metrics("c", 2.5, 0.3)], m=7),
                  model.estimate_group([metrics("d", 0.0, 0.0)], m=2)]
        assert PerfModel.utilization_terms(groups) == (
            tuple(g.m for g in groups),
            tuple(g.m * g.utilization.cpu for g in groups),
            tuple(g.m * g.utilization.net for g in groups))
        assert PerfModel.utilization_terms([]) == ((), (), ())

    def test_overcommitted_machines_raise(self):
        model = PerfModel()
        group = model.estimate_group([metrics("a", 1.0, 1.0)], m=8)
        with pytest.raises(SchedulingError):
            model.cluster_utilization([group], total_machines=4)


class TestScore:
    def test_cpu_weight_dominates(self):
        cpu_heavy = UtilizationVector(cpu=1.0, net=0.0)
        net_heavy = UtilizationVector(cpu=0.0, net=1.0)
        model = PerfModel()
        assert model.score(cpu_heavy) > model.score(net_heavy)

    def test_score_is_weighted_sum(self):
        vector = UtilizationVector(cpu=0.8, net=0.4)
        assert PerfModel().score(vector) == pytest.approx(
            0.75 * 0.8 + 0.25 * 0.4)

    def test_vector_iterates_cpu_then_net(self):
        assert tuple(UtilizationVector(0.3, 0.7)) == (0.3, 0.7)


class TestErrorInjection:
    def test_injector_perturbs_per_job(self):
        def injector(kind, job_id):
            return 2.0 if job_id == "a" else 1.0
        model = PerfModel(error_injector=injector)
        estimate = model.estimate_group(
            [metrics("a", 10.0, 10.0), metrics("b", 10.0, 10.0)], m=1)
        clean = PerfModel().estimate_group(
            [metrics("a", 10.0, 10.0), metrics("b", 10.0, 10.0)], m=1)
        assert estimate.t_cpu_sum == pytest.approx(
            clean.t_cpu_sum + 10.0)

    def test_no_injector_is_exact(self):
        model = PerfModel()
        estimate = model.estimate_group([metrics("a", 30.0, 5.0)], m=3)
        assert estimate.t_cpu_sum == pytest.approx(10.0)
        assert estimate.t_net_sum == pytest.approx(5.0)
