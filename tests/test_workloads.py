"""Tests for the workload substrate: specs, cost model, generators,
arrivals, and traces."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.workloads import (
    APPS,
    CostModel,
    DATASETS,
    JobSpec,
    LDA,
    MLR,
    WorkloadGenerator,
    batch_arrivals,
    comm_intensive_subset,
    comp_intensive_subset,
    google_trace_arrivals,
    make_base_workload,
    poisson_arrivals,
    with_arrival_times,
)


class TestJobSpec:
    def test_cpu_work_scales_with_hyper_params(self):
        base = JobSpec("a", MLR, DATASETS["MLR"][0])
        double = JobSpec("b", MLR, DATASETS["MLR"][0], compute_scale=2.0)
        assert double.cpu_work_machine_seconds == pytest.approx(
            2 * base.cpu_work_machine_seconds)

    def test_model_scales_with_hyper_params(self):
        spec = JobSpec("a", MLR, DATASETS["MLR"][0], model_scale=1.5)
        assert spec.model_gb == pytest.approx(18.0)

    def test_rejects_nonpositive_iterations(self):
        with pytest.raises(WorkloadError):
            JobSpec("a", MLR, DATASETS["MLR"][0], iterations=0)

    def test_rejects_negative_submit_time(self):
        with pytest.raises(WorkloadError):
            JobSpec("a", MLR, DATASETS["MLR"][0], submit_time=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["compute_scale", "model_scale", "submit_time"])
    def test_rejects_non_finite_inputs(self, field, value):
        """NaN and infinity must not slip past the range checks into a
        simulation, where the two engines would diverge on them."""
        with pytest.raises(WorkloadError, match="finite"):
            JobSpec("a", MLR, DATASETS["MLR"][0], **{field: value})

    def test_describe_names_the_job_and_its_scales(self):
        spec = JobSpec("j1", MLR, DATASETS["MLR"][0], compute_scale=1.5,
                       model_scale=0.5, iterations=40)
        assert spec.describe() == \
            f"j1: MLR/{DATASETS['MLR'][0].name} cs=1.50 ms=0.50 iters=40"

    def test_table_one_inventory(self):
        assert set(APPS) == {"NMF", "LDA", "MLR", "Lasso"}
        assert DATASETS["NMF"][0].input_gb == 45.6
        assert DATASETS["LDA"][0].model_gb == 2.1
        assert DATASETS["MLR"][1].input_gb == 155.0


class TestCostModel:
    def test_comp_time_inverse_in_machines(self, cost_model):
        spec = JobSpec("a", MLR, DATASETS["MLR"][0])
        assert cost_model.comp_seconds(spec, 8) == pytest.approx(
            2 * cost_model.comp_seconds(spec, 16))

    def test_comm_time_independent_of_machines(self, cost_model):
        spec = JobSpec("a", MLR, DATASETS["MLR"][0])
        assert cost_model.profile(spec, 4).t_comm == pytest.approx(
            cost_model.profile(spec, 32).t_comm)

    def test_profile_composition(self, cost_model):
        spec = JobSpec("a", LDA, DATASETS["LDA"][0])
        profile = cost_model.profile(spec, 16)
        assert profile.t_iteration == pytest.approx(
            profile.t_pull + profile.t_comp + profile.t_push)
        assert 0.0 < profile.comp_ratio < 1.0

    def test_resident_bytes_decrease_with_alpha(self, cost_model):
        spec = JobSpec("a", MLR, DATASETS["MLR"][0])
        assert cost_model.resident_bytes(spec, 8, alpha=0.8) < \
            cost_model.resident_bytes(spec, 8, alpha=0.2)

    def test_model_spill_reduces_residency(self, cost_model):
        spec = JobSpec("a", MLR, DATASETS["MLR"][0])
        assert cost_model.model_resident_bytes(spec, 8,
                                               model_spilled=True) < \
            cost_model.model_resident_bytes(spec, 8)

    def test_reload_bytes_proportional(self, cost_model):
        spec = JobSpec("a", MLR, DATASETS["MLR"][0])
        half = cost_model.reload_bytes_per_iteration(spec, 8, 0.5)
        full = cost_model.reload_bytes_per_iteration(spec, 8, 1.0)
        assert full == pytest.approx(2 * half)

    def test_invalid_alpha_raises(self, cost_model):
        spec = JobSpec("a", MLR, DATASETS["MLR"][0])
        with pytest.raises(WorkloadError):
            cost_model.input_resident_bytes(spec, 8, alpha=1.5)

    def test_invalid_dop_raises(self, cost_model):
        spec = JobSpec("a", MLR, DATASETS["MLR"][0])
        with pytest.raises(WorkloadError):
            cost_model.comp_seconds(spec, 0)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 128), alpha=st.floats(0.0, 1.0))
    def test_resident_bytes_positive(self, m, alpha):
        spec = JobSpec("a", MLR, DATASETS["MLR"][0])
        assert CostModel().resident_bytes(spec, m, alpha) > 0


class TestGenerator:
    def test_base_workload_has_eighty_jobs(self):
        assert len(make_base_workload()) == 80

    def test_scaled_workload_counts(self):
        assert len(make_base_workload(hyper_params_per_pair=2)) == 16

    def test_deterministic_per_seed(self):
        a = make_base_workload(seed=5)
        b = make_base_workload(seed=5)
        assert [j.job_id for j in a] == [j.job_id for j in b]
        assert [j.compute_scale for j in a] == \
            [j.compute_scale for j in b]

    def test_job_ids_unique(self):
        ids = [j.job_id for j in make_base_workload()]
        assert len(set(ids)) == len(ids)

    def test_characteristics_match_fig9(self):
        """Iteration times within ~0-20+ min, comp ratios well spread."""
        cost_model = CostModel()
        profiles = [cost_model.profile(job, 16)
                    for job in make_base_workload()]
        minutes = np.array([p.t_iteration / 60 for p in profiles])
        ratios = np.array([p.comp_ratio for p in profiles])
        assert minutes.max() < 25.0
        assert minutes.min() < 1.0
        assert ratios.min() < 0.35
        assert ratios.max() > 0.8

    def test_sized_workload(self):
        jobs = WorkloadGenerator(1).sized_workload(100)
        assert len(jobs) == 100

    def test_subsets_partition_by_comp_ratio(self):
        jobs = make_base_workload()
        comp = comp_intensive_subset(jobs, 60)
        comm = comm_intensive_subset(jobs, 60)
        cost_model = CostModel()
        comp_mean = np.mean([cost_model.profile(j, 16).comp_ratio
                             for j in comp])
        comm_mean = np.mean([cost_model.profile(j, 16).comp_ratio
                             for j in comm])
        assert comp_mean > comm_mean

    def test_subset_size_checked(self):
        with pytest.raises(WorkloadError):
            comp_intensive_subset(make_base_workload(), 100)
        with pytest.raises(WorkloadError, match="asked for 100 of 80"):
            comm_intensive_subset(make_base_workload(), 100)

    def test_empty_workloads_rejected(self):
        with pytest.raises(WorkloadError, match="hyper-param"):
            WorkloadGenerator(1).base_workload(hyper_params_per_pair=0)
        with pytest.raises(WorkloadError, match="at least one job"):
            WorkloadGenerator(1).sized_workload(0)


class TestArrivals:
    def test_batch_arrivals_all_zero(self):
        assert batch_arrivals(5) == [0.0] * 5

    def test_poisson_zero_mean_degenerates_to_batch(self):
        assert poisson_arrivals(4, 0.0) == [0.0] * 4

    def test_poisson_is_sorted_and_starts_at_zero(self):
        times = poisson_arrivals(20, 60.0, seed=3)
        assert times == sorted(times)
        assert times[0] == 0.0

    def test_poisson_mean_gap_close_to_request(self):
        times = poisson_arrivals(2000, 60.0, seed=4)
        gaps = np.diff(times)
        assert np.mean(gaps) == pytest.approx(60.0, rel=0.1)

    def test_with_arrival_times_stamps_jobs(self):
        jobs = make_base_workload(hyper_params_per_pair=1)
        times = [float(i) for i in range(len(jobs))]
        stamped = with_arrival_times(jobs, times)
        assert [j.submit_time for j in stamped] == times

    def test_with_arrival_times_rejects_negative_times(self):
        jobs = make_base_workload(hyper_params_per_pair=1)[:2]
        with pytest.raises(WorkloadError, match="negative arrival time"):
            with_arrival_times(jobs, [0.0, -1.0])

    def test_with_arrival_times_length_mismatch(self):
        jobs = make_base_workload(hyper_params_per_pair=1)
        with pytest.raises(WorkloadError):
            with_arrival_times(jobs, [0.0])

    def test_negative_counts_rejected(self):
        with pytest.raises(WorkloadError):
            batch_arrivals(-1)
        with pytest.raises(WorkloadError):
            poisson_arrivals(-1, 10.0)
        with pytest.raises(WorkloadError, match="inter-arrival"):
            poisson_arrivals(3, -10.0)


class TestTraces:
    def test_trace_is_sorted_and_zero_based(self):
        times = google_trace_arrivals(50, seed=1)
        assert times == sorted(times)
        assert times[0] == 0.0

    def test_windows_are_distinct(self):
        a = google_trace_arrivals(50, window_index=0)
        b = google_trace_arrivals(50, window_index=1)
        assert a != b

    def test_traces_are_burstier_than_poisson(self):
        """The squared coefficient of variation of inter-arrival gaps
        exceeds a Poisson process's (~1) — the paper's "more diverse
        pattern of arrivals and job arrival spikes"."""
        times = google_trace_arrivals(400, burstiness=0.7, seed=2)
        gaps = np.diff(times)
        cv2 = np.var(gaps) / np.mean(gaps) ** 2
        assert cv2 > 1.2

    def test_invalid_burstiness_rejected(self):
        with pytest.raises(WorkloadError):
            google_trace_arrivals(10, burstiness=1.0)

    def test_invalid_count_or_gap_rejected(self):
        with pytest.raises(WorkloadError, match="negative job count"):
            google_trace_arrivals(-1)
        with pytest.raises(WorkloadError, match="inter-arrival"):
            google_trace_arrivals(10, mean_interarrival_seconds=0.0)

    def test_an_empty_trace_has_no_arrivals(self):
        assert google_trace_arrivals(0) == []
