"""Tests for the per-figure experiment drivers (scaled down).

Each driver must run end-to-end and reproduce the *shape* of its paper
exhibit; the full-scale numbers live in benchmarks/ and EXPERIMENTS.md.
"""

import dataclasses
import types

import numpy as np
import pytest

from repro.__main__ import main
from repro.experiments import (
    ablation,
    common,
    fig02_single_job,
    fig03_dop_sweep,
    fig04_naive_colocation,
    fig09_workload_cdf,
    faults,
    fig10_main,
    fig11_util_timeline,
    fig12_group_distributions,
    fig13_model_accuracy,
    fig14_oracle,
    local_validation,
    reloading,
    scalability,
    sched_churn,
    sensitivity_arrival,
    sensitivity_ratio,
    sim_engines,
    trace_demo,
)
from repro.metrics.stats import cdf_points

SCALE = 0.25  # 16 jobs / 25 machines


class TestCommon:
    def test_scaled_workload_shapes(self):
        jobs, machines = common.scaled_workload(0.5)
        assert len(jobs) == 40
        assert machines == 50

    def test_full_scale_is_paper_scale(self):
        jobs, machines = common.scaled_workload(1.0)
        assert len(jobs) == 80
        assert machines == 100

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            common.scaled_workload(0.0)

    def test_pacing_without_per_job_cycles_is_the_group_mean(self):
        result = common.SingleGroupResult(
            job_ids=("a",), n_machines=1, cpu_utilization=0.0,
            net_utilization=0.0, mean_iteration_seconds=2.5,
            duration_seconds=0.0, per_job_cycle_seconds={})
        assert result.pacing_cycle_seconds() == 2.5


class TestFig02:
    def test_no_config_reaches_full_utilization(self):
        result = fig02_single_job.run()
        for _label, cpu, net in result.rows:
            assert cpu + net < 170.0  # both cannot be high at once
            assert cpu > 5.0 and net > 5.0
        assert "Fig. 2" in fig02_single_job.report(result)

    def test_lda_is_more_cpu_heavy_than_mlr(self):
        result = fig02_single_job.run()
        by_label = {label: (cpu, net) for label, cpu, net in result.rows}
        assert by_label["LDA-PubMed"][0] > by_label["MLR-16K"][0]


class TestFig03:
    def test_cpu_utilization_falls_with_machines(self):
        result = fig03_dop_sweep.run()
        cpu = [row.cpu_utilization for row in result.rows]
        assert cpu == sorted(cpu, reverse=True)

    def test_comp_shrinks_comm_flat(self):
        result = fig03_dop_sweep.run()
        comps = [row.t_comp for row in result.rows]
        pulls = {row.t_pull for row in result.rows}
        assert comps == sorted(comps, reverse=True)
        assert len(pulls) == 1  # PULL is DoP-independent

    def test_iteration_time_improves_with_machines(self):
        result = fig03_dop_sweep.run()
        iterations = [row.iteration_seconds for row in result.rows]
        assert iterations[-1] < iterations[0]


class TestFig04:
    @pytest.fixture(scope="class")
    def result(self):
        return fig04_naive_colocation.run()

    def test_triple_ooms(self, result):
        assert result.row("NMF+MLR+Lasso").oom

    def test_pairs_complete_without_oom(self, result):
        assert not result.row("NMF+Lasso").oom
        assert not result.row("NMF+MLR").oom

    def test_colocation_does_not_fix_utilization(self, result):
        """Pairs still fail to push both resources high (the paper's
        point: naive co-location averages out around ~50%)."""
        pair = result.row("NMF+Lasso")
        assert pair.cpu_utilization < 90.0
        assert "OOM" in fig04_naive_colocation.report(result)
        with pytest.raises(KeyError):
            result.row("no such pair")


class TestFig09:
    def test_cdfs_cover_paper_ranges(self):
        result = fig09_workload_cdf.run()
        assert result.iteration_minutes.max() < 25
        assert result.comp_ratios.min() < 0.35
        assert result.comp_ratios.max() > 0.8
        values, fractions = cdf_points(result.iteration_minutes)
        assert fractions[-1] == 1.0
        assert "Table I" in fig09_workload_cdf.report(result)


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10_main.run(scale=SCALE, n_naive_cases=2)

    def test_harmony_beats_isolated_makespan(self, result):
        assert result.harmony_makespan_speedup > 1.1

    def test_harmony_improves_utilization(self, result):
        assert result.utilization_ratio > 1.1

    def test_naive_is_no_silver_bullet(self, result):
        assert min(result.naive_makespan_speedups) < 1.2

    def test_report_renders(self, result):
        text = fig10_main.report(result)
        assert "Harmony" in text and "Naive" in text


class TestFig12:
    def test_comp_heavy_workload_uses_larger_dops(self):
        result = fig12_group_distributions.run(scale=SCALE)
        assert result.comp_intensive.median_dop >= \
            result.comm_intensive.median_dop
        dops, fractions = result.base.dop_cdf()
        assert len(dops) == len(result.base.dops)
        assert fractions[-1] == 1.0
        assert "Fig. 12" in fig12_group_distributions.report(result)


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        return fig13_model_accuracy.run(scale=SCALE,
                                        error_levels=(0.0, 0.2))

    def test_prediction_error_is_small(self, result):
        assert result.mean_t_group_error < 0.25

    def test_error_injection_rows(self, result):
        assert len(result.sensitivity) == 2
        assert result.sensitivity[0].normalized_jct_speedup == 1.0
        assert "Fig. 13a" in fig13_model_accuracy.report(result)

    def test_errors_always_measured_without_injection(self):
        """Without a 0.0 level the driver runs its own uninjected
        reference, so the Fig. 13b errors do not depend on the levels."""
        with_zero = fig13_model_accuracy.run(scale=0.1,
                                             error_levels=(0.0,))
        without = fig13_model_accuracy.run(scale=0.1, error_levels=(0.2,))
        assert without.sensitivity[0].normalized_jct_speedup == 1.0
        np.testing.assert_array_equal(without.t_group_errors,
                                      with_zero.t_group_errors)

    def test_injector_is_deterministic_per_job(self):
        injector = fig13_model_accuracy.make_error_injector(0.1, seed=1)
        assert injector("t_cpu", "a") == injector("t_cpu", "a")
        assert injector("t_cpu", "a") in (0.9, 1.1)


class TestFig14:
    def test_oracle_close_to_harmony(self):
        result = fig14_oracle.run(n_jobs=5, n_machines=16)
        assert len(result.oracle.finished) == 5
        assert len(result.harmony.finished) == 5
        # The greedy scheduler stays within a sane band of the oracle.
        assert abs(result.jct_gap) < 0.5
        assert "Fig. 14" in fig14_oracle.report(result)


class TestAblation:
    def test_stages_monotone_and_full_is_best(self):
        result = ablation.run(scale=SCALE)
        fractions = [result.benefit_fraction(stage)
                     for _, stage in result.stages]
        assert fractions[-1] == pytest.approx(1.0)
        assert fractions[0] <= fractions[-1]
        assert "ablation" in ablation.report(result)

    def test_no_reduction_to_share_gives_zero(self):
        """When full Harmony does not beat isolated, every stage's
        share of its reduction is 0, not a division by zero."""
        run = types.SimpleNamespace(makespan=100.0)
        result = ablation.AblationResult(
            isolated=run, no_spill_harmony=run, subtasks_only=run,
            with_grouping=run, full=run)
        assert result.benefit_fraction(run) == 0.0


class TestSensitivity:
    def test_ratio_subsets_complete(self):
        result = sensitivity_ratio.run(scale=SCALE)
        assert {row.label for row in result.rows} == \
            {"base", "comp-intensive", "comm-intensive"}
        for row in result.rows:
            assert row.makespan_speedup > 0.8
        assert result.row("base").label == "base"
        with pytest.raises(KeyError):
            result.row("no such subset")
        assert "ratio sensitivity" in sensitivity_ratio.report(result)

    def test_arrival_sweep_completes(self):
        result = sensitivity_arrival.run(
            scale=SCALE, mean_arrival_minutes=(0.0, 4.0),
            n_trace_windows=1)
        labels = [row.label for row in result.rows]
        assert "poisson 0 min" in labels
        assert "google traces (avg)" in labels
        assert "arrival sensitivity" in sensitivity_arrival.report(result)

    def test_arrival_sweep_without_trace_windows_has_no_trace_row(self):
        result = sensitivity_arrival.run(
            scale=SCALE, mean_arrival_minutes=(0.0,), n_trace_windows=0)
        assert [row.label for row in result.rows] == ["poisson 0 min"]


class TestScalability:
    def test_schedule_times_reported(self):
        result = scalability.run(sizes=((80, 100), (500, 1000)),
                                 oracle_sizes=(4, 5))
        assert result.largest_harmony_seconds == \
            result.harmony_rows[-1].seconds < 5.0
        assert result.oracle_rows[1].partitions_searched > \
            result.oracle_rows[0].partitions_searched
        assert "V-F" in scalability.report(result)


class TestReloading:
    @pytest.fixture(scope="class")
    def result(self):
        return reloading.run(alphas=(0.1, 0.3, 0.7))

    def test_low_alpha_melts_in_gc(self, result):
        by_alpha = dict(result.fixed_rows)
        assert by_alpha[0.1] > 2 * by_alpha[0.3]

    def test_adaptive_close_to_best_fixed(self, result):
        _, best_seconds = result.best_fixed
        assert result.adaptive_iteration_seconds <= best_seconds * 1.15

    def test_alpha_stats_in_range(self, result):
        mean_alpha, min_alpha, max_alpha = result.alpha_stats()
        assert 0.0 <= min_alpha <= mean_alpha <= max_alpha <= 1.0
        assert "V-G" in reloading.report(result)

    def test_alpha_stats_of_no_samples(self, result):
        empty = dataclasses.replace(result, adaptive_alphas=np.array([]))
        assert empty.alpha_stats() == (0.0, 0.0, 0.0)


class TestFig11:
    def test_harmony_finishes_first_and_renders_four_timelines(self):
        result = fig11_util_timeline.run(scale=0.05)
        assert result.harmony.makespan < result.isolated.makespan
        lines = fig11_util_timeline.report(result).splitlines()
        assert sum(" avg=" in line for line in lines) == 4

    def test_sparkline_of_an_empty_series_is_empty(self):
        assert fig11_util_timeline._sparkline(np.array([])) == ""


class TestFaults:
    def test_faults_cost_time_never_correctness(self):
        result = faults.run(scale=0.1)
        assert len(result.faulty.finished) == len(result.baseline.finished)
        assert result.fault_summary.unrecovered_jobs == 0
        assert result.makespan_inflation >= 1.0
        assert result.jct_inflation >= 1.0
        assert "with fault plan" in faults.report(result)


class TestTraceDemo:
    def test_trace_shows_comp_under_comm(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = trace_demo.run()
        assert result.trace_path.is_file()
        assert result.counters_path.is_file()
        assert 0.0 < result.comp_comm_overlap_seconds \
            <= result.category_seconds["comp"]
        assert "COMP/COMM overlap" in trace_demo.report(result)

    def test_report_without_comp_spans(self, tmp_path):
        result = trace_demo.TraceDemoResult(
            n_jobs=0, n_machines=1, makespan_seconds=0.0, n_spans=0,
            n_instants=0, category_seconds={},
            comp_comm_overlap_seconds=0.0, steps_completed=0.0,
            bytes_pushed=0.0, trace_path=tmp_path, counters_path=tmp_path)
        assert "no COMP spans recorded" in trace_demo.report(result)


class TestLocalValidation:
    def test_both_runs_finish_and_render(self):
        """Real threads: the wall-clock ratios are asserted only by
        ``benchmarks/bench_local_validation.py``."""
        result = local_validation.run()
        assert result.serial_bound == pytest.approx(3 * 4 * 0.04)
        assert result.coordinated_wall > 0.0
        assert result.uncoordinated_wall > 0.0
        assert "serialization ratio" in local_validation.report(result)


class TestSchedChurn:
    def test_stream_takes_every_shortcut(self):
        result = sched_churn.run()
        assert result.n_schedule_calls > 0
        assert result.n_patched > 0
        assert result.cache_hits > 0
        assert result.groups_certified > 0
        assert "Scheduler churn stream" in sched_churn.report(result)


class TestSimEngines:
    def test_cli_prints_both_scenarios(self, monkeypatch, capsys):
        monkeypatch.setattr(sim_engines, "DEFAULT_ITERATIONS", 500)
        monkeypatch.setattr(sim_engines, "MULTI_ITERATIONS", 100)
        assert main(["sim_engines"]) == 0
        out = capsys.readouterr().out
        assert "1 job(s) x 500 iterations" in out
        assert f"{sim_engines.MULTI_JOBS} job(s) x 100 iterations" in out
        assert out.count("simulated outcomes bitwise equal: True") == 2

    def test_speedup_over_a_zero_reading_is_infinite(self):
        run = sim_engines.EngineRun("fast", 0.0, None)
        comparison = sim_engines.EngineComparison(
            fast=run, reference=run, n_iterations=1, n_machines=1)
        assert comparison.speedup == float("inf")
