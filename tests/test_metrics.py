"""Tests for measurement: timelines, recorder, stats, reporting."""

import numpy as np
import pytest

from repro.metrics import (
    ClusterUsageRecorder,
    DecisionRecord,
    FaultLog,
    FaultRecord,
    Timeline,
    bin_segments,
    cdf_points,
    format_table,
)
from repro.metrics.utilization import busy_fraction
from repro.sim import RateResource, Simulator, serial
from repro.sim.resources import BusySegment


class TestStats:
    def test_cdf_points_monotone(self):
        values, fractions = cdf_points([3.0, 1.0, 2.0])
        assert list(values) == [1.0, 2.0, 3.0]
        assert list(fractions) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_cdf_points_empty(self):
        values, fractions = cdf_points([])
        assert len(values) == 0 and len(fractions) == 0


class TestBinSegments:
    def test_full_busy_bin(self):
        segments = [BusySegment(0.0, 60.0, 1.0)]
        bins = bin_segments(segments, t_end=60.0, bin_seconds=60.0)
        assert bins == pytest.approx([1.0])

    def test_partial_overlap_prorated(self):
        segments = [BusySegment(30.0, 90.0, 1.0)]
        bins = bin_segments(segments, t_end=120.0, bin_seconds=60.0)
        assert bins == pytest.approx([0.5, 0.5])

    def test_weight_scales_contribution(self):
        segments = [BusySegment(0.0, 60.0, 0.5)]
        bins = bin_segments(segments, t_end=60.0, bin_seconds=60.0,
                            weight=4.0)
        assert bins == pytest.approx([2.0])

    def test_segments_beyond_end_clipped(self):
        segments = [BusySegment(0.0, 1000.0, 1.0)]
        bins = bin_segments(segments, t_end=120.0, bin_seconds=60.0)
        assert len(bins) == 2

    def test_bad_bin_width_raises(self):
        with pytest.raises(ValueError):
            bin_segments([], t_end=10.0, bin_seconds=0.0)

    def test_matches_scalar_reference(self):
        """The vectorized inner accumulation must agree bin-for-bin
        with the straightforward per-bin loop."""
        def reference(segments, t_end, bin_seconds, t_start, weight):
            n_bins = max(1, int(np.ceil(
                max(0.0, t_end - t_start) / bin_seconds)))
            acc = np.zeros(n_bins)
            for segment in segments:
                lo = max(segment.start, t_start)
                hi = min(segment.end, t_end)
                if hi <= lo or segment.level <= 0:
                    continue
                first = int((lo - t_start) // bin_seconds)
                last = int(np.ceil((hi - t_start) / bin_seconds))
                for index in range(first, min(last, n_bins)):
                    bin_lo = t_start + index * bin_seconds
                    overlap = (min(hi, bin_lo + bin_seconds)
                               - max(lo, bin_lo))
                    if overlap > 0:
                        acc[index] += overlap * segment.level * weight
            return acc / bin_seconds

        rng = np.random.default_rng(42)
        for _ in range(50):
            t = 0.0
            segments = []
            for _ in range(int(rng.integers(1, 20))):
                t += rng.uniform(0.0, 30.0)
                end = t + rng.uniform(0.01, 300.0)
                segments.append(BusySegment(t, end, rng.uniform(0, 1)))
                t = end
            t_start = rng.uniform(0.0, 5.0)
            t_end = rng.uniform(10.0, t + 50.0)
            bin_seconds = rng.uniform(0.5, 90.0)
            weight = rng.uniform(0.5, 4.0)
            got = bin_segments(segments, t_end, bin_seconds,
                               t_start, weight)
            want = reference(segments, t_end, bin_seconds,
                             t_start, weight)
            assert got == pytest.approx(want, abs=1e-9)


class TestTimeline:
    def test_average_until_ignores_tail(self):
        timeline = Timeline(bin_seconds=60.0,
                            values=np.array([1.0, 1.0, 0.0, 0.0]))
        assert timeline.average_until(120.0) == pytest.approx(1.0)
        assert timeline.average_until(240.0) == pytest.approx(0.5)


class TestRecorder:
    def _run_group(self, recorder, group_id, n_machines, busy, start=0.0):
        sim = Simulator(start_time=start)
        cpu = RateResource(sim, serial(), "cpu")
        net = RateResource(sim, serial(), "net")
        recorder.group_started(group_id, n_machines, sim.now, cpu, net)
        cpu.submit(busy)
        sim.run()
        recorder.group_stopped(group_id, sim.now)

    def test_busy_fraction_per_group(self):
        recorder = ClusterUsageRecorder(total_machines=10)
        self._run_group(recorder, "g0", 5, busy=30.0)
        usage = recorder.finished_groups[0]
        assert usage.busy_fraction("cpu") == pytest.approx(1.0)
        assert usage.busy_fraction("net") == 0.0

    def test_cluster_timeline_weights_by_machines(self):
        recorder = ClusterUsageRecorder(total_machines=10,
                                        bin_seconds=10.0)
        self._run_group(recorder, "g0", 5, busy=10.0)
        timeline = recorder.utilization_timeline("cpu", t_end=10.0)
        assert timeline.values[0] == pytest.approx(0.5)

    def test_a_zero_length_window_is_idle(self):
        sim = Simulator()
        cpu = RateResource(sim, serial(), "cpu")
        cpu.submit(10.0)
        sim.run()
        assert busy_fraction(cpu, 5.0, 5.0) == 0.0
        assert busy_fraction(cpu, 0.0, 10.0) == pytest.approx(1.0)
        recorder = ClusterUsageRecorder(total_machines=4)
        recorder.group_started("g", 2, 10.0, cpu, cpu)
        recorder.group_stopped("g", 10.0)
        assert recorder.finished_groups[0].busy_fraction("cpu") == 0.0

    def test_double_start_raises(self):
        recorder = ClusterUsageRecorder(total_machines=4)
        sim = Simulator()
        cpu = RateResource(sim, serial(), "cpu")
        net = RateResource(sim, serial(), "net")
        recorder.group_started("g", 2, 0.0, cpu, net)
        with pytest.raises(ValueError):
            recorder.group_started("g", 2, 0.0, cpu, net)

    def test_finish_closes_live_groups(self):
        recorder = ClusterUsageRecorder(total_machines=4)
        sim = Simulator()
        cpu = RateResource(sim, serial(), "cpu")
        net = RateResource(sim, serial(), "net")
        recorder.group_started("g", 2, 0.0, cpu, net)
        recorder.finish(100.0)
        assert len(recorder.finished_groups) == 1


class TestFaultLog:
    def test_an_undetected_crash_has_no_detection_time(self):
        log = FaultLog()
        blip = log.fault_injected(FaultRecord(100.0, "machine_crash", 1))
        seen = log.fault_injected(FaultRecord(200.0, "machine_crash", 2))
        log.crash_detected(seen, 290.0)
        assert blip.detection_seconds is None
        assert seen.detection_seconds == 90.0
        assert log.summary().mean_detection_seconds == 90.0


class TestDecisionRecord:
    def _record(self, **kwargs):
        defaults = dict(time=0.0, group_id="g", n_machines=4,
                        job_ids=("a",), predicted_t_group=100.0,
                        predicted_u_cpu=0.8, predicted_u_net=0.6)
        defaults.update(kwargs)
        return DecisionRecord(**defaults)

    def test_t_group_error(self):
        record = self._record(measured_t_group=110.0)
        assert record.t_group_error() == pytest.approx(10.0 / 110.0)

    def test_unmeasured_is_none(self):
        assert self._record().t_group_error() is None
        assert self._record().u_error() is None

    def test_u_error_skips_idle_epochs(self):
        record = self._record(measured_u_cpu=0.05, measured_u_net=0.05)
        assert record.u_error() is None

    def test_u_error_relative(self):
        record = self._record(measured_u_cpu=0.7, measured_u_net=0.7)
        assert record.u_error() == pytest.approx(0.0 / 1.4)


class TestReporting:
    def test_table_alignment_and_rows(self):
        text = format_table(["name", "value"],
                            [("a", 1.0), ("bbbb", 2.5)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "bbbb" in text and "2.50" in text

    def test_untitled_table_starts_at_its_header(self):
        assert format_table(["a"], [("x",)]).splitlines() == [
            "a", "-", "x"]

    def test_row_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a"], [("x", "y")])
