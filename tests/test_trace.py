"""Tests for the observability layer (repro.trace) and its wiring."""

import json
import time
from dataclasses import replace

import pytest

from repro.baselines import IsolatedRuntime
from repro.config import SimConfig
from repro.core.group_runtime import ExecutionMode
from repro.core.runtime import HarmonyRuntime
from repro.core.subtask import SubTaskKind
from repro.core.synchronizer import SubTaskSynchronizer
from repro.errors import TraceError
from repro.experiments.common import run_single_group, scaled_workload
from repro.sim import RateResource, Simulator
from repro.sim.resources import BusySegment, level_samples
from repro.metrics.export import export_counters
from repro.trace import (
    TraceConfig,
    Tracer,
    chrome_trace_events,
    counter_rows,
    write_chrome_trace,
)
from repro.trace.names import is_declared
from repro.workloads.generator import WorkloadGenerator


def _manual_clock(start: float = 0.0):
    state = {"now": start}

    def clock() -> float:
        return state["now"]

    def advance(dt: float) -> None:
        state["now"] += dt

    return clock, advance


class TestTracer:
    def test_begin_end_records_span(self):
        clock, advance = _manual_clock()
        tracer = Tracer(clock)
        track = tracer.track("p", "t")
        handle = tracer.begin(track, "work", cat="comp")
        assert tracer.open_spans == 1
        advance(2.5)
        span = tracer.end(handle)
        assert tracer.open_spans == 0
        assert span.duration == pytest.approx(2.5)
        assert tracer.spans == [span]

    def test_double_close_raises(self):
        tracer = Tracer(lambda: 0.0)
        handle = tracer.begin(tracer.track("p", "t"), "work")
        tracer.end(handle)
        with pytest.raises(TraceError):
            tracer.end(handle)

    def test_backwards_span_raises(self):
        tracer = Tracer(lambda: 0.0)
        with pytest.raises(TraceError):
            tracer.complete(tracer.track("p", "t"), "w", start=5.0,
                            end=1.0)

    def test_event_cap_counts_drops(self):
        tracer = Tracer(lambda: 0.0,
                        TraceConfig(enabled=True, max_events=2))
        track = tracer.track("p", "t")
        for _ in range(5):
            tracer.complete(track, "w", start=0.0, end=0.0)
        assert len(tracer.spans) == 2
        assert tracer.dropped_events == 3

    def test_track_interning_is_stable(self):
        tracer = Tracer(lambda: 0.0)
        a = tracer.track("machines 0-3", "cpu · j1")
        b = tracer.track("machines 0-3", "cpu · j1")
        c = tracer.track("machines 0-3", "net · j1")
        assert a == b
        assert a.pid == c.pid and a.tid != c.tid

    def test_a_full_tracer_drops_instants_too(self):
        tracer = Tracer(lambda: 0.0,
                        TraceConfig(enabled=True, max_events=0))
        tracer.instant("tick")
        assert tracer.instants == []
        assert tracer.dropped_events == 1

    def test_a_pattern_name_matches_only_the_same_pattern(self):
        declared = {"job.*.steps", "plan-patch"}
        assert is_declared("job.*.steps", declared)
        assert is_declared("job.j7.steps", declared)
        assert not is_declared("job.*.bytes", declared)
        assert not is_declared("job.*", declared)

    def test_registry_total_sums_suffix(self):
        tracer = Tracer(lambda: 0.0)
        tracer.counter("job.a.steps").add(3)
        tracer.counter("job.b.steps").add(4)
        tracer.counter("job.a.bytes").add(100)
        assert tracer.registry.total(".steps") == pytest.approx(7)


class TestExport:
    def test_span_args_and_no_counter_lane(self):
        tracer = Tracer(lambda: 1.0)
        track = tracer.track("machines 0-3 · g1", "m0 cpu")
        tracer.end(tracer.begin(track, "COMP", cat="comp",
                                args={"job": "j1"}), args={"m": 4})
        (meta_process, meta_thread, span) = chrome_trace_events(tracer)
        assert span["args"] == {"job": "j1", "m": 4}
        # No counter sampled: no metrics process is declared.
        assert [meta_process["args"]["name"],
                meta_thread["args"]["name"]] == \
            ["machines 0-3 · g1", "m0 cpu"]

    def test_files_land_in_new_directories(self, tmp_path):
        tracer = Tracer(lambda: 2.0)
        tracer.counter("faults.injected").add(3)
        trace = write_chrome_trace(tmp_path / "a" / "trace.json", tracer)
        assert json.loads(trace.read_text())["traceEvents"]
        counters = export_counters(tmp_path / "b" / "counters.csv",
                                   tracer)
        assert counters.read_text().splitlines() == [
            "kind,name,value", "counter,faults.injected,3"]


class TestDisabledTracingCostsNothing:
    def test_simulator_defaults_to_null_tracer(self):
        assert Simulator().tracer is None

    def test_single_group_run_records_no_events(self):
        jobs = WorkloadGenerator(7).base_workload(
            hyper_params_per_pair=1)[:2]
        result = run_single_group(jobs, 8, max_iterations=3)
        assert result.trace is None

    def test_cluster_run_has_no_trace(self):
        specs, machines = scaled_workload(scale=0.1, seed=5)
        runtime = HarmonyRuntime(machines, specs[:3])
        assert runtime.sim.tracer is None
        result = runtime.run()
        assert result.trace is None


class TestBarrierSpans:
    def test_waiting_worker_records_barrier_span(self):
        tracer = Tracer(time.perf_counter)
        synchronizer = SubTaskSynchronizer(timeout=10.0, tracer=tracer)
        synchronizer.register_job("j", 2)

        import threading
        passed = []

        def late_arrival():
            time.sleep(0.05)
            passed.append(synchronizer.arrive("j", 0, SubTaskKind.PULL))

        thread = threading.Thread(target=late_arrival)
        thread.start()
        # This (early) worker blocks at the barrier until the late one
        # arrives — exactly the wait the span must capture.
        passed.append(synchronizer.arrive("j", 0, SubTaskKind.PULL))
        thread.join()

        assert passed == [True, True]
        assert tracer.open_spans == 0  # every begun span was closed
        barrier_spans = [s for s in tracer.spans if s.cat == "barrier"]
        assert len(barrier_spans) == 1  # only the blocked worker waited
        assert barrier_spans[0].name == "barrier·pull"
        assert barrier_spans[0].duration > 0.0
        wait = tracer.registry.counters["job.j.barrier_wait_seconds"]
        assert wait.value == pytest.approx(barrier_spans[0].duration)

    def test_untraced_synchronizer_still_works(self):
        synchronizer = SubTaskSynchronizer(timeout=5.0)
        synchronizer.register_job("j", 1)
        assert synchronizer.arrive("j", 0, SubTaskKind.PUSH)


class TestTracedRuns:
    @pytest.fixture(scope="class")
    def traced_result(self):
        config = SimConfig().with_tracing()
        specs, machines = scaled_workload(scale=0.1, seed=3)
        runtime = HarmonyRuntime(machines, specs[:5], config=config)
        return runtime.run()

    def test_spans_all_closed(self, traced_result):
        tracer = traced_result.trace
        assert tracer is not None
        assert tracer.open_spans == 0
        assert len(tracer.spans) > 0

    def test_subtask_pipeline_spans_present(self, traced_result):
        names = {span.name for span in traced_result.trace.spans}
        assert {"PULL", "COMP", "PUSH"} <= names

    def test_scheduler_instants_present(self, traced_result):
        names = {i.name for i in traced_result.trace.instants}
        assert "placement" in names
        assert "group-start" in names

    def test_counters_survive_regroup(self, traced_result):
        """Per-job counters accumulate across migrations/regroupings:
        total steps equals the workload's total iterations no matter
        how many times jobs moved between groups."""
        migrations = sum(o.migrations
                        for o in traced_result.outcomes.values())
        assert migrations > 0  # the run actually regrouped
        registry = traced_result.trace.registry
        for outcome in traced_result.outcomes.values():
            steps = registry.counters[f"job.{outcome.job_id}.steps"]
            assert steps.value > 0
        # Every executed cycle incremented exactly one steps counter.
        assert registry.total(".steps") == len(
            traced_result._all_cycles)

    def test_chrome_export_valid_and_monotone(self, traced_result,
                                              tmp_path):
        path = write_chrome_trace(tmp_path / "trace.json",
                                  traced_result.trace)
        with path.open() as handle:
            document = json.load(handle)  # raises if not valid JSON
        events = document["traceEvents"]
        payload = [e for e in events if e["ph"] != "M"]
        assert payload, "trace must contain payload events"
        timestamps = [e["ts"] for e in payload]
        assert timestamps == sorted(timestamps)
        assert {e["ph"] for e in payload} <= {"X", "i", "C"}
        for event in payload:
            if event["ph"] == "X":
                assert event["dur"] >= 0.0

    def test_metadata_names_every_track(self, traced_result):
        events = chrome_trace_events(traced_result.trace)
        named_pids = {e["pid"] for e in events
                      if e["ph"] == "M" and e["name"] == "process_name"}
        payload_pids = {e["pid"] for e in events if e["ph"] != "M"}
        assert payload_pids - {0} <= named_pids

    def test_counter_rows_sorted(self, traced_result):
        rows = counter_rows(traced_result.trace)
        assert rows == sorted(rows)
        names = [name for _kind, name, _value in rows]
        assert any(name == "scheduler.migrations" for name in names)

    # -- event-ordering guarantees (what repro.check relies on) --------

    def test_instants_recorded_in_time_order(self, traced_result):
        times = [i.time for i in traced_result.trace.instants]
        assert times == sorted(times)
        assert times[0] >= 0.0

    def test_spans_have_sane_bounds(self, traced_result):
        for span in traced_result.trace.spans:
            assert span.start >= 0.0
            assert span.end >= span.start

    def test_service_lanes_never_overlap(self, traced_result):
        """Per-machine lane monotonicity: each (process, thread) lane
        serves one subtask at a time, so its service spans — sorted by
        start — form a chain of disjoint intervals."""
        service = {"comp", "comm", "load", "reload", "checkpoint",
                   "stall", "wait"}
        lanes = {}
        for span in traced_result.trace.spans:
            if span.cat in service:
                key = (span.track.pid, span.track.tid)
                lanes.setdefault(key, []).append(span)
        assert lanes
        for spans in lanes.values():
            spans.sort(key=lambda s: (s.start, s.end))
            for prev, cur in zip(spans, spans[1:], strict=False):
                assert cur.start >= prev.end - 1e-9, \
                    f"{cur.name} overlaps {prev.name}"

    def test_group_start_instants_join_pid_to_mode(self, traced_result):
        """The checker maps trace lanes to execution modes through the
        group-start instants; pin the args they must carry."""
        starts = [i for i in traced_result.trace.instants
                  if i.name == "group-start"]
        assert starts
        for instant in starts:
            assert instant.args is not None
            assert {"group", "machines", "mode"} <= instant.args.keys()
        # Every group process name ends with the group id announced in
        # a group-start instant, so the join is total.
        announced = {str(i.args["group"]) for i in starts}
        tracer = traced_result.trace
        group_pids = {pid for pid, name in tracer.process_names.items()
                      if name.rsplit(" · ", 1)[-1] in announced}
        span_pids = {s.track.pid for s in tracer.spans
                     if s.cat in {"comp", "comm"}}
        assert span_pids <= group_pids

    def test_checker_accepts_a_real_traced_run(self, traced_result):
        from repro.check import InvariantChecker

        tracer = traced_result.trace
        horizon = max(
            [s.end for s in tracer.spans]
            + [i.time for i in tracer.instants])
        out = []
        InvariantChecker().check_trace(tracer, horizon, out)
        assert out == []


class TestLevelSamples:
    def test_steps_gaps_and_end(self):
        segments = [BusySegment(0.0, 2.0, 1.0),
                    BusySegment(2.0, 3.0, 0.4),
                    BusySegment(3.0, 4.0, 0.4),  # sealed split: no sample
                    BusySegment(6.0, 7.0, 0.4)]  # after an idle gap
        assert level_samples(segments) == [
            (0.0, 1.0), (2.0, 0.4), (4.0, 0.0), (6.0, 0.4), (7.0, 0.0)]

    def test_idle_resource_has_no_samples(self):
        assert level_samples([]) == []


def _run(make, engine: str, traced: bool):
    config = SimConfig(seed=3).with_engine(engine)
    if traced:
        config = config.with_tracing()
    runtime = make(config)
    return runtime, runtime.run()


def _lane(tracer, track):
    if track is None:
        return ("", "")
    return (tracer.process_names[track.pid],
            tracer.thread_names[(track.pid, track.tid)])


def _args(args):
    return json.dumps(args, sort_keys=True, default=str) if args else ""


def _trace_signature(tracer):
    """Everything a trace records, independent of recording order and
    of the pid/tid numbering that order assigns."""
    registry = tracer.registry
    return {
        "spans": sorted((_lane(tracer, s.track), s.name, s.cat, s.start,
                         s.end, _args(s.args)) for s in tracer.spans),
        "instants": sorted((i.name, i.cat, i.time, _lane(tracer, i.track),
                            _args(i.args)) for i in tracer.instants),
        "counters": {name: (c.value, c.samples)
                     for name, c in registry.counters.items()},
        "gauges": {name: (g.value, g.samples)
                   for name, g in registry.gauges.items()},
    }


class TestTracingObservesTheFastEngine:
    """Level gauges are derived from the busy-segment ledger when a
    group stops, so a traced run takes the same fused solo and drive
    lanes as an untraced one — and records the same trace as the
    per-event reference engine."""

    MAKERS = {
        # Drive lane: HarmonyMaster has a per-iteration callback.
        "harmony": lambda specs, machines: lambda config: HarmonyRuntime(
            machines, specs, config=config),
        # Solo lane: one job per group, no per-iteration callback.
        "isolated": lambda specs, machines: lambda config: IsolatedRuntime(
            machines, specs, config=config),
    }

    @pytest.fixture(scope="class")
    def runs(self):
        specs, machines = scaled_workload(scale=0.1, seed=3)
        runs = {}
        for name, maker in self.MAKERS.items():
            make = maker(specs[:5], machines)
            for engine in ("fast", "reference"):
                for traced in (False, True):
                    runs[name, engine, traced] = _run(make, engine, traced)
        return runs

    def test_traced_solo_job_makes_no_submit_calls(self, monkeypatch):
        """The solo lane serves PULL/COMP/PUSH in closed form; tracing
        must not push it back onto per-event submits."""
        calls = [0]
        submit = RateResource.submit

        def counting_submit(self, *args, **kwargs):
            calls[0] += 1
            return submit(self, *args, **kwargs)

        monkeypatch.setattr(RateResource, "submit", counting_submit)
        spec = replace(
            WorkloadGenerator(7).base_workload(hyper_params_per_pair=1)[0],
            iterations=8000, submit_time=0.0)
        counts = {}
        for traced in (False, True):
            config = SimConfig().with_engine("fast")
            if traced:
                config = config.with_tracing()
            calls[0] = 0
            result = run_single_group([spec], 4, ExecutionMode.ISOLATED,
                                      config)
            assert (result.trace is not None) == traced
            counts[traced] = calls[0]
        assert counts == {False: 0, True: 0}

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_traced_fastpath_stats_match_untraced(self, runs, name):
        _, plain = runs[name, "fast", False]
        _, traced = runs[name, "fast", True]
        assert traced.fastpath.engaged
        assert traced.fastpath == plain.fastpath

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_fast_engine_trace_equals_reference_trace(self, runs, name):
        _, fast = runs[name, "fast", True]
        _, ref = runs[name, "reference", True]
        assert not ref.fastpath.engaged
        assert _trace_signature(fast.trace) == _trace_signature(ref.trace)

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_level_gauges_integrate_to_busy_seconds(self, runs, name):
        runtime, result = runs[name, "fast", True]
        gauges = result.trace.registry.gauges
        audits = runtime.master.group_audits
        assert audits
        for audit in audits:
            for lane in ("cpu", "net"):
                samples = gauges[f"{audit.group_id}.{lane}.level"].samples
                area = sum(level * (t1 - t0) for (t0, level), (t1, _)
                           in zip(samples, samples[1:], strict=False))
                busy = getattr(audit, lane).busy_seconds
                assert busy > 0.0
                assert area == pytest.approx(busy, rel=1e-9)
                assert samples[-1][1] == 0.0

    def test_truncated_run_flushes_live_groups(self):
        specs, machines = scaled_workload(scale=0.1, seed=3)
        runtime = HarmonyRuntime(machines, specs[:5],
                                 config=SimConfig(seed=3).with_tracing())
        result = runtime.run(max_sim_seconds=2000.0)
        assert runtime.master.groups  # the horizon cut groups short
        gauges = result.trace.registry.gauges
        for group_id in runtime.master.groups:
            samples = gauges[f"{group_id}.cpu.level"].samples
            assert samples
            assert samples[-1] == (runtime.sim.now, 0.0)
