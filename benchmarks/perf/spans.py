"""Host-clock span recorder for the ``--trace`` run, and the layer table.

Layers are timed from outside: :func:`install` replaces each public
function in :data:`LAYERS` with a wrapper that opens a span on a stack
and closes it on return, and :func:`uninstall` puts the originals back.
A span's self time is its duration minus the durations of the spans
opened directly inside it, so the self times of all layers plus the
uncovered remainder add up to the traced wall time.

Nothing here is imported by the program; the untraced run never calls
:func:`install`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

#: (span name, module, attribute path).  A function that other modules
#: import by name is listed once per importing module, because the
#: caller resolves the name in its own namespace.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("sim.run", "repro.sim.simulator", "Simulator.run"),
    ("runtime.run", "repro.core.runtime", "HarmonyRuntime.run"),
    ("experiments.run_single_group", "repro.experiments.common",
     "run_single_group"),
    ("master.submit", "repro.core.master", "HarmonyMaster.submit"),
    ("master.on_iteration", "repro.core.master",
     "HarmonyMaster.on_iteration"),
    ("master.on_job_finished", "repro.core.master",
     "HarmonyMaster.on_job_finished"),
    ("master.on_job_paused", "repro.core.master",
     "HarmonyMaster.on_job_paused"),
    ("master.periodic_check", "repro.core.master",
     "HarmonyMaster.periodic_check"),
    ("profiler.record_iteration", "repro.core.profiler",
     "Profiler.record_iteration"),
    ("sched.schedule", "repro.core.scheduler", "HarmonyScheduler.schedule"),
    ("sched.assign_jobs", "repro.core.scheduler", "assign_jobs"),
    ("sched.allocate_machines", "repro.core.scheduler", "allocate_machines"),
    ("sched.build_plan", "repro.core.scheduler",
     "HarmonyScheduler.build_plan"),
    ("regroup.splice_plan", "repro.core.regroup", "splice_plan"),
    ("regroup.splice_plan", "repro.shard.scheduler", "splice_plan"),
    ("shard.schedule", "repro.shard.scheduler", "ShardedScheduler.schedule"),
    ("shard.route", "repro.shard.placer", "GlobalPlacer.route"),
    ("shard.plan_moves", "repro.shard.scheduler", "plan_moves"),
    ("metrics.recorder", "repro.metrics.utilization",
     "ClusterUsageRecorder.group_started"),
    ("metrics.recorder", "repro.metrics.utilization",
     "ClusterUsageRecorder.group_stopped"),
    ("metrics.recorder", "repro.metrics.utilization",
     "ClusterUsageRecorder.finish"),
)

#: Span names whose calls and self time are reported, in report order.
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in LAYERS))

#: Counters read from program state after a wrapped call returns.
_FASTPATH_FIELDS = ("solo_batches", "drive_windows", "wakes_served",
                    "engines_deactivated")


class SpanRecorder:
    """Per-name call counts and self time, plus optional raw spans."""

    def __init__(self) -> None:
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: (parent span name, child span name) -> calls.
        self.nested: defaultdict[tuple[str, str], int] = defaultdict(int)
        #: Program counters read after wrapped calls (cache hits, ...).
        self.counters: defaultdict[str, float] = defaultdict(float)
        #: (name, start, duration) of every span while recording; None
        #: when raw spans are not kept.
        self.events: list[tuple[str, float, float]] | None = None
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child_s = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            self.nested[(parent[0], name)] += 1
        if self.events is not None:
            self.events.append((name, start, duration))


def _resolve(module_name: str, path: str) -> tuple[object, str]:
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _after_hook(name: str, recorder: SpanRecorder):
    """Reads the counters a layer already keeps, after its call returns."""
    counters = recorder.counters
    if name == "sim.run":
        def after(args, _result):
            stats = args[0].fastpath_stats
            for field in _FASTPATH_FIELDS:
                counters[f"fastpath.{field}"] += getattr(stats, field)
        return after
    if name == "runtime.run":
        def after(args, _result):
            master = args[0].master
            counters["master.estimate_hits"] += master.estimate_cache_hits
            counters["master.estimate_misses"] += master.estimate_cache_misses
            counters["master.patched"] += master.fast_path_replacements
            counters["master.escalated"] += master.full_path_regroups
        return after
    if name == "sched.schedule":
        def after(args, _result):
            stats = args[0].last_stats
            if stats is not None:
                counters["sched.cache_hits"] += stats.cache_hits
                counters["sched.cache_misses"] += stats.cache_misses
                counters["sched.prefixes"] += stats.n_prefixes_evaluated
                counters["sched.warm_start_reuses"] += stats.warm_start_reuses
        return after
    return None


def _wrap(recorder: SpanRecorder, name: str, function):
    after = _after_hook(name, recorder)
    enter, leave = recorder.enter, recorder.exit

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        enter(name)
        try:
            result = function(*args, **kwargs)
        finally:
            leave()
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _count_steps(recorder: SpanRecorder, function):
    counters = recorder.counters

    @functools.wraps(function)
    def wrapper(self):
        counters["sim.steps"] += 1
        return function(self)

    return wrapper


def install(recorder: SpanRecorder) -> list[tuple[object, str, object]]:
    """Wrap every layer function; returns what :func:`uninstall` needs.

    ``Simulator.step`` is counted, not spanned: it runs once per event,
    and a span per event would cost more than the event.
    """
    undo = []
    for name, module_name, path in LAYERS:
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, _wrap(recorder, name, original))
    owner, attr = _resolve("repro.sim.simulator", "Simulator.step")
    original = owner.__dict__[attr]
    undo.append((owner, attr, original))
    setattr(owner, attr, _count_steps(recorder, original))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, n_passes: int,
                  traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics: counts per pass, self time as a share of the
    traced passes' wall time, and the ratios the layers' counters give."""
    counters = recorder.counters
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = recorder.calls[name] / n_passes
        metrics[f"{name}.self_frac"] = _ratio(recorder.self_s[name],
                                              traced_wall_s)
    metrics["sim.steps"] = counters["sim.steps"] / n_passes
    for field in _FASTPATH_FIELDS:
        metrics[f"sim.fastpath.{field}"] = \
            counters[f"fastpath.{field}"] / n_passes
    metrics["sim.fastpath.wakes_per_window"] = _ratio(
        counters["fastpath.wakes_served"], counters["fastpath.drive_windows"])
    metrics["master.estimate_cache.hit_ratio"] = _ratio(
        counters["master.estimate_hits"],
        counters["master.estimate_hits"] + counters["master.estimate_misses"])
    metrics["master.patch_ratio"] = _ratio(
        counters["master.patched"],
        counters["master.patched"] + counters["master.escalated"])
    metrics["sched.plan_cache.hit_ratio"] = _ratio(
        counters["sched.cache_hits"],
        counters["sched.cache_hits"] + counters["sched.cache_misses"])
    metrics["sched.prefixes_per_call"] = _ratio(
        counters["sched.prefixes"], recorder.calls["sched.schedule"])
    metrics["sched.warm_start_reuses"] = \
        counters["sched.warm_start_reuses"] / n_passes
    metrics["shard.cells_per_call"] = _ratio(
        recorder.nested[("shard.schedule", "sched.schedule")],
        recorder.calls["shard.schedule"])
    metrics["other.self_frac"] = 1.0 - _ratio(sum(recorder.self_s.values()),
                                              traced_wall_s)
    return metrics


def write_chrome_trace(events: list[tuple[str, float, float]],
                       path: Path) -> None:
    """Dump raw spans as Chrome-trace complete events (microseconds)."""
    origin = min((start for _, start, _ in events), default=0.0)
    trace = [{"name": name, "cat": name.split(".", 1)[0], "ph": "X",
              "ts": round((start - origin) * 1e6, 3),
              "dur": round(duration * 1e6, 3), "pid": 1, "tid": 1}
             for name, start, duration in events]
    path.write_text(json.dumps({"traceEvents": trace,
                                "displayTimeUnit": "ms"}))
