"""The declared universe of trace event and metric names.

Every ``tracer.instant``/``counter``/``gauge`` name and every span
name emitted anywhere in the package is declared here, as an exact
string or as a ``*``-pattern for names built with an interpolated
prefix (``job.<job_id>.steps`` is declared as ``job.*.steps``).

Two consumers:

1. ``repro.analysis`` (harmonylint rule TRC002/TRC003) checks call
   sites against these sets at lint time, so a typo'd or undeclared
   metric name fails CI instead of silently creating a new lane.
2. Exporters and dashboards can treat this module as the schema of a
   trace file.

When adding instrumentation, declare the name here first.
"""

from __future__ import annotations

import fnmatch
from collections.abc import Iterable

#: Instant (point-in-time) event names.
INSTANT_NAMES = frozenset({
    # scheduler decisions (core/master.py)
    "machine-crash", "regroup-check", "placement", "plan-patch",
    "escalate", "apply-plan", "epoch-close",
    # group lifecycle (core/group_runtime.py)
    "group-start",
    # fault subsystem (repro.faults); the injected-kind instants carry
    # the FaultKind values verbatim.
    "fault-detected", "repair",
    "machine_crash", "machine_slowdown", "network_drop",
    # sharded scheduling (repro.shard): placer routing decisions and
    # cross-cell rebalance passes.
    "placer.route", "shard.rebalance",
})

#: Counter names; ``*`` stands for one interpolated component.
COUNTER_NAMES = frozenset({
    "faults.detected", "faults.injected", "faults.repaired",
    "scheduler.migrations", "scheduler.regroups",
    # per-job counters (prefix ``job.<job_id>``)
    "*.steps", "*.bytes_pulled", "*.bytes_pushed",
    "*.barrier_wait_seconds", "*.stall_seconds", "*.gc_seconds",
    "*.reloads", "*.reload_bytes",
    "job.*.checkpoints", "job.*.barrier_wait_seconds",
    # sharded scheduling (repro.shard)
    "shard.cells_rescheduled", "shard.jobs_moved", "shard.pool_fallbacks",
})

#: Gauge names.  ``<group>.{cpu,net,disk}.level`` are each resource's
#: delivered-service level, derived from its busy segments when the
#: group stops (``GroupRuntime.record_levels``).
GAUGE_NAMES = frozenset({
    "*.alpha",
    "*.cpu.level", "*.net.level", "*.disk.level",
})

#: Span (duration) event names.
SPAN_NAMES = frozenset({
    "COMP", "PULL", "PUSH", "LOAD", "RESTORE+LOAD", "RELOAD",
    "CHECKPOINT", "RELOAD-STALL",
    "wait·*", "barrier·*",
    # per-cell schedule spans of the sharded scheduler (repro.shard)
    "cell·*",
})


def is_declared(name: str, declared: Iterable[str]) -> bool:
    """True when ``name`` (an exact string, or a ``*``-pattern
    reconstructed from an f-string) matches a declared name.

    A pattern argument matches only a declared pattern with the same
    shape — ``*.steps`` is declared or it is not; wildcard-vs-wildcard
    subsumption is deliberately not attempted.
    """
    if name in declared:
        return True
    if "*" in name:
        return False
    return any("*" in pattern and fnmatch.fnmatchcase(name, pattern)
               for pattern in declared)
