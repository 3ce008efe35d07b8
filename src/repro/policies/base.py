"""What a scheduling policy sees and what it returns.

A policy is a function (:data:`Policy`) from a :class:`PolicyObservation`
— the queued jobs, the free-machine count, and callbacks into the
master's (memoized) demand/metrics oracles — to a tuple of
:class:`GroupStart`: which queued jobs to start, grouped how, on how
many machines, optionally with per-job phase offsets.  The queue-driven
master (:class:`repro.baselines.base.BaselineMaster`) applies the starts
verbatim and re-asks until a pass makes no progress, so a policy only
ever reasons about one admission pass.  Policies with parameters are
``functools.partial`` bindings of one pass function.

Everything a policy can observe is deterministic: the queue is an
ordered tuple, running groups are sorted by group id, and the metric
oracles are pure functions of the (immutable) job specs.  Policies must
not iterate over sets or dicts of their own making — tie-breaks follow
queue order so outcomes are independent of ``PYTHONHASHSEED``.

The registry (:mod:`repro.policies.registry`) maps policy names to
runtime builders; :mod:`repro.policies.queueing`,
:mod:`repro.policies.packing` and :mod:`repro.policies.interleave`
implement the competitor zoo.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.profiler import JobMetrics


@dataclass(frozen=True)
class RunningGroupView:
    """A policy's read-only view of one live job group."""

    group_id: str
    job_ids: tuple[str, ...]
    n_machines: int
    #: Predicted time the group releases its machines (Eq. 1 over the
    #: members' remaining iterations) — the backfill reservations' input.
    predicted_release: float


@dataclass(frozen=True)
class GroupStart:
    """One group the policy wants started this pass."""

    job_ids: tuple[str, ...]
    n_machines: int
    #: Per-job start delays in seconds (CASSINI-style phase staggering);
    #: each finite and >= 0; ``None`` means everyone starts immediately.
    start_offsets: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.job_ids:
            raise SchedulingError("a GroupStart needs at least one job")
        if self.n_machines < 1:
            raise SchedulingError(
                f"group of {list(self.job_ids)} wants "
                f"{self.n_machines} machines")
        if self.start_offsets is None:
            return
        if len(self.start_offsets) != len(self.job_ids):
            raise SchedulingError(
                f"{len(self.start_offsets)} offsets for "
                f"{len(self.job_ids)} jobs")
        for job_id, offset in zip(self.job_ids, self.start_offsets,
                                  strict=True):
            # Stated positively so that NaN fails it too.
            if not 0.0 <= offset < math.inf:
                raise SchedulingError(
                    f"job {job_id}: start offset {offset} must be "
                    f"finite and >= 0")


@dataclass(frozen=True)
class PolicyObservation:
    """Cluster/queue snapshot handed to a policy.

    The callables are bound master methods.  ``batch_demand`` and
    ``metrics_at`` are memoized per run, so a policy re-asking the same
    demand twice pays one scan, not two; ``memory_floor`` scans the
    master's footprint table, whose resident rows are memoized, on
    every call.
    """

    now: float
    cluster_size: int
    n_free: int
    #: Queued (not yet started) job ids, in queue order.
    queue: tuple[str, ...]
    #: Machine demand of a (possibly co-located) batch of queued jobs —
    #: compute/communication balance bounded below by the memory floor.
    batch_demand: Callable[[tuple[str, ...]], int]
    #: Smallest DoP at which the batch fits in memory.
    memory_floor: Callable[[tuple[str, ...]], int]
    #: Exact (cost-model) metrics of one job as observed at DoP ``m``.
    metrics_at: Callable[[str, int], JobMetrics]
    #: Closed-form solo runtime of the job's remaining iterations at
    #: DoP ``m`` (Eq. 1; the backfill family's runtime estimate).
    solo_seconds: Callable[[str, int], float]
    #: Live groups, sorted by group id; computed lazily because only
    #: the reservation-based policies need it.
    running: Callable[[], tuple[RunningGroupView, ...]] = \
        field(default=lambda: ())


#: One admission pass: the groups to start, in order.
Policy = Callable[[PolicyObservation], tuple[GroupStart, ...]]
