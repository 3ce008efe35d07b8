"""Queue-order admission policies: packed FIFO and backfill families.

Two pass functions, each bound into policies with the
``functools.partial`` idiom (after stmobo's batch-simulator policies,
where ``easy_backfill = partial(_backfill_sched, 1)``):

* :func:`_packed_fifo_pass` — the transcription of the historical
  ``BaselineMaster._pump`` admission scan: FIFO in batches of up to
  ``group_size`` jobs.  :func:`packed_fifo` binds it with demand-skip
  backfill on; the naive and isolated baselines are exactly that
  policy at their legacy group sizes, and the differential tests pin
  the transcription bitwise-equal to the pre-refactor masters.
  :data:`fcfs` binds it at size 1 with backfill off, so a blocked head
  blocks the queue.
* :func:`_reservation_backfill` — classic supercomputing backfill
  with *reservations*: a blocked job reserves a start time computed
  from the running groups' predicted releases, and later jobs may only
  jump the queue when doing so provably does not delay any
  reservation.  :data:`easy` binds ``max_reservations=1`` (EASY
  backfill), :data:`conservative` binds ``None`` (every blocked job
  reserves).
"""

from __future__ import annotations

import math
from functools import partial

from repro.errors import SchedulingError
from repro.policies.base import GroupStart, Policy, PolicyObservation

#: Reservation start times closer than this are "not delayed" (float
#: noise from re-accumulating the same release timeline).
_DELAY_TOL = 1e-9


# -- packed FIFO (the legacy baseline scan) --------------------------------


def _packed_fifo_pass(group_size: int, backfill: bool,
                      obs: PolicyObservation) -> tuple[GroupStart, ...]:
    """One admission pass of the historical ``BaselineMaster._pump``.

    Every quirk of the original scan is intentional and load-bearing
    for the bitwise-equality pin: the batch slice may be shorter than
    ``group_size`` near the queue's tail; the size loop ``break``s on
    the first batch passing the *static* checks whether or not it fits
    in the free pool; and a blocked head aborts the whole pass when
    backfill is off.
    """
    starts: list[GroupStart] = []
    queue = list(obs.queue)
    free = obs.n_free
    index = 0
    while index < len(queue):
        started = False
        # A batch whose memory floor exceeds the cluster (model caches
        # stack per machine) shrinks until it fits.
        for size in range(group_size, 0, -1):
            batch = tuple(queue[index:index + size])
            wanted = obs.batch_demand(batch)
            if wanted > obs.cluster_size:
                continue
            if wanted <= free:
                del queue[index:index + size]
                starts.append(GroupStart(batch, wanted))
                free -= wanted
                started = True
            break
        if not started:
            if not backfill:
                break  # strict FIFO: head-of-line blocks
            # Backfill: try a later batch.
            index += group_size
    return tuple(starts)


def packed_fifo(group_size: int = 1) -> Policy:
    """The legacy baseline admission policy (with backfill) in batches
    of up to ``group_size`` jobs."""
    if group_size < 1:
        raise SchedulingError(f"group_size must be >= 1, got {group_size}")
    return partial(_packed_fifo_pass, group_size, True)


#: Strict first-come-first-served: single-job groups, a blocked head
#: blocks everyone behind it.
fcfs = partial(_packed_fifo_pass, 1, False)


# -- reservation backfill (EASY / conservative) -----------------------------


def _reservation_start_times(now: float, free: int,
                             releases: list[tuple[float, int]],
                             demands: list[int]) -> list[float]:
    """Earliest start per reserved demand, greedily claiming machines.

    Walks the release timeline (sorted by time, then machine count for
    a total order) accumulating freed machines; each reservation in
    queue order claims its machines at the first instant enough are
    available, and holds them from then on.  An unsatisfiable demand
    gets ``inf``.
    """
    events = sorted(releases)
    avail = free
    index = 0
    at = now
    out: list[float] = []
    for demand in demands:
        while avail < demand and index < len(events):
            when, machines = events[index]
            index += 1
            at = max(at, when)
            avail += machines
        if avail >= demand:
            out.append(at)
            avail -= demand
        else:
            out.append(math.inf)
    return out


def _reservation_backfill(max_reservations: int | None,
                          obs: PolicyObservation) -> tuple[GroupStart, ...]:
    """FCFS with backfill against shadow reservations.

    A queued job starts immediately when it fits *and* running it would
    not push back any earlier blocked job's reserved start time
    (checked by re-deriving every reservation's start with the
    candidate's machines held until its predicted completion).  Blocked
    jobs reserve in queue order, up to ``max_reservations`` of them
    (``None`` = unbounded, i.e. conservative backfill).
    """
    starts: list[GroupStart] = []
    free = obs.n_free
    releases = [(group.predicted_release, group.n_machines)
                for group in obs.running()]
    reserved: list[int] = []
    for job_id in obs.queue:
        demand = obs.batch_demand((job_id,))
        if demand > obs.cluster_size:
            # Unplaceable at any cluster state: never let it wedge the
            # queue behind an infinite reservation.
            continue
        runtime_estimate = obs.solo_seconds(job_id, demand)
        can_start = demand <= free
        if can_start and reserved:
            without = _reservation_start_times(obs.now, free, releases,
                                               reserved)
            with_candidate = _reservation_start_times(
                obs.now, free - demand,
                releases + [(obs.now + runtime_estimate, demand)],
                reserved)
            if any(later > earlier + _DELAY_TOL for later, earlier
                   in zip(with_candidate, without, strict=True)):
                can_start = False  # would delay a reservation
        if can_start:
            starts.append(GroupStart((job_id,), demand))
            free -= demand
            releases.append((obs.now + runtime_estimate, demand))
        elif max_reservations is None or len(reserved) < max_reservations:
            reserved.append(demand)
    return tuple(starts)


#: FCFS + EASY backfill: only the head-of-line blocked job holds a
#: reservation.
easy = partial(_reservation_backfill, 1)

#: FCFS + conservative backfill: every blocked job holds a reservation.
conservative = partial(_reservation_backfill, None)
