"""The SubTask Synchronizer (Fig. 7, §IV-A).

"The subtask synchronizer in the master manages the state of the
distributed job subtasks across multiple workers, to synchronize the
overall progress of the job": when a worker completes a COMM subtask,
the next COMP subtask is enqueued only after *every* worker's COMM
subtask of that step is complete.

This is the thread-based implementation used by the local runtime; the
cluster simulator models the same barrier analytically (the
``barrier_overhead`` factor).

Fault handling: a worker that dies mid-iteration would leave its peers
blocked at the barrier until the timeout kills the whole run.  The local
runtime's worker-error path
(:meth:`repro.core.local_runtime.LocalHarmonyRuntime.run`) instead calls
:meth:`SubTaskSynchronizer.release_job` as soon as a worker raises;
blocked workers then return ``False`` from :meth:`arrive` and leave the
job, and ``run`` raises the worker's error once every thread joined.
"""

from __future__ import annotations

import threading

from repro.core.subtask import SubTaskKind
from repro.errors import SimulationError


class SubTaskSynchronizer:
    """Per-(job, iteration, step) barriers across a job's workers."""

    def __init__(self, timeout: float = 60.0, tracer=None):
        # The local runtime runs on real threads, so barrier waits are
        # traced against the wall clock (the tracer itself is clock-
        # agnostic; see repro.trace).
        self._trace = tracer
        self._condition = threading.Condition()
        self._arrived: dict[tuple[str, int, SubTaskKind], int] = {}
        self._expected: dict[str, int] = {}
        #: Highest iteration whose barrier fully passed, per (job, kind).
        #: Completed keys are dropped from ``_arrived`` so barrier state
        #: stays bounded over a job's lifetime; this high-water mark
        #: keeps late over-arrivals detectable.
        self._completed: dict[tuple[str, SubTaskKind], int] = {}
        #: Jobs whose barriers were force-released (worker loss).
        self._released: set[str] = set()
        self._timeout = timeout
        self._lanes: dict[str, object] = {}

    def _lane(self, job_id: str):
        track = self._lanes.get(job_id)
        if track is None:
            track = self._trace.track("synchronizer", job_id)
            self._lanes[job_id] = track
        return track

    def register_job(self, job_id: str, n_workers: int) -> None:
        if n_workers < 1:
            raise SimulationError(f"job {job_id}: need >= 1 worker")
        with self._condition:
            self._expected[job_id] = n_workers
            self._released.discard(job_id)
            # A fresh registration (e.g. resume after a fault) starts
            # with clean barrier state.
            for key in [k for k in self._arrived if k[0] == job_id]:
                del self._arrived[key]
            for key in [k for k in self._completed if k[0] == job_id]:
                del self._completed[key]

    def unregister_job(self, job_id: str) -> None:
        """Drop all barrier state of a job, waking blocked workers.

        Workers blocked in :meth:`arrive` return ``False``.
        """
        with self._condition:
            self._expected.pop(job_id, None)
            for key in [k for k in self._arrived if k[0] == job_id]:
                del self._arrived[key]
            for key in [k for k in self._completed if k[0] == job_id]:
                del self._completed[key]
            self._condition.notify_all()

    def release_job(self, job_id: str) -> None:
        """Force-release a registered job's barriers (fault path).

        Unlike :meth:`unregister_job`, the job stays registered until
        its workers have left, and a later :meth:`register_job` (on
        resume, possibly with a different worker count) clears the
        released flag.  Blocked workers return
        ``False`` from :meth:`arrive`, as do subsequent arrivals, so
        every worker observes the release exactly once per call site.
        """
        with self._condition:
            if job_id not in self._expected:
                return
            self._released.add(job_id)
            for key in [k for k in self._arrived if k[0] == job_id]:
                del self._arrived[key]
            self._condition.notify_all()

    def arrive(self, job_id: str, iteration: int,
               kind: SubTaskKind) -> bool:
        """Block until all of the job's workers complete this step.

        Returns ``True`` when the barrier passed normally and ``False``
        when the job was released or unregistered while waiting — the
        caller should abandon the iteration (checkpoint / exit) rather
        than proceed.
        """
        key = (job_id, iteration, kind)
        watermark = (job_id, kind)
        with self._condition:
            expected = self._expected.get(job_id)
            if expected is None:
                raise SimulationError(f"job {job_id} is not registered")
            if job_id in self._released:
                return False
            if iteration <= self._completed.get(watermark, -1):
                raise SimulationError(
                    f"{key}: more arrivals than workers ({expected})")
            # An open barrier holds fewer than ``expected`` arrivals: the
            # one that completes it retires the key, and re-registering
            # the job clears its keys.
            count = self._arrived.get(key, 0) + 1
            if count == expected:
                # Barrier complete: retire the key so state stays
                # bounded, record the high-water mark, wake the peers.
                self._arrived.pop(key, None)
                self._completed[watermark] = max(
                    self._completed.get(watermark, -1), iteration)
                self._condition.notify_all()
                return True
            self._arrived[key] = count
            self._condition.notify_all()

            def ready() -> bool:
                return (self._completed.get(watermark, -1) >= iteration
                        or job_id not in self._expected
                        or job_id in self._released)

            handle = None
            if self._trace is not None:
                handle = self._trace.begin(
                    self._lane(job_id), f"barrier·{kind.value}",
                    cat="barrier", args={"iteration": iteration})
            done = self._condition.wait_for(ready, timeout=self._timeout)
            if handle is not None:
                span = self._trace.end(handle)
                if span is not None:
                    self._trace.counter(
                        f"job.{job_id}.barrier_wait_seconds").add(
                            span.duration)
            if not done:
                raise SimulationError(
                    f"barrier timeout at {key}: "
                    f"{self._arrived.get(key, 0)}/{expected} arrived")
            return (job_id in self._expected
                    and job_id not in self._released)

    def pending(self, job_id: str) -> int | None:
        """Number of open barriers for a job (diagnostics)."""
        with self._condition:
            if job_id not in self._expected:
                return None
            expected = self._expected[job_id]
            return sum(1 for key, count in self._arrived.items()
                       if key[0] == job_id and count < expected)
