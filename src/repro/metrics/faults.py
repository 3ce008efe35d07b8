"""Recovery accounting under injected faults (§VI fault tolerance).

The fault-injection subsystem (:mod:`repro.faults`) reports every
injected event and every recovery milestone here, so experiments can
quantify degradation under failures: how long detection took, how long
each affected job stayed off the cluster, how many iterations of
progress were lost, and how much work had to be re-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FaultRecord:
    """One injected fault event and its measured consequences."""

    time: float
    kind: str
    machine_id: int
    #: Group that was running on the machine (None: machine was free).
    group_id: str | None = None
    #: Jobs that were running in the group when the fault hit.
    job_ids: tuple[str, ...] = ()
    #: Window length of a transient fault (slowdown / network drop), or
    #: machine downtime for a crash.
    duration: float = 0.0
    #: Slowdown / retransmit multiplier of a transient fault.
    severity: float = 1.0
    #: When the health monitor noticed the crash (crashes only).
    detected_at: float | None = None
    #: Iterations of progress rolled back to the last checkpoint,
    #: summed over the affected jobs.
    lost_iterations: int = 0
    #: Predicted seconds of work that must be re-run for the rollback.
    rerun_work_seconds: float = 0.0
    #: Per-job time the master needed to get the victim running again,
    #: measured from the crash: job_id -> seconds.
    recovery_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def detection_seconds(self) -> float | None:
        if self.detected_at is None:
            return None
        return self.detected_at - self.time


@dataclass
class FaultSummary:
    """Aggregate recovery statistics of one run."""

    n_crashes: int
    n_slowdowns: int
    n_drops: int
    lost_iterations: int
    rerun_work_seconds: float
    mean_detection_seconds: float
    mean_recovery_seconds: float
    max_recovery_seconds: float
    #: Jobs that were hit by a crash but never came back (still down
    #: when the run ended — should be 0 in a healthy run).
    unrecovered_jobs: int


class FaultLog:
    """Accumulates fault events and recovery milestones for a run."""

    def __init__(self):
        self.records: list[FaultRecord] = []
        #: job_id -> (record, crash detection time) awaiting recovery.
        self._open: dict[str, tuple[FaultRecord, float]] = {}

    # -- recording (called by the injector / master) -------------------

    def fault_injected(self, record: FaultRecord) -> FaultRecord:
        self.records.append(record)
        return record

    def crash_detected(self, record: FaultRecord, at: float) -> None:
        record.detected_at = at

    def jobs_displaced(self, record: FaultRecord, at: float,
                       job_ids: tuple[str, ...],
                       lost_iterations: int,
                       rerun_work_seconds: float) -> None:
        """The master crashed the group: victims start their recovery
        clock (at the *fault* time — detection latency is part of the
        recovery the user experiences)."""
        record.job_ids = job_ids
        record.lost_iterations += lost_iterations
        record.rerun_work_seconds += rerun_work_seconds
        for job_id in job_ids:
            self._open[job_id] = (record, at)

    def job_recovered(self, job_id: str, at: float) -> None:
        """A displaced job is running (or finished) again."""
        entry = self._open.pop(job_id, None)
        if entry is None:
            return
        record, _detected = entry
        record.recovery_seconds[job_id] = at - record.time

    # -- queries -------------------------------------------------------

    def summary(self) -> FaultSummary:
        crashes = [r for r in self.records if r.kind == "machine_crash"]
        detections = [r.detection_seconds for r in crashes
                      if r.detection_seconds is not None]
        recoveries = [seconds for r in crashes
                      for seconds in r.recovery_seconds.values()]
        return FaultSummary(
            n_crashes=len(crashes),
            n_slowdowns=sum(1 for r in self.records
                            if r.kind == "machine_slowdown"),
            n_drops=sum(1 for r in self.records
                        if r.kind == "network_drop"),
            lost_iterations=sum(r.lost_iterations for r in self.records),
            rerun_work_seconds=sum(r.rerun_work_seconds
                                   for r in self.records),
            mean_detection_seconds=(sum(detections) / len(detections)
                                    if detections else 0.0),
            mean_recovery_seconds=(sum(recoveries) / len(recoveries)
                                   if recoveries else 0.0),
            max_recovery_seconds=max(recoveries, default=0.0),
            unrecovered_jobs=len(self._open))
