"""Job lifecycle: the state machine of §III.

A submitted job moves through ``WAITING -> PROFILING -> PROFILED ->
RUNNING`` and may bounce between ``RUNNING`` and ``PAUSED`` as the
scheduler regroups, until it reaches ``FINISHED`` (model convergence)
or ``FAILED`` (e.g. an OOM under a baseline scheduler).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import JobStateError
from repro.workloads.apps import JobSpec


class JobState(enum.Enum):
    """States of Fig. 6 / §III."""

    WAITING = "waiting"
    PROFILING = "profiling"
    PROFILED = "profiled"
    RUNNING = "running"
    PAUSED = "paused"
    FINISHED = "finished"
    FAILED = "failed"


#: Legal transitions of the job state machine.
_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.WAITING: frozenset({JobState.PROFILING}),
    # A very short job can converge, be paused by a rebuild, or fail
    # while still being profiled.
    JobState.PROFILING: frozenset({JobState.PROFILED, JobState.RUNNING,
                                   JobState.PAUSED, JobState.FINISHED,
                                   JobState.FAILED}),
    JobState.PROFILED: frozenset({JobState.RUNNING, JobState.PAUSED,
                                  JobState.FINISHED, JobState.FAILED}),
    JobState.RUNNING: frozenset({JobState.PAUSED, JobState.FINISHED,
                                 JobState.FAILED}),
    # PAUSED -> PROFILING covers jobs whose profiling was interrupted by
    # a regrouping before enough iterations were measured.
    JobState.PAUSED: frozenset({JobState.RUNNING, JobState.PROFILING,
                                JobState.FAILED}),
    JobState.FINISHED: frozenset(),
    JobState.FAILED: frozenset(),
}


@dataclass
class Job:
    """Mutable runtime record of one submitted job."""

    spec: JobSpec
    state: JobState = JobState.WAITING
    #: Iterations still needed for convergence.
    remaining_iterations: int = field(default=0)
    #: Current disk-block ratio (alpha_j of §IV-C).
    alpha: float = 0.0
    #: Whether the model-data spill fallback is active (§IV-C, §V-G).
    model_spilled: bool = False
    #: Id of the group the job currently belongs to (None when queued).
    group_id: str | None = None
    submit_time: float = 0.0
    finish_time: float | None = None
    #: Count of pause/migrate events the job went through.
    migrations: int = 0
    #: The spec's id, copied once: the master and the scheduler read it
    #: on every decision, and the spec is immutable.
    job_id: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.remaining_iterations == 0:
            self.remaining_iterations = self.spec.iterations
        self.submit_time = self.spec.submit_time
        self.job_id = self.spec.job_id

    # -- state machine -----------------------------------------------------

    def transition(self, new_state: JobState) -> None:
        """Move to ``new_state``; illegal transitions raise."""
        if new_state not in _TRANSITIONS[self.state]:
            raise JobStateError(
                f"job {self.job_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}")
        self.state = new_state

    @property
    def is_done(self) -> bool:
        return self.state in (JobState.FINISHED, JobState.FAILED)

    def complete_iteration(self) -> bool:
        """Record one finished iteration; True if the job converged."""
        if self.remaining_iterations <= 0:
            raise JobStateError(
                f"job {self.job_id} iterated past convergence")
        self.remaining_iterations -= 1
        return self.remaining_iterations == 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Job {self.job_id} {self.state.value} "
                f"left={self.remaining_iterations}>")
