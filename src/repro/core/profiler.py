"""Runtime profiling (§IV-B1).

"Harmony monitors each job j in each group g and collects runtime
metrics which consists of the average execution times of CPU and
Network subtasks and the number of machines allocated to the group
(T_cpu_j, T_net_j, m_g) ... the profiled metrics of subtasks can be
meaningfully reused, while being updated using moving averages."

CPU measurements taken at different DoPs are made comparable by
normalizing to *CPU work* ``W = T_cpu * m`` (Eq. 2), so the moving
average remains meaningful across regroupings.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from math import inf

from repro.errors import SchedulingError


@dataclass(frozen=True)
class JobMetrics:
    """The scheduler's view of one job: profiled averages.

    ``cpu_work`` is machine-seconds per iteration; ``t_net`` is the sum
    of PULL and PUSH subtask seconds (DoP-independent, §IV-B2).
    """

    job_id: str
    cpu_work: float
    t_net: float
    #: DoP at which the job was last observed.
    m_observed: int
    samples: int = 1

    def t_cpu_at(self, m: int) -> float:
        """Predicted COMP time on ``m`` machines (Eq. 2)."""
        if m < 1:
            raise SchedulingError(f"DoP must be >= 1, got {m}")
        return self.cpu_work / m

    def t_iteration_at(self, m: int) -> float:
        """Predicted solo iteration time on ``m`` machines."""
        return self.t_cpu_at(m) + self.t_net

    def comp_comm_ratio_at(self, m: int) -> float:
        """Computation / communication ratio used by the similar-job
        search of §IV-B4."""
        if self.t_net <= 0:
            return float("inf")
        return self.t_cpu_at(m) / self.t_net


#: Callback invoked as ``listener(job_id)`` whenever a job's moving
#: averages change.
MetricsListener = Callable[[str], None]


class Profiler:
    """Moving-average store of per-job metrics.

    The profiler is the single source of truth the scheduler's caches
    key on: every publish replaces the job's :class:`JobMetrics` and
    notifies the registered listeners.  Nothing in the package listens:
    the master works out group estimates from the current metrics when
    it needs one, and plan caches store the metrics each entry was
    computed from and compare them on read, so a replaced
    :class:`JobMetrics` can never be served a stale plan or estimate.
    """

    def __init__(self, ema_alpha: float = 0.3):
        if not 0.0 < ema_alpha <= 1.0:
            raise SchedulingError(f"ema_alpha {ema_alpha} not in (0, 1]")
        self.ema_alpha = ema_alpha
        # The local runtime's worker threads call record_iteration
        # concurrently (one per worker per epoch); the read-modify-write
        # EMA fold must be atomic or folds are lost.  RLock because
        # _publish runs under the same lock.
        self._lock = threading.RLock()
        self._metrics: dict[str, JobMetrics] = {}
        self._listeners: list[MetricsListener] = []

    def add_listener(self, listener: MetricsListener) -> None:
        """Subscribe to metric updates (cache-invalidation hook)."""
        with self._lock:
            self._listeners.append(listener)

    def _publish(self, job_id: str) -> None:
        # Called with the lock held: listeners are fast cache
        # invalidations and must observe the metrics change they are
        # being notified about atomically.
        for listener in self._listeners:
            listener(job_id)

    # -- recording ---------------------------------------------------------

    def record_iteration(self, job_id: str, t_cpu: float, t_net: float,
                         m: int) -> JobMetrics:
        """Fold one measured iteration into the job's moving averages.

        ``t_cpu``/``t_net`` are the measured COMP / total-COMM subtask
        durations of the iteration; ``m`` is the group's machine count.
        """
        # Stated positively so NaN fails too.
        if not (0.0 <= t_cpu < inf and 0.0 <= t_net < inf):
            raise SchedulingError(
                f"measured durations for {job_id} must be finite and "
                f">= 0, got t_cpu={t_cpu}, t_net={t_net}")
        if m < 1:
            raise SchedulingError(f"DoP must be >= 1, got {m}")
        work = t_cpu * m
        with self._lock:
            current = self._metrics.get(job_id)
            if current is None:
                updated = JobMetrics(job_id=job_id, cpu_work=work,
                                     t_net=t_net, m_observed=m,
                                     samples=1)
            else:
                # Bias-corrected EMA: with a plain EMA the first
                # observation enters with full weight, so one iteration
                # measured at an atypical DoP (or hit by a straggler)
                # skews the average for the job's whole lifetime.
                # Scaling the step by 1 / (1 - (1-a)^t) makes the first
                # few samples an ordinary arithmetic mean that smoothly
                # turns into the steady-state EMA — the moving average
                # §IV-B1 intends.
                a = self.ema_alpha
                samples = current.samples + 1
                if a < 1.0:
                    a = a / (1.0 - (1.0 - a) ** samples)
                updated = JobMetrics(
                    job_id=job_id,
                    cpu_work=(1 - a) * current.cpu_work + a * work,
                    t_net=(1 - a) * current.t_net + a * t_net,
                    m_observed=m,
                    samples=samples)
            self._metrics[job_id] = updated
            self._publish(job_id)
            return updated

    # -- queries -----------------------------------------------------------

    def has(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._metrics

    def get(self, job_id: str) -> JobMetrics:
        with self._lock:
            metrics = self._metrics.get(job_id)
        if metrics is None:
            raise SchedulingError(f"job {job_id} has not been profiled")
        return metrics

    def profiled(self, job_ids: Iterable[str]) -> list[JobMetrics]:
        """The metrics of the profiled ids among ``job_ids``, in order,
        read under one lock acquisition."""
        with self._lock:
            known = self._metrics
            return [known[job_id] for job_id in job_ids
                    if job_id in known]
