"""Harmony core: the paper's contribution.

Subtask-based execution (§IV-A), profiling + performance model +
scheduling algorithm (§IV-B), dynamic data reloading (§IV-C), and the
master/runtime that ties them together (§III).
"""

from repro.core.job import Job, JobState
from repro.core.perfmodel import GroupEstimate, PerfModel, UtilizationVector
from repro.core.profiler import JobMetrics, Profiler
from repro.core.runtime import HarmonyRuntime, JobOutcome, RunResult
from repro.core.scheduler import GroupPlan, HarmonyScheduler, SchedulePlan
from repro.core.subtask import SubTaskKind

__all__ = [
    "GroupEstimate",
    "GroupPlan",
    "HarmonyScheduler",
    "HarmonyRuntime",
    "Job",
    "JobMetrics",
    "JobOutcome",
    "JobState",
    "RunResult",
    "PerfModel",
    "Profiler",
    "SchedulePlan",
    "SubTaskKind",
    "UtilizationVector",
]
