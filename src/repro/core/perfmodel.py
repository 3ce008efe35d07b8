"""The performance model of co-located jobs (§IV-B2, Eqs. 1–4).

Given profiled metrics, predicts the group iteration time::

    T_g_itr = max( Σ_j T_cpu_j ,  Σ_j T_net_j ,  max_j T_itr_j )      (1)

covering the CPU-bound, network-bound, and job-bound cases of Fig. 8,
with ``T_cpu_j ∝ 1/m_g`` (2); the per-group utilization vector::

    U(g) = [ Σ T_cpu / T_g_itr ,  Σ T_net / T_g_itr ]                 (3)

and the machine-weighted cluster utilization::

    U = Σ_g m_g · U(g) / Σ_g m_g                                      (4)

An optional *error injector* perturbs predictions — used by the Fig. 13a
sensitivity study ("we simulate the execution with different error
levels").
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from operator import add

from repro.core.profiler import JobMetrics
from repro.errors import SchedulingError

#: Called as ``injector(kind, job_id)`` with kind in {"t_cpu", "t_net"};
#: returns a multiplicative perturbation applied to that job's predicted
#: quantity.  Per-job perturbations are what actually mislead the
#: scheduler — a uniform scale factor cancels out of every comparison.
ErrorInjector = Callable[[str, str], float]

#: CPU utilization is weighted more than network utilization when
#: comparing candidate schedules: "CPU resources directly contribute to
#: the job progress" (§IV-B2).
CPU_WEIGHT = 0.75


@dataclass(frozen=True)
class UtilizationVector:
    """CPU / network utilization pair (Eq. 3 / Eq. 4)."""

    cpu: float
    net: float

    def __iter__(self):
        yield self.cpu
        yield self.net


#: Eq. 4's per-group terms of a plan, each in group order: machine
#: counts, ``m·U_cpu`` and ``m·U_net`` (:meth:`PerfModel.utilization_terms`).
UtilizationTerms = tuple[tuple[int, ...], tuple[float, ...],
                         tuple[float, ...]]


@dataclass(frozen=True)
class GroupEstimate:
    """Model predictions for one candidate job group."""

    job_ids: tuple[str, ...]
    m: int
    t_cpu_sum: float
    t_net_sum: float
    t_itr_max: float
    #: Eq. 1.  Derived once at construction: every scored estimate
    #: reads it, and a ``cached_property`` would lock on first access.
    t_group_iteration: float = field(init=False, repr=False, compare=False)
    #: Eq. 3.
    utilization: UtilizationVector = field(init=False, repr=False,
                                           compare=False)
    #: This group's Eq. 4 terms: ``(m, m·U_cpu, m·U_net)``.
    terms: tuple[int, float, float] = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        t_g = max(self.t_cpu_sum, self.t_net_sum, self.t_itr_max)
        object.__setattr__(self, "t_group_iteration", t_g)
        utilization = UtilizationVector(0.0, 0.0) if t_g <= 0 else \
            UtilizationVector(cpu=self.t_cpu_sum / t_g,
                              net=self.t_net_sum / t_g)
        object.__setattr__(self, "utilization", utilization)
        m = self.m
        object.__setattr__(self, "terms", (m, m * utilization.cpu,
                                           m * utilization.net))

    @property
    def bound_case(self) -> str:
        """Which of the Fig. 8 cases dominates: 'cpu', 'net', or 'job'."""
        t_g = self.t_group_iteration
        # harmony: allow[DET006] t_g is by construction exactly one of these maxima
        if t_g == self.t_cpu_sum:
            return "cpu"
        # harmony: allow[DET006] t_g is by construction exactly one of these maxima
        if t_g == self.t_net_sum:
            return "net"
        return "job"


class PerfModel:
    """Predicts group/cluster performance from profiled metrics."""

    def __init__(self, error_injector: ErrorInjector | None = None):
        self._injector = error_injector

    # -- per-group predictions ----------------------------------------------

    def estimate_group(self, metrics: Sequence[JobMetrics],
                       m: int) -> GroupEstimate:
        """Predictions for co-locating ``metrics``'s jobs on ``m``
        machines."""
        if m < 1:
            raise SchedulingError(f"group DoP must be >= 1, got {m}")
        if not metrics:
            raise SchedulingError("cannot estimate an empty group")
        # ``cpu_work / m`` is ``JobMetrics.t_cpu_at(m)`` (Eq. 2), whose
        # DoP check the one above already made.
        if self._injector is None:
            t_cpus = [job.cpu_work / m for job in metrics]
            t_nets = [job.t_net for job in metrics]
        else:
            t_cpus = [job.cpu_work / m * self._injector("t_cpu", job.job_id)
                      for job in metrics]
            t_nets = [job.t_net * self._injector("t_net", job.job_id)
                      for job in metrics]
        return GroupEstimate(
            job_ids=tuple([job.job_id for job in metrics]),
            m=m,
            t_cpu_sum=sum(t_cpus),
            t_net_sum=sum(t_nets),
            t_itr_max=max(map(add, t_cpus, t_nets)))

    def job_factors(self, kind: str, job_ids: Sequence[str]) -> list[float]:
        """The error injector's factor on ``kind`` ("t_cpu" or "t_net")
        per job: the multiplier :meth:`estimate_group` applies, and 1.0
        without an injector (``x * 1.0 == x`` bit for bit)."""
        if self._injector is None:
            return [1.0] * len(job_ids)
        return [self._injector(kind, job_id) for job_id in job_ids]

    # -- cluster-level aggregation --------------------------------------------

    def cluster_utilization(self, groups: Sequence[GroupEstimate],
                            total_machines: int | None = None) -> \
            UtilizationVector:
        """Eq. 4: machine-weighted average utilization over job groups.

        When ``total_machines`` is given, unallocated machines count as
        idle — stricter than the paper's Eq. 4 (which averages over
        groups only) and what a cluster operator actually measures.
        """
        if not groups:
            return UtilizationVector(0.0, 0.0)
        return self.utilization_from_terms(
            *self.utilization_terms(groups), total_machines=total_machines)

    @staticmethod
    def utilization_terms(groups: Sequence[GroupEstimate]) -> \
            UtilizationTerms:
        """Eq. 4's per-group terms, in group order: ``m``, ``m·U_cpu``
        and ``m·U_net``."""
        if not groups:
            return (), (), ()
        return tuple(zip(*[g.terms for g in groups]))

    @staticmethod
    def utilization_from_terms(machines: Iterable[int],
                               cpu: Iterable[float], net: Iterable[float],
                               total_machines: int | None = None) -> \
            UtilizationVector:
        """Eq. 4 from :meth:`utilization_terms` (possibly of several
        plans, concatenated): the ``m·U`` sums over the machine count,
        which is ``total_machines`` when given and ``Σ m`` otherwise."""
        weight_sum = sum(machines)
        denominator = total_machines if total_machines is not None \
            else weight_sum
        if denominator <= 0:
            raise SchedulingError("no machines to average over")
        if weight_sum > denominator:
            raise SchedulingError(
                f"groups use {weight_sum} machines, more than "
                f"{denominator} available")
        return UtilizationVector(sum(cpu) / denominator,
                                 sum(net) / denominator)

    def score(self, utilization: UtilizationVector) -> float:
        """Scalar objective used to compare candidate schedules: the
        :data:`CPU_WEIGHT`-weighted sum of CPU and network utilization."""
        return CPU_WEIGHT * utilization.cpu \
            + (1.0 - CPU_WEIGHT) * utilization.net
