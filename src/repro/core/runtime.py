"""End-to-end runs on the simulated cluster.

:class:`RuntimeBase` wires a simulator, a cluster and a master
together, submits a workload, runs it to completion, and returns a
:class:`RunResult` with everything the evaluation section measures:
per-job JCTs, makespan, utilization timelines, group shapes, alpha
statistics, and the performance model's prediction errors.
:class:`HarmonyRuntime` runs it under the
:class:`~repro.core.master.HarmonyMaster`; the queue-policy runtimes
(:mod:`repro.baselines.base`) run it under their own master.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.cluster.cluster import Cluster
from repro.config import DEFAULT_SIM_CONFIG, SimConfig
from repro.core.job import JobState
from repro.core.master import GateCounts, HarmonyMaster, MasterBase
from repro.core.perfmodel import PerfModel
from repro.errors import SimulationError
from repro.metrics.faults import FaultLog
from repro.metrics.timeline import Timeline
from repro.metrics.utilization import ClusterUsageRecorder
from repro.sim import FastpathStats, RandomStreams, Simulator
from repro.trace.tracer import Tracer
from repro.workloads.apps import JobSpec
from repro.workloads.costmodel import CostModel


@dataclass
class JobOutcome:
    """Terminal record of one job."""

    job_id: str
    state: JobState
    submit_time: float
    finish_time: float | None
    migrations: int

    @property
    def jct(self) -> float | None:
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time


@dataclass
class RunResult:
    """Everything measured during one scheduler run."""

    scheduler_name: str
    total_machines: int
    outcomes: dict[str, JobOutcome]
    recorder: ClusterUsageRecorder
    migration_overhead_seconds: float = 0.0
    group_shape_log: list[tuple[float, int, int]] = field(
        default_factory=list)
    #: Every CycleRecord observed across all groups, in no fixed order.
    _all_cycles: list = field(default_factory=list, repr=False)
    alpha_samples: list[float] = field(default_factory=list)
    gc_seconds: float = 0.0
    stall_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: Recovery accounting when a fault plan was injected (else None).
    fault_log: FaultLog | None = None
    #: The run's tracer when tracing was enabled (else None); feed it
    #: to :func:`repro.trace.write_chrome_trace` for a Perfetto view.
    trace: Tracer | None = None
    #: The simulator's fast-path engagement counters at the end of the
    #: run (all zero under ``engine="reference"``).
    fastpath: FastpathStats = field(default_factory=FastpathStats)
    #: How the master's regroup gates decided (None for masters
    #: without them).
    gates: GateCounts | None = None

    # -- headline numbers -------------------------------------------------

    @property
    def finished(self) -> list[JobOutcome]:
        return [o for o in self.outcomes.values()
                if o.state is JobState.FINISHED]

    @property
    def failed(self) -> list[JobOutcome]:
        return [o for o in self.outcomes.values()
                if o.state is JobState.FAILED]

    @property
    def jcts(self) -> list[float]:
        return [o.jct for o in self.finished if o.jct is not None]

    @property
    def mean_jct(self) -> float:
        jcts = self.jcts
        if not jcts:
            raise SimulationError("no finished jobs to average")
        return float(np.mean(jcts))

    @property
    def makespan(self) -> float:
        """Completion of the last job, from the first submission."""
        finished = self.finished
        if not finished:
            raise SimulationError("no finished jobs: makespan undefined")
        start = min(o.submit_time for o in self.outcomes.values())
        return max(o.finish_time for o in finished) - start

    # -- utilization ---------------------------------------------------------

    def utilization_timeline(self, which: str) -> Timeline:
        return self.recorder.utilization_timeline(which, self.makespan)

    def average_utilization(self, which: str) -> float:
        return self.recorder.average_utilization(which, self.makespan)

    # -- model accuracy (Fig. 13b) ----------------------------------------------

    def prediction_errors(self) -> dict[str, list[float]]:
        t_errors = []
        u_errors = []
        for decision in self.recorder.decisions:
            t_error = decision.t_group_error()
            if t_error is not None:
                t_errors.append(t_error)
            u_error = decision.u_error()
            if u_error is not None:
                u_errors.append(u_error)
        return {"t_group": t_errors, "utilization": u_errors}

    # -- concurrency (§V-C's "27.2 concurrent jobs ... 6.7 job groups") -------

    def mean_concurrent_jobs(self) -> float:
        """Time-average number of actively iterating jobs.

        Each completed cycle occupies one job for its duration, so the
        mean concurrency is the total cycle time divided by the makespan.
        """
        total_cycle_seconds = sum(
            c.duration for c in self._all_cycles)
        span = self.makespan
        return total_cycle_seconds / span if span > 0 else 0.0

    def mean_concurrent_groups(self) -> float:
        """Time-average number of live job groups."""
        total_group_seconds = sum(
            usage.t_end - usage.t_start
            for usage in self.recorder.finished_groups)
        span = self.makespan
        return total_group_seconds / span if span > 0 else 0.0

    def summary(self) -> str:
        fp = self.fastpath
        lines = [
            f"scheduler={self.scheduler_name}",
            f"jobs: {len(self.finished)} finished, {len(self.failed)} "
            f"failed, {len(self.outcomes)} total",
            f"mean JCT: {self.mean_jct / 60:.1f} min",
            f"makespan: {self.makespan / 60:.1f} min",
            f"avg CPU util: {self.average_utilization('cpu'):.1%}",
            f"avg net util: {self.average_utilization('net'):.1%}",
            f"fast path: {fp.solo_batches} solo batches, "
            f"{fp.wakes_served} wakes in {fp.drive_windows} drive windows",
        ]
        if self.gates is not None:
            lines.append(self.gates.describe())
        if self.fault_log is not None and self.fault_log.records:
            s = self.fault_log.summary()
            lines.append(
                f"faults: {s.n_crashes} crashes / {s.n_slowdowns} "
                f"slowdowns / {s.n_drops} drops; "
                f"{s.lost_iterations} iterations lost, mean recovery "
                f"{s.mean_recovery_seconds / 60:.1f} min")
        return "\n".join(lines)


class RuntimeBase:
    """One experiment on the simulated cluster: workload in, RunResult
    out.

    Owns what every master's run shares: the simulator (with a tracer
    when ``config.trace`` is enabled), the cluster, the cost model, the
    RNG streams and the usage recorder; submitting the workload,
    driving the simulation and collecting the result.  A subclass sets
    ``self.master`` and may schedule its own processes in
    :meth:`_install`.
    """

    master: MasterBase

    def __init__(self, n_machines: int, workload: Sequence[JobSpec],
                 config: SimConfig, cost_model: CostModel | None,
                 name: str):
        self.config = config
        self.sim = Simulator()
        if config.trace.enabled:
            # The tracer timestamps off the simulation clock; installed
            # before the master/groups so they see it.
            self.sim.tracer = Tracer(self.sim.clock(), config.trace)
        self.cluster = Cluster(n_machines, config.machine)
        self.cost_model = cost_model if cost_model is not None \
            else CostModel(config.machine)
        self.streams = RandomStreams(config.seed)
        self.recorder = ClusterUsageRecorder(n_machines)
        self.workload = list(workload)
        self.name = name
        #: Recovery accounting when a fault plan was injected (else None).
        self.fault_log: FaultLog | None = None

    def _install(self) -> None:
        """Schedule processes beyond the submissions (none by default);
        runs right after the submissions are queued."""

    def run(self, max_sim_seconds: float | None = None) -> RunResult:
        """Submit the workload and simulate until every job terminates,
        or until the clock reaches ``max_sim_seconds``."""
        # harmony: allow[DET001] wall_seconds measures real runtime of run() itself
        wall_start = time.perf_counter()
        truncated = max_sim_seconds is not None
        for spec in self.workload:
            self.sim.call_at(spec.submit_time,
                             lambda s=spec: self.master.submit(s))
        self._install()
        self.sim.run(until=max_sim_seconds)

        stuck = [job for job in self.master.jobs.values()
                 if not job.is_done]
        if stuck and not truncated:
            states = {job.job_id: job.state.value for job in stuck[:10]}
            raise SimulationError(
                f"{self.name}: simulation drained with {len(stuck)} "
                f"unfinished jobs (first few: {states})")

        # Collect per-job outcomes and close open groups (only a
        # truncated run leaves any).
        all_cycles = list(self.master.finished_cycles)
        for group in self.master.groups.values():
            all_cycles.extend(group.cycles)
            group.record_levels()
        self.recorder.finish(self.sim.now)

        outcomes = {
            job.job_id: JobOutcome(job_id=job.job_id, state=job.state,
                                   submit_time=job.submit_time,
                                   finish_time=job.finish_time,
                                   migrations=job.migrations)
            for job in self.master.jobs.values()}
        return RunResult(
            scheduler_name=self.name,
            total_machines=self.cluster.size,
            outcomes=outcomes,
            recorder=self.recorder,
            migration_overhead_seconds=(
                self.master.migration_overhead_seconds),
            group_shape_log=list(self.master.group_shape_log),
            _all_cycles=all_cycles,
            alpha_samples=[c.alpha for c in all_cycles],
            gc_seconds=sum(c.gc_overhead for c in all_cycles),
            stall_seconds=sum(c.stall for c in all_cycles),
            # harmony: allow[DET001] wall_seconds measures real runtime of run() itself
            wall_seconds=time.perf_counter() - wall_start,
            fault_log=self.fault_log,
            trace=self.sim.tracer,
            fastpath=replace(self.sim.fastpath_stats),
            gates=self.master.gate_counts())


class HarmonyRuntime(RuntimeBase):
    """One Harmony experiment: workload in, RunResult out."""

    master: HarmonyMaster

    def __init__(self, n_machines: int, workload: Sequence[JobSpec],
                 config: SimConfig = DEFAULT_SIM_CONFIG,
                 perf_model: PerfModel | None = None,
                 cost_model: CostModel | None = None,
                 scheduler_factory=None,
                 scheduler_name: str = "harmony",
                 failure_times: Sequence[float] | None = None,
                 fault_plan=None):
        super().__init__(n_machines, workload, config, cost_model,
                         name=scheduler_name)
        self.fault_log = FaultLog() if fault_plan is not None else None
        self.master = HarmonyMaster(self.sim, self.cluster,
                                    self.cost_model, config, self.streams,
                                    self.recorder, perf_model=perf_model,
                                    scheduler_factory=scheduler_factory,
                                    fault_log=self.fault_log)
        self.failure_times = sorted(failure_times or [])
        for when in self.failure_times:
            if not (math.isfinite(when) and when >= 0.0):
                raise ValueError(
                    f"failure time {when!r} must be finite and >= 0")
        self.fault_plan = fault_plan
        self.monitor = None
        self.injector = None
        if fault_plan is not None:
            from repro.faults.injector import FaultInjector
            from repro.faults.monitor import HealthMonitor
            self.monitor = HealthMonitor(self.sim, self.cluster, self.master,
                                         log=self.fault_log)
            self.injector = FaultInjector(self.sim, self.cluster,
                                          self.master, self.monitor,
                                          fault_plan, log=self.fault_log)

    def _fail_random_machine(self) -> None:
        """Kill a uniformly chosen allocated machine (§VI failures)."""
        rng = self.streams.stream("machine-failures")
        allocated = [m.machine_id for m in self.cluster.machines
                     if self.cluster.owner_of(m.machine_id) is not None]
        if not allocated:
            return  # nothing running; the failure hits a free machine
        victim = int(allocated[rng.integers(0, len(allocated))])
        self.master.inject_machine_failure(victim)

    def _pacer(self):
        """Drives the master's periodic utilization check (§IV-B2) until
        the whole workload has been submitted and has terminated.

        Also the deadlock watchdog: if nothing is executing and nothing
        can start (e.g. a job that fits on no machine count), the pacer
        stops instead of keeping the simulation alive forever; run()
        then reports the stuck jobs loudly.
        """
        interval = self.config.scheduler.reschedule_check_seconds
        total = len(self.workload)
        t0 = self.sim.now
        tick = 0
        try:
            while True:
                # Closed form, not ``now + interval``: accumulating the
                # float sum drifts the k-th tick off ``t0 + k * dt``,
                # so long runs' check times would disagree between
                # engines (and with Eq. 1 timeline predictions).
                tick += 1
                yield self.sim.at(t0 + tick * interval)
                self.master.periodic_check()
                if len(self.master.jobs) >= total and self.master.all_done:
                    return
                if (len(self.master.jobs) >= total
                        and not self.master.groups
                        and self.master._rebuild is None
                        and not self._recovery_pending()):
                    # Everything submitted, nothing running, and the pump
                    # could not place anything: give up rather than spin.
                    return
        finally:
            # The heartbeat loop would otherwise keep the event queue
            # alive forever once the workload has terminated.
            if self.monitor is not None:
                self.monitor.stop()

    def _recovery_pending(self) -> bool:
        """Whether crashed machines will still come back and unblock
        paused jobs (don't declare a stall during a downtime window).
        Permanently failed machines (no scheduled repair) don't count."""
        return (self.injector is not None
                and self.injector.pending_repairs > 0)

    def _install(self) -> None:
        for when in self.failure_times:
            self.sim.call_at(when, self._fail_random_machine)
        if self.injector is not None:
            self.injector.install()
            self.monitor.start()
        self.sim.spawn(self._pacer(), name="periodic-reschedule")

    def run(self, max_sim_seconds: float | None = None) -> RunResult:
        """Submit the workload and simulate until every job terminates,
        or until the clock reaches ``max_sim_seconds``."""
        # Defined on this class, not only inherited, so that tools that
        # patch ``HarmonyRuntime.run`` in the class dict (the host-clock
        # span recorder in benchmarks/perf/spans.py) keep finding it.
        return super().run(max_sim_seconds)
