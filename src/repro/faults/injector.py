"""Applies a :class:`~repro.faults.plan.FaultPlan` to a live simulation.

The injector schedules every planned event on the simulator clock and
translates it into the cluster model's terms:

* **machine crash** — the machine leaves service (failure ledger) and
  its heartbeats stop; the :class:`~repro.faults.monitor.HealthMonitor`
  detects the silence and triggers the master's crash-recovery path
  (checkpoint rollback → regroup on survivors → resume).  After the
  event's ``duration`` the machine is repaired and rejoins the pool.
  A downtime shorter than the heartbeat timeout goes undetected — a
  blip the master never reacts to, exactly as with real heartbeats.
* **machine slowdown** — the hosting group's COMP subtasks stretch by
  ``severity`` for ``duration`` seconds (lockstep workers advance at
  the straggler's pace).
* **network drop** — the hosting group's COMM subtasks stretch by
  ``severity`` for ``duration`` seconds (retransmissions).

Every applied event lands in the run's :class:`FaultLog` so recovery
time, lost iterations, and re-run work can be reported.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.errors import SimulationError
from repro.faults.monitor import HealthMonitor
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.metrics.faults import FaultLog, FaultRecord
from repro.sim import Simulator


class FaultInjector:
    """Binds a fault plan to a simulator / cluster / master triple."""

    def __init__(self, sim: Simulator, cluster: Cluster, master,
                 monitor: HealthMonitor, plan: FaultPlan, log: FaultLog):
        self.sim = sim
        self.cluster = cluster
        self.master = master
        self.monitor = monitor
        self.plan = plan
        self.log = log
        self._installed = False
        #: Crash repairs scheduled but not yet applied — the runtime's
        #: stall watchdog waits for these before declaring a deadlock.
        self.pending_repairs = 0
        self._trace = sim.tracer

    def install(self) -> None:
        """Schedule every planned event; call once, before running."""
        if self._installed:
            raise SimulationError("fault plan already installed")
        self._installed = True
        for event in self.plan:
            if not 0 <= event.machine_id < self.cluster.size:
                raise SimulationError(
                    f"fault targets unknown machine {event.machine_id} "
                    f"(cluster has {self.cluster.size})")
            self.sim.call_at(event.time,
                             lambda e=event: self._apply(e))

    # -- event application ---------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        if event.kind is FaultKind.MACHINE_CRASH:
            self._apply_crash(event)
        else:  # a slowdown stretches COMP, a network drop COMM
            self._apply_window(
                event, cpu=event.kind is FaultKind.MACHINE_SLOWDOWN)

    def _record(self, event: FaultEvent) -> FaultRecord:
        if self._trace is not None:
            self._trace.counter("faults.injected").add(1)
            self._trace.instant(
                event.kind.value, cat="fault",
                args={"machine": event.machine_id,
                      "severity": event.severity,
                      "duration": event.duration})
        return self.log.fault_injected(FaultRecord(
            time=self.sim.now, kind=event.kind.value,
            machine_id=event.machine_id, duration=event.duration,
            severity=event.severity))

    def _apply_crash(self, event: FaultEvent) -> None:
        record = self._record(event)
        self.cluster.mark_failed(event.machine_id)
        self.monitor.silence(event.machine_id, record)
        if event.duration > 0:
            self.pending_repairs += 1
            self.sim.call_in(event.duration,
                             lambda: self._repair(event.machine_id))

    def _repair(self, machine_id: int) -> None:
        self.pending_repairs -= 1
        if self._trace is not None:
            self._trace.counter("faults.repaired").add(1)
            self._trace.instant("repair", cat="fault",
                                args={"machine": machine_id})
        self.cluster.restore_machine(machine_id)
        self.monitor.revive(machine_id)
        self.master.machine_repaired(machine_id)

    def _apply_window(self, event: FaultEvent, cpu: bool) -> None:
        record = self._record(event)
        group = self._owning_group(event.machine_id)
        if group is None or event.duration <= 0:
            return  # free machine: the fault strikes idle hardware
        record.group_id = group.group_id
        record.job_ids = group.job_ids
        factor = event.severity
        if cpu:
            group.apply_cpu_slowdown(factor)
            clear = lambda: group.clear_cpu_slowdown(factor)  # noqa: E731
        else:
            group.apply_net_penalty(factor)
            clear = lambda: group.clear_net_penalty(factor)  # noqa: E731
        self.sim.call_in(event.duration, clear)

    def _owning_group(self, machine_id: int):
        owner = self.cluster.owner_of(machine_id)
        if owner is None:
            return None
        return self.master.groups.get(owner)
