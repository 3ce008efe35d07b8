"""Master-side health monitoring (heartbeat failure detection).

Real Harmony masters cannot observe a crash directly: they notice that
a worker's heartbeats stopped.  :class:`HealthMonitor` models exactly
that — every machine beats while alive; a silenced machine is declared
dead once its last beat is older than ``timeout`` at a polling tick,
and the master's crash-recovery path is invoked with that detection
latency already paid.  Detection is therefore part of the measured
recovery time, as it is in production.
"""

from __future__ import annotations

import math

from repro.cluster.cluster import Cluster
from repro.errors import SimulationError
from repro.metrics.faults import FaultLog, FaultRecord
from repro.sim import Simulator


class HealthMonitor:
    """Polls heartbeats on the simulator clock and reports dead
    machines to the master."""

    def __init__(self, sim: Simulator, cluster: Cluster, master,
                 interval: float = 30.0, timeout: float = 90.0,
                 log: FaultLog | None = None):
        if not (0 < interval < math.inf and 0 < timeout < math.inf):
            raise SimulationError(
                f"heartbeat interval/timeout must be positive and finite "
                f"(got {interval}/{timeout})")
        self.sim = sim
        self.cluster = cluster
        self.master = master
        self.interval = interval
        self.timeout = timeout
        self.log = log
        self._last_beat: dict[int, float] = {
            m.machine_id: sim.now for m in cluster.machines}
        self._silenced: dict[int, FaultRecord | None] = {}
        self._reported: set[int] = set()
        self._process = None
        self.detections = 0

    # -- injector interface --------------------------------------------

    def silence(self, machine_id: int,
                record: FaultRecord | None = None) -> None:
        """The machine died: its heartbeats stop from now on."""
        self._silenced[machine_id] = record

    def revive(self, machine_id: int) -> None:
        """The machine is back: heartbeats resume immediately."""
        self._silenced.pop(machine_id, None)
        self._reported.discard(machine_id)
        self._last_beat[machine_id] = self.sim.now

    # -- the monitoring loop -------------------------------------------

    def start(self) -> None:
        if self._process is not None:
            raise SimulationError("health monitor already started")
        self._process = self.sim.spawn(self._run(), name="health-monitor")

    def stop(self) -> None:
        if self._process is not None and self._process.alive:
            self._process.kill()
        self._process = None

    def _run(self):
        t0 = self.sim.now
        tick = 0
        while True:
            # k-th sweep at t0 + k * interval in closed form — the
            # accumulated ``now + interval`` alternative drifts off the
            # exact boundary after enough sweeps (see sim.Simulator.at).
            tick += 1
            yield self.sim.at(t0 + tick * self.interval)
            now = self.sim.now
            for machine_id in self._last_beat:
                if machine_id not in self._silenced:
                    self._last_beat[machine_id] = now
            for machine_id, record in list(self._silenced.items()):
                if machine_id in self._reported:
                    continue
                if now - self._last_beat[machine_id] < self.timeout:
                    continue
                self._reported.add(machine_id)
                self.detections += 1
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.counter("faults.detected").add(1)
                    tracer.instant(
                        "fault-detected", cat="fault",
                        args={"machine": machine_id,
                              "latency": now - self._last_beat[machine_id]})
                if self.log is not None and record is not None:
                    self.log.crash_detected(record, at=now)
                self.master.inject_machine_failure(machine_id,
                                                   fault_record=record)
