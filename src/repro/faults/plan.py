"""Seeded fault plans for the cluster simulator.

A :class:`FaultPlan` is a deterministic, time-ordered list of fault
events — machine crashes, machine slowdowns (stragglers), and transient
network drops — generated from a seed through the simulation's named
random streams, so the same seed always reproduces the identical event
timeline (and therefore an identical simulated run).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.sim.rand import RandomStreams

#: How long a generated slowdown lasts, and its COMP stretch factor.
SLOWDOWN_SECONDS = 900.0
SLOWDOWN_SEVERITY = 3.0

#: How long a generated network drop lasts, and its COMM stretch factor.
DROP_SECONDS = 120.0
DROP_SEVERITY = 2.0


class FaultKind(enum.Enum):
    """The fault classes the injector knows how to apply."""

    #: The machine dies; its group crashes and the machine stays out of
    #: service for ``duration`` seconds before rejoining the pool.
    MACHINE_CRASH = "machine_crash"
    #: The machine straggles: every COMP subtask of the hosting group
    #: stretches by ``severity`` for ``duration`` seconds (lockstep
    #: workers advance at the slowest machine's pace).
    MACHINE_SLOWDOWN = "machine_slowdown"
    #: The machine's link drops packets: COMM subtasks of the hosting
    #: group stretch by ``severity`` (retransmits) for ``duration``
    #: seconds.
    NETWORK_DROP = "network_drop"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    time: float
    kind: FaultKind
    machine_id: int
    #: Window length (slowdown/drop) or machine downtime (crash).
    duration: float = 0.0
    #: Multiplicative slowdown of the affected subtasks (ignored for
    #: crashes).
    severity: float = 1.0

    def __post_init__(self) -> None:
        # Stated positively so that NaN fails too.
        if not 0.0 <= self.time < math.inf:
            raise SimulationError(
                f"fault time must be finite and >= 0, got {self.time}")
        if not 0.0 <= self.duration < math.inf:
            raise SimulationError(
                f"fault duration must be finite and >= 0, "
                f"got {self.duration}")
        if (self.kind is not FaultKind.MACHINE_CRASH
                and not 1.0 < self.severity < math.inf):
            raise SimulationError(
                f"{self.kind.value} severity must be finite and exceed "
                f"1.0 (got {self.severity})")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, time-ordered fault schedule."""

    events: tuple[FaultEvent, ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        times = [event.time for event in self.events]
        if times != sorted(times):
            object.__setattr__(
                self, "events",
                tuple(sorted(self.events, key=lambda e: e.time)))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def of_kind(self, kind: FaultKind) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind is kind)

    def describe(self) -> str:
        lines = [f"FaultPlan: {len(self.events)} events"
                 + (f" (seed {self.seed})" if self.seed is not None
                    else "")]
        for event in self.events:
            lines.append(
                f"  t={event.time:9.1f}s {event.kind.value:17s} "
                f"machine={event.machine_id} dur={event.duration:.0f}s "
                f"sev={event.severity:.1f}")
        return "\n".join(lines)

    # -- construction --------------------------------------------------

    @staticmethod
    def build(events: Iterable[FaultEvent],
              seed: int | None = None) -> "FaultPlan":
        return FaultPlan(events=tuple(events), seed=seed)

    @staticmethod
    def generate(seed: int, n_machines: int, horizon_seconds: float,
                 crash_rate_per_hour: float = 0.0,
                 slowdown_rate_per_hour: float = 0.0,
                 drop_rate_per_hour: float = 0.0,
                 crash_downtime_seconds: float = 1800.0) -> "FaultPlan":
        """A seeded Poisson fault schedule over ``[0, horizon_seconds)``.

        Each fault class arrives as an independent Poisson process
        (exponential inter-arrival at the given cluster-wide rate) and
        strikes a uniformly random machine.  Slowdowns and drops last
        and bite as :data:`SLOWDOWN_SECONDS`/:data:`SLOWDOWN_SEVERITY`
        and :data:`DROP_SECONDS`/:data:`DROP_SEVERITY` say.  All draws
        go through dedicated :class:`~repro.sim.rand.RandomStreams`
        streams, so the plan is a pure function of its arguments.
        """
        if n_machines < 1:
            raise SimulationError(f"need >= 1 machine, got {n_machines}")
        if not 0 < horizon_seconds < math.inf:
            raise SimulationError(
                f"horizon_seconds must satisfy 0 < horizon < inf, "
                f"got {horizon_seconds}")
        for name, rate in (("crash_rate_per_hour", crash_rate_per_hour),
                           ("slowdown_rate_per_hour",
                            slowdown_rate_per_hour),
                           ("drop_rate_per_hour", drop_rate_per_hour)):
            if not 0 <= rate < math.inf:
                raise SimulationError(
                    f"{name} must satisfy 0 <= rate < inf, got {rate}")
        streams = RandomStreams(seed).spawn("fault-plan")
        events: list[FaultEvent] = []

        def arrivals(name: str, rate_per_hour: float) -> list[float]:
            if rate_per_hour <= 0:
                return []
            rng = streams.stream(f"arrivals:{name}")
            times = []
            t = 0.0
            mean_gap = 3600.0 / rate_per_hour
            while True:
                t += float(rng.exponential(mean_gap))
                if t >= horizon_seconds:
                    return times
                times.append(t)

        def target(name: str) -> int:
            return int(streams.stream(f"target:{name}").integers(
                0, n_machines))

        for t in arrivals("crash", crash_rate_per_hour):
            events.append(FaultEvent(
                time=t, kind=FaultKind.MACHINE_CRASH,
                machine_id=target("crash"),
                duration=crash_downtime_seconds))
        for t in arrivals("slowdown", slowdown_rate_per_hour):
            events.append(FaultEvent(
                time=t, kind=FaultKind.MACHINE_SLOWDOWN,
                machine_id=target("slowdown"),
                duration=SLOWDOWN_SECONDS, severity=SLOWDOWN_SEVERITY))
        for t in arrivals("drop", drop_rate_per_hour):
            events.append(FaultEvent(
                time=t, kind=FaultKind.NETWORK_DROP,
                machine_id=target("drop"),
                duration=DROP_SECONDS, severity=DROP_SEVERITY))
        events.sort(key=lambda e: (e.time, e.kind.value, e.machine_id))
        return FaultPlan(events=tuple(events), seed=seed)
