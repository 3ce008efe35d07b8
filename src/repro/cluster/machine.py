"""A single cluster machine.

The paper co-locates one PS server and one worker on every machine
(§II-A, §V-B), so a :class:`Machine` is the unit of allocation — "degree
of parallelism" (DoP) of a job group equals its machine count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import MachineSpec


@dataclass(frozen=True)
class Machine:
    """One machine in the cluster inventory."""

    machine_id: int
    spec: MachineSpec = field(default_factory=MachineSpec)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Machine {self.machine_id}>"
