"""Per-group memory accounting and the managed-runtime pressure model.

A :class:`MemoryLedger` tracks, for one set of machines, how many bytes
each resident component (a job's in-memory input blocks, its model
partition, its working set) occupies *per machine*.  From the resulting
pressure ratio it derives the GC inflation applied to COMP subtasks and
detects out-of-memory failures — the two memory failure modes the paper
attributes to co-location (§II-B challenge 3, Fig. 4, §IV-C).
"""

from __future__ import annotations

from repro.config import GB, GCModel, MachineSpec
from repro.errors import OutOfMemoryError


class MemoryLedger:
    """Memory accounting for one machine group.

    All quantities are per machine; the paper's groups are symmetric
    (every machine hosts one worker and one server, and data/model are
    partitioned evenly), so a single per-machine figure suffices.
    """

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self.gc_model = GCModel()
        self._components: dict[tuple[str, str], float] = {}
        # gc_inflation() memo; the two writers of _components clear it.
        self._gc_factor: float | None = None

    # -- bookkeeping ----------------------------------------------------

    def set_component(self, job_id: str, component: str,
                      bytes_per_machine: float) -> None:
        """Declare that ``job_id``'s ``component`` occupies the given
        number of bytes on every machine of the group."""
        if bytes_per_machine < 0:
            raise ValueError(
                f"negative resident size for {job_id}/{component}")
        self._gc_factor = None
        if bytes_per_machine == 0:
            self._components.pop((job_id, component), None)
        else:
            self._components[(job_id, component)] = bytes_per_machine

    def remove_job(self, job_id: str) -> None:
        """Drop every component belonging to ``job_id``."""
        self._gc_factor = None
        for key in [k for k in self._components if k[0] == job_id]:
            del self._components[key]

    # -- derived quantities ----------------------------------------------

    @property
    def resident_bytes(self) -> float:
        """Total resident bytes per machine."""
        return sum(self._components.values())

    @property
    def pressure(self) -> float:
        """Memory-pressure ratio rho = resident / usable capacity."""
        return self.resident_bytes / self.spec.usable_memory_bytes

    def gc_inflation(self) -> float:
        """Multiplicative COMP-subtask slowdown at the current pressure.

        Read once per COMP subtask, so the value is kept until a
        component changes.
        """
        factor = self._gc_factor
        if factor is None:
            factor = self._gc_factor = self.gc_model.inflation(
                self.pressure)
        return factor

    def is_oom(self) -> bool:
        return self.gc_model.is_oom(self.pressure)

    def check_oom(self) -> None:
        """Raise :class:`OutOfMemoryError` if over capacity."""
        if self.is_oom():
            job_ids = tuple(sorted({jid for jid, _ in self._components}))
            raise OutOfMemoryError(
                f"resident {self.resident_bytes / GB:.1f} GB exceeds "
                f"usable {self.spec.usable_memory_gb:.1f} GB "
                f"(jobs: {', '.join(job_ids)})",
                job_ids=job_ids,
                resident_gb=self.resident_bytes / GB,
                capacity_gb=self.spec.usable_memory_gb)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<MemoryLedger {self.resident_bytes / GB:.2f}"
                f"/{self.spec.usable_memory_gb:.1f} GB "
                f"rho={self.pressure:.2f}>")
