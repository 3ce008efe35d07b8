"""Cluster inventory with an owner-tagged allocation ledger.

The Harmony master, as well as the baseline schedulers, acquire machines
through this ledger.  Allocations are tagged with an owner string (a job
group id or a job id) so that double-allocation and foreign releases are
detected immediately rather than corrupting an experiment silently.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.config import MachineSpec
from repro.errors import ClusterError


def split_machine_counts(total_machines: int,
                         n_cells: int) -> tuple[int, ...]:
    """Near-equal machine counts per scheduling cell, deterministically.

    The canonical split used by the cluster-of-cells sharding layer
    (:mod:`repro.shard`): the first ``total % n_cells`` cells take one
    extra machine, so the result depends only on the two integers —
    never on iteration order.  Every cell must end up with at least
    one machine.
    """
    if n_cells < 1:
        raise ClusterError(f"need >= 1 cell, got {n_cells}")
    if total_machines < n_cells:
        raise ClusterError(
            f"{n_cells} cells need >= {n_cells} machines, got "
            f"{total_machines}")
    base, extra = divmod(total_machines, n_cells)
    return tuple(base + 1 if index < extra else base
                 for index in range(n_cells))


class Cluster:
    """A homogeneous pool of machines (the paper uses 100 m4.2xlarge)."""

    def __init__(self, n_machines: int, spec: MachineSpec | None = None):
        if n_machines <= 0:
            raise ClusterError(f"cluster needs >= 1 machine, got {n_machines}")
        self.spec = spec if spec is not None else MachineSpec()
        self.machine_ids = range(n_machines)
        self._free: list[int] = list(range(n_machines))
        self._owner_of: dict[int, str] = {}
        #: Machines out of service (crashed, not yet repaired).  A
        #: failed machine is never handed out by :meth:`allocate`; if it
        #: was owned when it failed, the owner's eventual release parks
        #: it here instead of returning it to the free pool.
        self._failed: set[int] = set()

    # -- inspection ----------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.machine_ids)

    @property
    def n_free(self) -> int:
        return len(self._free)

    @property
    def n_allocated(self) -> int:
        return self.size - self.n_free

    @property
    def n_failed(self) -> int:
        return len(self._failed)

    def is_failed(self, machine_id: int) -> bool:
        if not 0 <= machine_id < self.size:
            raise ClusterError(f"unknown machine id {machine_id}")
        return machine_id in self._failed

    def owned_by(self, owner: str) -> tuple[int, ...]:
        """Machine ids currently held by ``owner``."""
        return tuple(sorted(mid for mid, who in self._owner_of.items()
                            if who == owner))

    def owner_of(self, machine_id: int) -> str | None:
        """Current owner of a machine, or None when it is free."""
        if not 0 <= machine_id < self.size:
            raise ClusterError(f"unknown machine id {machine_id}")
        return self._owner_of.get(machine_id)

    # -- allocation ----------------------------------------------------

    def allocate(self, n: int, owner: str) -> tuple[int, ...]:
        """Take ``n`` free machines for ``owner``; returns their ids."""
        if n <= 0:
            raise ClusterError(f"allocation size must be positive, got {n}")
        if n > self.n_free:
            raise ClusterError(
                f"owner {owner!r} requested {n} machines, only "
                f"{self.n_free} free")
        taken = [self._free.pop() for _ in range(n)]
        for mid in taken:
            self._owner_of[mid] = owner
        return tuple(sorted(taken))

    def release(self, machine_ids: Iterable[int], owner: str) -> None:
        """Return machines to the free pool; ids must belong to ``owner``."""
        ids = list(machine_ids)
        for mid in ids:
            actual = self._owner_of.get(mid)
            if actual != owner:
                raise ClusterError(
                    f"machine {mid} is owned by {actual!r}, not {owner!r}")
        for mid in ids:
            del self._owner_of[mid]
            if mid not in self._failed:
                self._free.append(mid)

    def release_all(self, owner: str) -> int:
        """Release every machine held by ``owner``; returns the count."""
        ids = self.owned_by(owner)
        self.release(ids, owner)
        return len(ids)

    # -- failure ledger (repro.faults) ---------------------------------

    def mark_failed(self, machine_id: int) -> None:
        """Take a machine out of service (a crash, §VI fault tolerance).

        A free machine leaves the free pool immediately; an owned
        machine keeps its owner (the group still references it) but will
        not return to the pool when released.  Idempotent.
        """
        if not 0 <= machine_id < self.size:
            raise ClusterError(f"unknown machine id {machine_id}")
        if machine_id in self._failed:
            return
        self._failed.add(machine_id)
        if machine_id in self._free:
            self._free.remove(machine_id)

    def restore_machine(self, machine_id: int) -> None:
        """Return a repaired machine to service (and to the free pool
        unless some owner still holds it).  Idempotent."""
        if not 0 <= machine_id < self.size:
            raise ClusterError(f"unknown machine id {machine_id}")
        if machine_id not in self._failed:
            return
        self._failed.discard(machine_id)
        if machine_id not in self._owner_of:
            self._free.append(machine_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Cluster {self.n_allocated}/{self.size} allocated>"
