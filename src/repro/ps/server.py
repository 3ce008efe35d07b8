"""A PS server shard with synchronous (staleness-0) clock semantics.

The paper validates its substrate against Bösen "with its staleness
parameter set to 0 for synchronous training" (§V-B): a worker may pull
the model for clock ``c`` only after every worker's clock ``c - 1``
push has been applied.  :meth:`handle_pull` blocks on that barrier.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping

import numpy as np

from repro.errors import PSError
from repro.ps.kvstore import KVStore


class PSServer:
    """One model shard plus the synchronization barrier state."""

    def __init__(self, shard_id: int, n_workers: int,
                 barrier_timeout: float = 60.0):
        if n_workers < 1:
            raise PSError(f"need >= 1 worker, got {n_workers}")
        self.shard_id = shard_id
        self.n_workers = n_workers
        self.store = KVStore()
        self._condition = threading.Condition()
        self._pushed_at: dict[int, int] = {w: -1 for w in range(n_workers)}
        self._completed_clock = -1
        self._barrier_timeout = barrier_timeout

    # -- setup ------------------------------------------------------------

    def init_params(self, values: Mapping[str, np.ndarray]) -> None:
        for key, value in values.items():
            self.store.init(key, value)

    # -- the PS protocol -----------------------------------------------------

    def handle_pull(self, keys: list[str],
                    clock: int) -> dict[str, np.ndarray]:
        """Return parameters for iteration ``clock``.

        Blocks until clock ``clock - 1`` is complete on this shard
        (synchronous barrier).  Raises on timeout — a deadlocked barrier
        is a bug, not something to hang a test suite on.
        """
        with self._condition:
            done = self._condition.wait_for(
                lambda: self._completed_clock >= clock - 1,
                timeout=self._barrier_timeout)
            if not done:
                raise PSError(
                    f"shard {self.shard_id}: barrier timeout waiting for "
                    f"clock {clock - 1} (completed={self._completed_clock})")
        return self.store.snapshot(keys)

    def handle_push(self, worker_id: int,
                    deltas: Mapping[str, np.ndarray], clock: int) -> None:
        """Apply a worker's deltas for iteration ``clock``."""
        with self._condition:
            if worker_id not in self._pushed_at:
                raise PSError(f"unknown worker {worker_id}")
        self.store.update(dict(deltas))
        with self._condition:
            if clock <= self._pushed_at[worker_id]:
                raise PSError(
                    f"worker {worker_id} pushed clock {clock} twice")
            self._pushed_at[worker_id] = clock
            if all(c >= clock for c in self._pushed_at.values()):
                self._completed_clock = max(self._completed_clock, clock)
                self._condition.notify_all()

    # -- checkpointing (the §IV-B4 pause path) -----------------------------------

    def checkpoint(self) -> dict[str, np.ndarray]:
        """Snapshot the full shard (model migration / fault tolerance)."""
        return self.store.snapshot()
