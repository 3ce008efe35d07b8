"""In-process transport between PS clients and servers.

Every message crosses the transport, which meters bytes per direction
and, optionally, injects a bandwidth delay so that the local runtime's
COMM subtasks take time proportional to the bytes moved — the same
shape as the cluster network model.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import PSError
from repro.ps.serialization import payload_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ps.server import PSServer


class InProcessTransport:
    """Routes pull/push requests to registered server shards."""

    def __init__(self, simulated_bandwidth_bps: float | None = None):
        self._servers: dict[int, "PSServer"] = {}
        self._lock = threading.Lock()
        self.simulated_bandwidth_bps = simulated_bandwidth_bps
        self.bytes_pulled = 0
        self.bytes_pushed = 0
        self.requests = 0

    # -- wiring ---------------------------------------------------------

    def register(self, server: "PSServer") -> None:
        with self._lock:
            if server.shard_id in self._servers:
                raise PSError(f"shard {server.shard_id} already registered")
            self._servers[server.shard_id] = server

    def server(self, shard_id: int) -> "PSServer":
        with self._lock:
            server = self._servers.get(shard_id)
        if server is None:
            raise PSError(f"no server for shard {shard_id}")
        return server

    # -- request routing --------------------------------------------------

    def pull(self, shard_id: int, keys: list[str],
             clock: int) -> dict[str, np.ndarray]:
        """Fetch parameters from a shard (counts response bytes)."""
        server = self.server(shard_id)
        values = server.handle_pull(keys, clock)
        self._account(pulled=payload_bytes(values))
        return values

    def push(self, shard_id: int, worker_id: int,
             deltas: Mapping[str, np.ndarray], clock: int) -> None:
        """Send gradient deltas to a shard (counts request bytes)."""
        size = payload_bytes(deltas)
        self._account(pushed=size)
        self.server(shard_id).handle_push(worker_id, deltas, clock)

    # -- metering -----------------------------------------------------------

    def _account(self, pulled: int = 0, pushed: int = 0) -> None:
        with self._lock:
            self.bytes_pulled += pulled
            self.bytes_pushed += pushed
            self.requests += 1
        n_bytes = pulled + pushed
        if self.simulated_bandwidth_bps and n_bytes:
            time.sleep(n_bytes / self.simulated_bandwidth_bps)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self.bytes_pulled + self.bytes_pushed
