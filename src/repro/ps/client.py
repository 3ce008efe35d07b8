"""Worker-side PS client: the pull/push API of Fig. 1.

A :class:`PSClient` belongs to one worker of one job.  ``pull`` gathers
the model from every shard, ``push`` scatters gradient deltas; both are
exactly the COMM subtasks Harmony schedules (§IV-A treats "PS push/pull
methods as COMM subtasks" with serialization hoisted out).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.errors import PSError
from repro.ps.partition import RangePartitioner
from repro.ps.transport import InProcessTransport


class PSClient:
    """One worker's handle on the parameter servers."""

    def __init__(self, worker_id: int, transport: InProcessTransport,
                 partitioner: RangePartitioner):
        self.worker_id = worker_id
        self.transport = transport
        self.partitioner = partitioner
        self.clock = 0

    # -- the PS API --------------------------------------------------------

    def pull(self, keys: list[str] | None = None) -> \
            dict[str, np.ndarray]:
        """Gather parameters for the current clock from all shards."""
        wanted = self.partitioner.keys if keys is None else list(keys)
        gathered: dict[str, np.ndarray] = {}
        for shard, shard_keys in sorted(
                self.partitioner.group_by_shard(wanted).items()):
            gathered.update(self.transport.pull(shard, shard_keys,
                                                self.clock))
        missing = set(wanted) - set(gathered)
        if missing:
            raise PSError(f"pull failed to gather {sorted(missing)}")
        return gathered

    def push(self, deltas: Mapping[str, np.ndarray]) -> None:
        """Scatter deltas to their shards and advance the clock."""
        grouped = self.partitioner.group_by_shard(list(deltas))
        for shard in range(self.partitioner.n_shards):
            shard_deltas = {k: deltas[k] for k in grouped.get(shard, [])}
            # Every shard hears from every worker each clock, even with
            # an empty delta, so the synchronous barrier can complete.
            self.transport.push(shard, self.worker_id, shard_deltas,
                                self.clock)
        self.clock += 1
