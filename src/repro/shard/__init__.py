"""Cluster-of-cells sharding: per-cell Harmony behind a global placer.

The ROADMAP's scale jump past the paper's 1,000-machine §V-F sweep:
partition the machine pool into cells, run one independent Algorithm 1
per cell, route jobs by per-cell load (an identity diff against the
last routed pool, lookups only for the positions that changed), and
rebalance hot cells through the §IV-B4 migration path.
``SimConfig.with_sharding`` turns it on; ``python -m repro scale``
runs the cells × cluster-size sweep.
"""

from repro.shard.cells import Cell
from repro.shard.placer import GlobalPlacer, job_weight
from repro.shard.rebalance import ShardMove, plan_moves
from repro.shard.scheduler import ShardedScheduler

__all__ = [
    "Cell",
    "GlobalPlacer",
    "ShardMove",
    "ShardedScheduler",
    "job_weight",
    "plan_moves",
]
