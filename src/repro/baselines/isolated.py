"""The *isolated* baseline (§V-A).

"The isolated baseline allocates disjoint sets of resources for each
distinct job.  In the isolated approach, we try to maximize the CPU
utilization rates, as it determines the actual training progress of
each job, by reducing the network overheads that occur with lower DoP.
Existing works that take similar approaches for allocating resources to
each job include Optimus and SLAQ."

Each job runs alone on its dedicated machines (group size 1), with the
classic sequential PULL -> COMP -> PUSH iteration and no data spilling.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.baselines.base import BaselineRuntime
from repro.config import DEFAULT_SIM_CONFIG, SimConfig
from repro.core.group_runtime import ExecutionMode
from repro.policies.queueing import packed_fifo
from repro.workloads.apps import JobSpec
from repro.workloads.costmodel import CostModel


class IsolatedRuntime(BaselineRuntime):
    """Dedicated per-job allocation (Optimus / SLAQ style)."""

    #: Dedicated allocations run below the CPU/network balance point —
    #: the paper's isolated policy trades a longer COMP for less idle
    #: network time ("maximize the CPU utilization rates ... by
    #: reducing the network overheads that occur with lower DoP").
    DOP_SCALE = 0.50

    def __init__(self, n_machines: int, workload: Sequence[JobSpec],
                 config: SimConfig = DEFAULT_SIM_CONFIG,
                 dop_scale: float = DOP_SCALE,
                 cost_model: CostModel | None = None):
        super().__init__(n_machines, workload,
                         mode=ExecutionMode.ISOLATED,
                         name="isolated",
                         policy=packed_fifo(group_size=1),
                         config=config,
                         dop_scale=dop_scale,
                         cost_model=cost_model)
