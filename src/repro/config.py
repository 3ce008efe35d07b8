"""Configuration dataclasses shared across the package.

The defaults mirror the paper's evaluation setup (§V-B): m4.2xlarge
instances (8 vCPUs, 32 GB memory, 1.1 Gbps network), synchronous PS
training, and the scheduler constants quoted in §IV-B (5% thresholds).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.trace.tracer import TraceConfig


def _default_engine() -> str:
    """Default simulation engine, overridable via the environment.

    ``HARMONY_SIM_ENGINE=reference`` forces the frozen per-event path
    for every ``SimConfig()`` that does not pass ``engine=`` explicitly
    — the CI matrix runs the whole tier-1 suite once per engine this
    way, so a fast-path regression can never hide behind the reference
    engine.  Invalid values are rejected by ``SimConfig.__post_init__``.
    """
    return os.environ.get("HARMONY_SIM_ENGINE", "fast")

GB = 1024.0 ** 3
MB = 1024.0 ** 2

#: Network bandwidth of an m4.2xlarge in bytes/second (1.1 Gbps).
M4_2XLARGE_NET_BPS = 1.1e9 / 8.0


@dataclass(frozen=True)
class MachineSpec:
    """Hardware description of one cluster machine.

    Defaults describe the paper's m4.2xlarge EC2 instance.
    """

    cores: int = 8
    memory_gb: float = 32.0
    #: Fraction of physical memory usable by job data before the managed
    #: runtime (JVM in the paper) hits GC trouble / OOM.
    usable_memory_fraction: float = 0.80
    network_bps: float = M4_2XLARGE_NET_BPS
    disk_read_bps: float = 180.0 * MB
    disk_write_bps: float = 150.0 * MB

    @property
    def usable_memory_gb(self) -> float:
        return self.memory_gb * self.usable_memory_fraction

    @property
    def usable_memory_bytes(self) -> float:
        return self.usable_memory_gb * GB


@dataclass(frozen=True)
class GCModel:
    """Analytic garbage-collection overhead model.

    COMP subtasks are inflated by ``1 + strength * ((rho - onset) /
    (1 - onset))**2`` once the memory-pressure ratio ``rho`` (resident
    bytes / usable bytes) exceeds ``onset``.  ``rho >= oom_ratio`` is an
    out-of-memory failure.  This reproduces the qualitative behaviour the
    paper attributes to the JVM: mild pressure is free, high pressure
    melts throughput, and exceeding capacity kills the job (Fig. 4, §V-G).
    """

    onset: float = 0.72
    strength: float = 2.0
    oom_ratio: float = 1.0

    def inflation(self, rho: float) -> float:
        """Multiplicative COMP slowdown at memory-pressure ratio ``rho``."""
        if rho <= self.onset:
            return 1.0
        over = (rho - self.onset) / max(1e-9, 1.0 - self.onset)
        return 1.0 + self.strength * over * over

    def is_oom(self, rho: float) -> bool:
        return rho >= self.oom_ratio


#: The orders Algorithm 1's L4 loop can grow the candidate job set in
#: (``SchedulerConfig.admission_order``).
ADMISSION_ORDERS = ("critical", "sjf", "ljf", "interleave")


def _check_rules(config, rules) -> None:
    """Reject ``config`` at construction on its first broken rule.

    ``rules`` holds ``(field, holds, description)`` triples.  Conditions
    are stated positively so that NaN fails them too.
    """
    for name, holds, rule in rules:
        if not holds:
            raise ValueError(f"{name} must be {rule}, got "
                             f"{getattr(config, name)!r}")


@dataclass(frozen=True)
class SchedulerConfig:
    """Constants of Harmony's scheduling algorithm (§IV-B)."""

    #: Minimum relative improvement in cluster utilization before a
    #: regrouping is applied ("Harmony does not perform regrouping when
    #: the expected benefit is less than 5% of U").
    regroup_benefit_threshold: float = 0.05
    #: Two jobs are "similar" when iteration time and comp/comm ratio
    #: differ by less than this fraction (§IV-B4).
    similarity_threshold: float = 0.05
    #: Hard cap on jobs per group (memory pressure / JCT preference).
    max_jobs_per_group: int = 5
    #: Maximum swap fine-tuning passes in the grouping algorithm.
    max_swap_passes: int = 50
    #: Order in which Algorithm 1's L4 loop grows the candidate job set
    #: (the paper leaves J_to_sched's order unspecified):
    #: "sjf" = shortest iteration first (front-loads completions),
    #: "ljf" = longest first (starts the critical path early),
    #: "interleave" = alternate longest/shortest,
    #: "critical" = the top-decile longest jobs first (they set the
    #: makespan's critical path), then shortest-first for the rest.
    admission_order: str = "critical"
    #: How often the master re-evaluates the whole grouping ("Harmony
    #: constantly seeks for higher resource utilization U, and when it
    #: detects a potential improvement, it dynamically updates the jobs,
    #: job groups, and the allocated machines", §IV-B2).  A regrouping is
    #: only applied when the predicted gain clears the 5% threshold.
    reschedule_check_seconds: float = 1200.0

    def __post_init__(self):
        _check_rules(self, (
            ("admission_order", self.admission_order in ADMISSION_ORDERS,
             f"one of {ADMISSION_ORDERS}"),
            ("regroup_benefit_threshold",
             self.regroup_benefit_threshold >= 0, ">= 0"),
            ("similarity_threshold", self.similarity_threshold >= 0, ">= 0"),
            ("max_jobs_per_group", self.max_jobs_per_group >= 1, ">= 1"),
            ("max_swap_passes", self.max_swap_passes >= 0, ">= 0"),
            ("reschedule_check_seconds", self.reschedule_check_seconds > 0,
             "> 0"),
        ))


@dataclass(frozen=True)
class MemoryConfig:
    """Constants of the dynamic data reloading mechanism (§IV-C)."""

    #: Master switch: disabling turns Harmony's data spill/reload off
    #: entirely (the §V-C ablation's "without dynamic reloading" stage).
    spill_enabled: bool = True
    #: When set, every job keeps this fixed disk-block ratio instead of
    #: hill-climbing (the §V-G fixed-alpha baseline).
    fixed_alpha: "float | None" = None

    def __post_init__(self):
        _check_rules(self, (
            ("fixed_alpha", self.fixed_alpha is None
             or 0.0 <= self.fixed_alpha <= 1.0, "None or in [0, 1]"),
        ))


@dataclass(frozen=True)
class ExecutionConfig:
    """Constants of the subtask execution engine (§IV-A)."""

    #: Effective rate of a secondary COMM subtask relative to a primary
    #: one (it only uses the primary's idle gaps).
    secondary_comm_rate: float = 0.40
    #: Coefficient of variation of subtask durations (measurement noise /
    #: machine jitter); drives the profiler's moving averages and the
    #: nonzero-but-small prediction error of Fig. 13b.
    duration_jitter_cv: float = 0.02
    #: Extra per-iteration synchronizer overhead as a fraction of the
    #: iteration (cross-worker barrier latency + straggler effect).
    barrier_overhead: float = 0.01
    #: Multi-tenant interference (§VI future work): probability that a
    #: COMM subtask is hit by a bursty-traffic spike from other tenants.
    comm_interference_probability: float = 0.0

    def __post_init__(self):
        _check_rules(self, (
            ("secondary_comm_rate", 0.0 <= self.secondary_comm_rate <= 1.0,
             "in [0, 1]"),
            ("duration_jitter_cv", self.duration_jitter_cv >= 0, ">= 0"),
            ("barrier_overhead", self.barrier_overhead >= 0, ">= 0"),
            ("comm_interference_probability",
             0.0 <= self.comm_interference_probability <= 1.0, "in [0, 1]"),
        ))


@dataclass(frozen=True)
class ShardConfig:
    """Constants of the cluster-of-cells sharding layer (:mod:`repro.shard`).

    With ``n_cells = 1`` (the default) sharding is inert: the sharded
    scheduler delegates every call to a single plain
    :class:`~repro.core.scheduler.HarmonyScheduler` and is pinned
    bitwise-equal to it by ``tests/test_shard.py``.
    """

    #: Number of scheduling cells the machine pool is partitioned into.
    #: Each cell owns an independent Harmony scheduler instance (with
    #: its own plan cache); a thin global placer routes jobs to
    #: cells by per-cell load instead of O(#machines) scans.
    n_cells: int = 1
    #: Schedule calls between two cross-cell rebalance checks; 0
    #: disables periodic rebalancing entirely.
    rebalance_every: int = 32
    #: A cell is "hot" when its normalized load exceeds the mean cell
    #: load by more than this fraction; the rebalancer drains hot cells
    #: into the coldest ones through the §IV-B4 plan-splice path.
    rebalance_threshold: float = 0.25

    def __post_init__(self):
        _check_rules(self, (
            ("n_cells", self.n_cells >= 1, ">= 1"),
            ("rebalance_every", self.rebalance_every >= 0, ">= 0"),
            ("rebalance_threshold", self.rebalance_threshold >= 0, ">= 0"),
        ))


@dataclass(frozen=True)
class SimConfig:
    """Top-level simulation configuration."""

    seed: int = 2021
    machine: MachineSpec = field(default_factory=MachineSpec)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    #: Cluster-of-cells sharding (:mod:`repro.shard`); inert at the
    #: default ``n_cells = 1``.
    shard: ShardConfig = field(default_factory=ShardConfig)
    #: Structured tracing / metrics registry (:mod:`repro.trace`);
    #: disabled by default so the hot simulation paths pay nothing.
    trace: TraceConfig = field(default_factory=TraceConfig)
    #: Simulation engine: ``"fast"`` batch-advances eligible groups in
    #: closed form (:mod:`repro.sim.fastpath`); ``"reference"`` forces
    #: the frozen per-event path everywhere.  The two are pinned
    #: bitwise-equal by the differential suite (tests/test_sim_fastpath).
    #: The default honours the ``HARMONY_SIM_ENGINE`` environment knob
    #: (read at construction time) so CI can force the reference engine
    #: across the whole suite.
    engine: str = field(default_factory=_default_engine)

    def __post_init__(self):
        if self.engine not in ("fast", "reference"):
            raise ValueError(
                f"engine must be 'fast' or 'reference', got "
                f"{self.engine!r}")

    def with_seed(self, seed: int) -> "SimConfig":
        return replace(self, seed=seed)

    def with_engine(self, engine: str) -> "SimConfig":
        return replace(self, engine=engine)

    def with_sharding(self, n_cells: int, **kwargs) -> "SimConfig":
        return replace(self, shard=ShardConfig(n_cells=n_cells, **kwargs))

    def with_tracing(self, enabled: bool = True, **kwargs) -> "SimConfig":
        return replace(self, trace=TraceConfig(enabled=enabled, **kwargs))


DEFAULT_SIM_CONFIG = SimConfig()
