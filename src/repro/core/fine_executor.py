"""Per-worker fine-grained execution (Fig. 7 at full fidelity).

The cluster runtime models a job group as one symmetric pipeline (see
:mod:`repro.core.group_runtime`).  This module simulates the same group
at *per-machine* granularity: every machine has its own CPU and NIC
resources, every job runs one worker per machine, and the SubTask
Synchronizer barriers each job's distributed subtasks between steps —
exactly the structure of Fig. 7, including cross-machine stragglers.

Its purpose is validation: the granularity experiment shows the
group-level abstraction tracks this within a few percent, which is the
modelling claim DESIGN.md makes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.sim import (
    Event,
    RandomStreams,
    RateResource,
    Simulator,
    primary_secondary,
    serial,
)
from repro.workloads.apps import JobSpec
from repro.workloads.costmodel import CostModel


class SimBarrier:
    """Counted barriers on the simulator (the SubTask Synchronizer).

    ``arrive(key)`` returns an event that triggers when ``n`` arrivals
    have been registered under ``key`` — one barrier per (job,
    iteration, step).
    """

    def __init__(self, sim: Simulator, n: int):
        if n < 1:
            raise SimulationError(f"barrier needs n >= 1, got {n}")
        self.sim = sim
        self.n = n
        self._pending: dict[object, tuple[Event, int]] = {}
        self._done: set[object] = set()

    def arrive(self, key: object) -> Event:
        if key in self._done:
            raise SimulationError(f"barrier {key}: too many arrivals")
        event, count = self._pending.get(key, (None, 0))
        if event is None:
            event = self.sim.event(f"barrier:{key}")
        count += 1
        if count == self.n:
            self._pending.pop(key, None)
            self._done.add(key)
            event.succeed()
        else:
            self._pending[key] = (event, count)
        return event


#: Leading iterations of each job left out of its steady-state mean.
WARMUP_ITERATIONS = 1


@dataclass
class FineGrainedResult:
    """Measurements from one fine-grained group run."""

    duration_seconds: float
    #: job_id -> list of per-iteration completion spans (the time from
    #: the iteration's first PULL start to its last PUSH barrier).
    cycles: dict[str, list[float]] = field(default_factory=dict)
    cpu_busy_fraction: float = 0.0
    net_busy_fraction: float = 0.0

    def pacing_cycle_seconds(self) -> float:
        """The slowest job's mean cycle (Eq. 1's ``max`` semantics)."""
        means = []
        for durations in self.cycles.values():
            steady = durations[WARMUP_ITERATIONS:]
            if steady:
                means.append(sum(steady) / len(steady))
        if not means:
            raise SimulationError("no steady-state cycles measured")
        return max(means)


def run_fine_grained_group(specs: Sequence[JobSpec], n_machines: int,
                           config: SimConfig,
                           iterations: int,
                           seed: int = 7) -> FineGrainedResult:
    """Simulate a job group with per-machine resources and barriers.

    Memory effects are excluded (both granularities share the same
    memory model, so they would cancel in the comparison); what differs
    is queueing, overlap, and straggler behaviour — exactly what this
    measures.
    """
    if n_machines < 1:
        raise SimulationError("need at least one machine")
    if iterations < 1:
        raise SimulationError("need at least one iteration")
    sim = Simulator()
    streams = RandomStreams(seed)
    cost_model = CostModel(config.machine)
    secondary = config.execution.secondary_comm_rate
    cpus = [RateResource(sim, serial(), f"cpu{m}")
            for m in range(n_machines)]
    nets = [RateResource(sim, primary_secondary(secondary), f"net{m}")
            for m in range(n_machines)]
    barrier = SimBarrier(sim, n_machines)

    result = FineGrainedResult(duration_seconds=0.0)
    starts: dict[tuple[str, int], float] = {}
    jitter_cv = config.execution.duration_jitter_cv

    def worker(spec: JobSpec, machine: int):
        profile = cost_model.profile(spec, n_machines)
        job_id = spec.job_id
        for iteration in range(iterations):
            if machine == 0:
                starts[(job_id, iteration)] = sim.now
            # PULL: every worker fetches the model through its NIC.
            t_pull = profile.t_pull * streams.jitter(
                f"pull:{job_id}:{machine}", jitter_cv)
            yield nets[machine].submit(t_pull)
            yield barrier.arrive((job_id, iteration, "pull"))
            # COMP: each machine processes its input partition.
            t_comp = profile.t_comp * streams.jitter(
                f"comp:{job_id}:{machine}", jitter_cv)
            yield cpus[machine].submit(t_comp)
            # PUSH: gradients scatter back; the synchronous-clock
            # barrier completes the iteration (Fig. 7 steps 1-2).
            t_push = profile.t_push * streams.jitter(
                f"push:{job_id}:{machine}", jitter_cv)
            yield nets[machine].submit(t_push)
            yield barrier.arrive((job_id, iteration, "push"))
            if machine == 0:
                span = sim.now - starts.pop((job_id, iteration))
                result.cycles.setdefault(job_id, []).append(span)

    for spec in specs:
        for machine in range(n_machines):
            sim.spawn(worker(spec, machine),
                      name=f"{spec.job_id}@m{machine}")
    sim.run()

    result.duration_seconds = sim.now
    if sim.now > 0:
        for resource in cpus + nets:
            resource.close_segments()
        result.cpu_busy_fraction = sum(
            c.busy_seconds for c in cpus) / (n_machines * sim.now)
        result.net_busy_fraction = sum(
            n.busy_seconds for n in nets) / (n_machines * sim.now)
    return result
