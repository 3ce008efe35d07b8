"""Dynamic data reloading (§IV-C).

Harmony manages each job's input as blocks, keeping a fraction
``alpha_j = B_disk_j / B_total_j`` on disk.  Too little spill melts the
group in GC; too much spill stalls COMP subtasks waiting on disk reads.
A per-job hill climber moves ``alpha_j`` toward the point where the two
overheads balance; when even full input spill cannot relieve the
pressure, the *model-data* spill fallback activates ("we support
similar mechanisms for the model data when the input data spill is not
enough", §IV-C).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.cluster.memory import MemoryLedger
from repro.config import MemoryConfig
from repro.core.job import Job
from repro.workloads.apps import JobSpec
from repro.workloads.costmodel import CostModel

#: Target memory-pressure ratio used to pick the initial alpha.  The
#: master's machine floors and a group's admission check budget against
#: the same ratio.
TARGET_PRESSURE = 0.75
#: Hill-climbing step applied to a job's disk-block ratio alpha.
ALPHA_STEP = 0.05
#: Iterations between two alpha adjustments of the same job.
ADJUST_EVERY = 2
#: Dead-band: overheads within this fraction of each other are
#: considered balanced and alpha is left alone.
TOLERANCE = 0.02


class FootprintTable:
    """The one memory-feasibility rule (§IV-C): do these jobs fit on m
    machines at the target pressure?

    A master shares one table with every group it starts, so its
    floors, the groups' admission gates and their spill rebalance read
    the same basis and the same ``CostModel.resident_bytes`` floats,
    each computed once per (job, m, alpha, model spilled).  Those
    resident rows are the table's only memo: a floor is a pure function
    of the job specs and the machine limit, so each call scans the rows
    again.
    """

    def __init__(self, cost_model: CostModel, config: MemoryConfig,
                 mode_spills: bool):
        self.cost_model = cost_model
        self.budget = cost_model.spec.usable_memory_bytes * TARGET_PRESSURE
        #: Inputs spill: the execution mode manages memory and the
        #: config leaves spill on.
        self.spill = mode_spills and config.spill_enabled
        fixed = config.fixed_alpha if self.spill else None
        #: Ratios adapt (rebalance, hill climbing) and a model may spill
        #: when alpha = 1 is not enough; a fixed ratio (§V-G) pins both.
        self.adaptive = self.spill and fixed is None
        #: The input-spill ratio feasibility assumes.
        self.alpha = (1.0 if fixed is None else fixed) if self.spill \
            else 0.0
        self._entries: dict[tuple[str, int, float, bool], float] = {}

    def resident(self, spec: JobSpec, m: int, alpha: float,
                 spilled: bool = False) -> float:
        key = (spec.job_id, m, alpha, spilled)
        value = self._entries.get(key)
        if value is None:
            value = self._entries[key] = self.cost_model.resident_bytes(
                spec, m, alpha, spilled)
        return value

    def floor(self, specs: Sequence[JobSpec], max_machines: int) -> int:
        """Smallest m at which ``specs`` fit at the basis alpha, else
        (adaptive only) with every model spilled; ``max_machines + 1``
        if none does."""
        bases = [(self.alpha, False)]
        if self.adaptive:
            bases.append((1.0, True))
        for alpha, spilled in bases:
            for m in range(1, max_machines + 1):
                if sum([self.resident(spec, m, alpha, spilled)
                        for spec in specs]) <= self.budget:
                    return m
        return max_machines + 1

    def admits(self, members: Iterable[Job], job: Job, m: int) -> bool:
        """Whether ``job`` joins ``members`` on m machines.

        Members count at their minimal footprint (they can always be
        re-spilled); the newcomer counts with its model spilled only if
        it does not fit alone otherwise, as
        :meth:`GroupMemoryManager.admit` then spills it.
        """
        new = self.resident(job.spec, m, self.alpha)
        if self.adaptive and new > self.budget:
            new = min(new, self.resident(job.spec, m, 1.0, True))
        existing = sum(
            self.resident(member.spec, m,
                          1.0 if member.model_spilled else self.alpha,
                          member.model_spilled)
            for member in members)
        return existing + new <= self.budget


@dataclass
class _JobMemoryState:
    """Hill-climbing bookkeeping for one admitted job."""

    iterations_since_adjust: int = 0
    gc_overhead_seconds: float = 0.0
    stall_seconds: float = 0.0
    busy_seconds: float = 0.0


class GroupMemoryManager:
    """Block-ratio management for the jobs of one group."""

    def __init__(self, ledger: MemoryLedger, footprints: FootprintTable,
                 n_machines: int):
        self.ledger = ledger
        self.footprints = footprints
        self.cost_model = footprints.cost_model
        self.n_machines = n_machines
        self._states: dict[str, _JobMemoryState] = {}
        self._jobs: dict[str, Job] = {}

    # -- admission -------------------------------------------------------------

    def admit(self, job: Job) -> bool:
        """Place the job's memory components; choose its initial alpha.

        The initial ratios are estimated from the (sampled) input and
        model sizes so the group lands at the target pressure; returns
        False when the job cannot fit even with maximal input and model
        spill — the caller must not co-locate it here.
        """
        job.model_spilled = False
        self._jobs[job.job_id] = job
        if not self.footprints.adaptive:
            # No spill, or the §V-G baseline's "same fixed alpha for
            # all jobs": no rebalancing, no hill climbing.
            job.alpha = self.footprints.alpha
            self._apply_components(job)
        else:
            self._rebalance()
            if self.ledger.is_oom():
                # Even alpha = 1 was not enough: try the model-spill
                # fallback.
                job.alpha = 1.0
                job.model_spilled = True
                self._apply_components(job)
                if self.ledger.is_oom():
                    self.evict(job)
                    self._rebalance()
                    return False
        self._states[job.job_id] = _JobMemoryState()
        return True

    def _rebalance(self) -> None:
        """Spread the memory budget over all admitted jobs with one
        shared spill ratio (hill climbing personalizes it afterwards).

        Resident size is linear in alpha, so the shared ratio that lands
        the group at the target pressure has a closed form.
        """
        spilled = [j for j in self._jobs.values() if j.model_spilled]
        plain = [j for j in self._jobs.values() if not j.model_spilled]
        budget = self.footprints.budget
        m = self.n_machines
        resident = self.footprints.resident
        total_min = sum(resident(j.spec, m, 1.0, j.model_spilled)
                        for j in self._jobs.values())
        total_max = sum(resident(j.spec, m, 0.0, j.model_spilled)
                        for j in self._jobs.values())
        if total_max <= budget:
            alpha = 0.0
        elif total_min >= budget or total_max <= total_min:
            alpha = 1.0
        else:
            alpha = 1.0 - (budget - total_min) / (total_max - total_min)
        for job in plain + spilled:
            job.alpha = min(1.0, max(0.0, alpha))
            self._apply_components(job)

    def evict(self, job: Job) -> None:
        """Remove the job's memory components (pause / finish / reject)."""
        self.ledger.remove_job(job.job_id)
        self._states.pop(job.job_id, None)
        self._jobs.pop(job.job_id, None)
        if self.footprints.spill and self._jobs:
            self._rebalance()

    def _apply_components(self, job: Job) -> None:
        spec = job.spec
        m = self.n_machines
        self.ledger.set_component(
            job.job_id, "input",
            self.cost_model.input_resident_bytes(spec, m, job.alpha))
        self.ledger.set_component(
            job.job_id, "model",
            self.cost_model.model_resident_bytes(spec, m,
                                                 job.model_spilled))
        self.ledger.set_component(
            job.job_id, "workspace",
            self.cost_model.workspace_bytes(spec, m, job.alpha))

    # -- per-iteration feedback ---------------------------------------------------

    def reload_seconds(self, job: Job) -> float:
        """Disk work to bring this iteration's disk-side blocks back.

        Includes the model restore traffic when the model-spill
        fallback is active.
        """
        seconds = self.cost_model.reload_seconds_per_iteration(
            job.spec, self.n_machines, job.alpha)
        if job.model_spilled:
            seconds += self.cost_model.disk.read_seconds(
                self.cost_model.checkpoint_bytes(job.spec, self.n_machines))
        return seconds

    def record_iteration(self, job: Job, gc_overhead_seconds: float,
                         stall_seconds: float,
                         busy_seconds: float) -> None:
        """Feed one iteration's overheads into the hill climber."""
        if not self.footprints.adaptive:
            return  # ratio adaptation disabled
        state = self._states[job.job_id]  # admitted, not yet evicted
        state.gc_overhead_seconds += max(0.0, gc_overhead_seconds)
        state.stall_seconds += max(0.0, stall_seconds)
        state.busy_seconds += max(0.0, busy_seconds)
        state.iterations_since_adjust += 1
        if state.iterations_since_adjust >= ADJUST_EVERY:
            self._adjust_alpha(job, state)

    def _adjust_alpha(self, job: Job, state: _JobMemoryState) -> None:
        """One hill-climbing step of alpha_j (§IV-C).

        GC dominating -> spill more (alpha up).  Reload stalls
        dominating -> keep more in memory (alpha down), but only while
        the extra residency does not push the group over the target
        pressure.
        """
        busy = max(1e-9, state.busy_seconds)
        gc_fraction = state.gc_overhead_seconds / busy
        stall_fraction = state.stall_seconds / busy
        if gc_fraction > stall_fraction + TOLERANCE:
            if job.alpha < 1.0:
                job.alpha = min(1.0, job.alpha + ALPHA_STEP)
                self._apply_components(job)
            elif not job.model_spilled:
                # Input spill exhausted but GC persists: activate the
                # model-data spill fallback ("we support similar
                # mechanisms for the model data when the input data
                # spill is not enough", §IV-C).
                job.model_spilled = True
                self._apply_components(job)
        elif stall_fraction > gc_fraction + TOLERANCE and job.alpha > 0.0:
            candidate = max(0.0, job.alpha - ALPHA_STEP)
            previous = job.alpha
            job.alpha = candidate
            self._apply_components(job)
            if self.ledger.pressure > TARGET_PRESSURE:
                job.alpha = previous  # would re-create the pressure
                self._apply_components(job)
        state.iterations_since_adjust = 0
        state.gc_overhead_seconds = 0.0
        state.stall_seconds = 0.0
        state.busy_seconds = 0.0

    # -- queries -----------------------------------------------------------------

    def alphas(self) -> dict[str, float]:
        """Snapshot of per-job disk-block ratios (reported in §V-G)."""
        return {job_id: job.alpha for job_id, job in self._jobs.items()}
