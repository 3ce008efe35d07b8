"""§V-C ablation: how each technique contributes to the benefit.

"With only subtasks (§IV-A), we achieve 32% of total benefit, and
adding grouping techniques (§IV-B) achieves 81%, and adding dynamic
reloading technique (§IV-C) completes our solution."

Stages (see EXPERIMENTS.md for the interpretation note):

1. *subtasks only* — coordinated subtask execution with queue-order
   grouping and a static, uniform spill ratio;
2. *+ grouping* — the full performance-model-driven scheduler, spill
   ratio still static;
3. *+ dynamic reloading* — complete Harmony (per-job hill climbing).

At Table I memory footprints, co-locating jobs at all requires spilling
input blocks (Fig. 4's triple OOMs on 16 machines), so the ablation
isolates the *dynamic* part of §IV-C; a strictly no-spill stage simply
degenerates to the isolated baseline (that result is reported too).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.baselines.base import BaselineRuntime
from repro.baselines.isolated import IsolatedRuntime
from repro.config import DEFAULT_SIM_CONFIG
from repro.core.group_runtime import ExecutionMode
from repro.core.runtime import HarmonyRuntime, RunResult
from repro.experiments.common import scaled_workload
from repro.metrics.reporting import format_table
from repro.policies.queueing import packed_fifo

#: Static spill ratio for stages 1-2 (between Fig. 4's no-spill OOM and
#: full spill; the §V-G sweep shows mid-range ratios are workable).
_STATIC_ALPHA = 0.5

_STATIC_SPILL = replace(DEFAULT_SIM_CONFIG, memory=replace(
    DEFAULT_SIM_CONFIG.memory, fixed_alpha=_STATIC_ALPHA))
_NO_SPILL = replace(DEFAULT_SIM_CONFIG, memory=replace(
    DEFAULT_SIM_CONFIG.memory, spill_enabled=False))


@dataclass
class AblationResult:
    isolated: RunResult
    no_spill_harmony: RunResult
    subtasks_only: RunResult
    with_grouping: RunResult
    full: RunResult

    def _reduction(self, result: RunResult) -> float:
        return self.isolated.makespan - result.makespan

    def benefit_fraction(self, result: RunResult) -> float:
        """Fraction of full Harmony's makespan reduction achieved."""
        total = self._reduction(self.full)
        if total <= 0:
            return 0.0
        return self._reduction(result) / total

    @property
    def stages(self) -> list[tuple[str, RunResult]]:
        return [("subtasks only", self.subtasks_only),
                ("+ grouping", self.with_grouping),
                ("+ dynamic reloading (full)", self.full)]


def run(scale: float = 1.0, seed: int = 2021) -> AblationResult:
    """Run the experiment; see the module docstring for
    the paper exhibit it reproduces."""
    workload, n_machines = scaled_workload(scale, seed)

    isolated = IsolatedRuntime(n_machines, workload).run()
    # Sanity stage: grouping *without any* spill degenerates toward the
    # isolated baseline (memory blocks co-location entirely).
    no_spill = HarmonyRuntime(n_machines, workload, config=_NO_SPILL).run()
    # Stage 1: coordinated subtasks, queue-order grouping, static spill.
    subtasks_only = BaselineRuntime(
        n_machines, workload, mode=ExecutionMode.HARMONY,
        name="subtasks-only", policy=packed_fifo(group_size=3),
        config=_STATIC_SPILL, dop_scale=0.5).run()
    # Stage 2: the full scheduler, spill ratio still static.
    with_grouping = HarmonyRuntime(n_machines, workload,
                                   config=_STATIC_SPILL).run()
    # Stage 3: complete Harmony (dynamic per-job reloading).
    full = HarmonyRuntime(n_machines, workload).run()
    return AblationResult(isolated=isolated, no_spill_harmony=no_spill,
                          subtasks_only=subtasks_only,
                          with_grouping=with_grouping, full=full)


def report(result: AblationResult) -> str:
    """Render the paper-style rows for this exhibit."""
    rows = []
    for label, stage in result.stages:
        rows.append((label, f"{stage.makespan / 60:.0f}",
                     f"{result.isolated.makespan / stage.makespan:.2f}",
                     f"{result.benefit_fraction(stage):.0%}"))
    lines = [format_table(
        ["stage", "makespan (min)", "speedup vs isolated",
         "fraction of full benefit"], rows,
        title="§V-C ablation (paper: subtasks 32%, +grouping 81%, "
              "+reloading 100%)")]
    lines.append(
        "sanity: scheduler without ANY spilling achieves "
        f"{result.isolated.makespan / result.no_spill_harmony.makespan:.2f}x"
        " — at Table I footprints, spilling is what makes co-location "
        "possible at all")
    return "\n".join(lines)
