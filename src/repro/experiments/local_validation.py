"""Real-thread validation of the subtask discipline (§IV-A).

Everything else in the evaluation runs on the simulator; this driver
validates the execution model on *actual threads*: jobs whose COMP
steps are wall-clock busy periods run through the real PS runtime, and
the CPU-token serialization is measured directly.

Two claims are checked:

* coordinated COMPs serialize — with ``k`` co-located jobs of COMP
  length ``x``, each round costs ~``k * x`` wall seconds;
* COMM overlaps COMP — the measured makespan sits well below the fully
  serial bound (COMM of one job rides under another's COMP).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.local_runtime import LocalHarmonyRuntime, LocalJob
from repro.metrics.reporting import format_table
from repro.ml.synthetic_sleep import SleepModel


@dataclass
class LocalValidationResult:
    n_jobs: int
    epochs: int
    comp_seconds: float
    coordinated_wall: float
    uncoordinated_wall: float
    serial_bound: float

    @property
    def serialization_ratio(self) -> float:
        """Measured coordinated wall time over the perfect-serial COMP
        bound (should be >= ~1: COMPs really run one at a time)."""
        return self.coordinated_wall / self.serial_bound

    @property
    def overlap_gain(self) -> float:
        """How much cheaper uncoordinated sleepers are — evidence the
        CPU token (not the GIL or the harness) does the serializing."""
        return self.coordinated_wall / max(self.uncoordinated_wall,
                                           1e-9)


def _jobs(n_jobs: int, epochs: int, comp_seconds: float) -> \
        list[LocalJob]:
    return [LocalJob(f"sleeper{i}", SleepModel(comp_seconds),
                     [{"target_epochs": epochs}],
                     max_epochs=epochs, learning_rate=1.0)
            for i in range(n_jobs)]


def run(n_jobs: int = 3, epochs: int = 4,
        comp_seconds: float = 0.04) -> LocalValidationResult:
    """Run the experiment; see the module docstring for
    the paper exhibit it reproduces."""
    # harmony: allow[DET001] local runtime is real threads; wall time is the exhibit
    started = time.perf_counter()
    LocalHarmonyRuntime(_jobs(n_jobs, epochs, comp_seconds),
                        barrier_timeout=60).run()
    # harmony: allow[DET001] local runtime is real threads; wall time is the exhibit
    coordinated_wall = time.perf_counter() - started

    # harmony: allow[DET001] local runtime is real threads; wall time is the exhibit
    started = time.perf_counter()
    LocalHarmonyRuntime(_jobs(n_jobs, epochs, comp_seconds),
                        coordinate=False, barrier_timeout=60).run()
    # harmony: allow[DET001] local runtime is real threads; wall time is the exhibit
    uncoordinated_wall = time.perf_counter() - started

    return LocalValidationResult(
        n_jobs=n_jobs, epochs=epochs, comp_seconds=comp_seconds,
        coordinated_wall=coordinated_wall,
        uncoordinated_wall=uncoordinated_wall,
        serial_bound=n_jobs * epochs * comp_seconds)


def report(result: LocalValidationResult) -> str:
    """Render the paper-style rows for this exhibit."""
    rows = [
        ("perfect-serial COMP bound", f"{result.serial_bound:.2f}"),
        ("coordinated (Harmony tokens)",
         f"{result.coordinated_wall:.2f}"),
        ("uncoordinated (free-for-all)",
         f"{result.uncoordinated_wall:.2f}"),
    ]
    lines = [format_table(
        ["configuration", "wall seconds"], rows,
        title=f"§IV-A on real threads — {result.n_jobs} jobs x "
              f"{result.epochs} epochs x {result.comp_seconds * 1e3:.0f}"
              " ms COMP")]
    lines.append(
        f"serialization ratio {result.serialization_ratio:.2f} "
        "(>= ~1 proves one-COMP-at-a-time); overlap gain "
        f"{result.overlap_gain:.2f}x over free-running sleepers")
    return "\n".join(lines)
