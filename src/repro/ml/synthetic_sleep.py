"""A timing-calibrated synthetic workload for runtime validation.

Real numpy models are too fast (and GIL-coupled) to demonstrate §IV-A's
timing claims on threads; :class:`SleepModel` makes COMP a *real* wall-
clock busy period of known length, so the local runtime's coordination
can be measured: two co-located jobs with COMP = x seconds each must
take ~2x per round when coordinated correctly (one COMP at a time) and
still make progress, while their COMM phases overlap.

Used by the runtime-validation tests and the local-runtime benchmarks —
not part of the paper's workload set.
"""

from __future__ import annotations

import time
from collections.abc import Mapping

import numpy as np

from repro.errors import WorkloadError
from repro.ml.base import PSTrainable, TrainState


class SleepModel(PSTrainable):
    """A PS-trainable whose COMP takes a configurable wall time.

    The "model" is a single counter; each compute sleeps for
    ``comp_seconds`` and pushes a unit increment, so the objective
    decreases deterministically — convergence bookkeeping works as
    usual.
    """

    name = "SleepModel"

    def __init__(self, comp_seconds: float, payload_elements: int = 128):
        if comp_seconds < 0:
            raise WorkloadError(
                f"comp_seconds must be >= 0, got {comp_seconds}")
        if payload_elements < 1:
            raise WorkloadError("payload needs at least one element")
        self.comp_seconds = comp_seconds
        self.payload_elements = payload_elements

    def init_params(self, rng: np.random.Generator) -> \
            dict[str, np.ndarray]:
        return {"state": np.zeros(self.payload_elements)}

    def compute(self, params: Mapping[str, np.ndarray],
                partition: dict, state: TrainState) -> \
            tuple[dict[str, np.ndarray], float]:
        if self.comp_seconds > 0:
            time.sleep(self.comp_seconds)
        progress = float(params["state"][0])
        delta = np.zeros(self.payload_elements)
        delta[0] = 1.0
        # Objective: distance to the partition's target epoch count.
        target = float(partition.get("target_epochs", 10))
        objective = max(0.0, target - progress)
        return {"state": delta}, objective
