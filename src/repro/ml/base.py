"""The PS-trainable model interface.

All four workloads expose the same three-step shape so the runtime can
decompose them into subtasks mechanically (§IV-A):

* ``init_params`` — the model the servers host,
* ``compute`` — the COMP subtask: given pulled parameters and a local
  data partition, produce additive parameter deltas and the objective,
* the PULL/PUSH around it are owned by the PS client.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np


@dataclass
class TrainState:
    """Mutable per-worker training state (learning-rate schedule etc.)."""

    iteration: int = 0
    learning_rate: float = 0.1
    extras: dict = field(default_factory=dict)


class PSTrainable(abc.ABC):
    """A model trainable through the PS push/pull API."""

    #: Human-readable application name (matches Table I).
    name: str = "model"

    @abc.abstractmethod
    def init_params(self, rng: np.random.Generator) -> \
            dict[str, np.ndarray]:
        """Initial parameter values, to be installed on the servers."""

    @abc.abstractmethod
    def compute(self, params: Mapping[str, np.ndarray],
                partition: dict, state: TrainState) -> \
            tuple[dict[str, np.ndarray], float]:
        """One COMP subtask on a local data partition.

        Returns ``(deltas, objective)`` where ``deltas`` are additive
        parameter updates and ``objective`` is the local value of the
        training objective (lower is better for losses; LDA returns the
        negative log-likelihood so "lower is better" holds everywhere).
        """
