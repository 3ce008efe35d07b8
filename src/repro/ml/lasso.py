"""Lasso regression (the paper's regression workload).

Proximal gradient descent (ISTA) through the PS: the model is the
coefficient vector, sharded in blocks; each COMP computes the squared-
error gradient on its partition and pushes a delta that includes the
soft-thresholding step toward the L1-sparse solution.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.errors import WorkloadError
from repro.ml.base import PSTrainable, TrainState

_BLOCK = 64


def soft_threshold(values: np.ndarray, threshold: float) -> np.ndarray:
    """The L1 proximal operator."""
    return np.sign(values) * np.maximum(np.abs(values) - threshold, 0.0)


class LassoModel(PSTrainable):
    """Linear regression with L1 penalty, trained by ISTA steps."""

    name = "Lasso"

    def __init__(self, n_features: int, l1: float = 0.01):
        if n_features < 1:
            raise WorkloadError("Lasso needs >= 1 feature")
        self.n_features = n_features
        self.l1 = l1

    def block_keys(self) -> list[str]:
        return [f"beta:{start}"
                for start in range(0, self.n_features, _BLOCK)]

    def _block_range(self, key: str) -> tuple[int, int]:
        start = int(key.split(":", 1)[1])
        return start, min(start + _BLOCK, self.n_features)

    def init_params(self, rng: np.random.Generator) -> \
            dict[str, np.ndarray]:
        return {key: np.zeros(hi - lo)
                for key in self.block_keys()
                for lo, hi in [self._block_range(key)]}

    def _assemble(self, params: Mapping[str, np.ndarray]) -> np.ndarray:
        beta = np.zeros(self.n_features)
        for key in self.block_keys():
            lo, hi = self._block_range(key)
            beta[lo:hi] = params[key]
        return beta

    def compute(self, params: Mapping[str, np.ndarray],
                partition: dict, state: TrainState) -> \
            tuple[dict[str, np.ndarray], float]:
        features: np.ndarray = partition["X"]
        targets: np.ndarray = partition["y"]
        beta = self._assemble(params)

        n = len(targets)
        residual = features @ beta - targets
        loss = 0.5 * float(residual @ residual) / n \
            + self.l1 * float(np.sum(np.abs(beta)))
        grad = features.T @ residual / n

        lr = state.learning_rate / np.sqrt(1.0 + state.iteration)
        # ISTA: gradient step then shrinkage; the delta moves the server
        # value to the thresholded point.
        updated = soft_threshold(beta - lr * grad, lr * self.l1)
        step = updated - beta
        deltas = {}
        for key in self.block_keys():
            lo, hi = self._block_range(key)
            deltas[key] = step[lo:hi]
        return deltas, loss

    def sparsity(self, params: Mapping[str, np.ndarray],
                 tolerance: float = 1e-6) -> float:
        """Fraction of (near-)zero coefficients."""
        beta = self._assemble(params)
        return float(np.mean(np.abs(beta) <= tolerance))
