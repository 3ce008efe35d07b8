"""Multinomial logistic regression (the paper's MLR workload).

Softmax regression trained by mini-batch gradient descent through the
PS: the model is the ``(features x classes)`` weight matrix, sharded by
class blocks across servers; each COMP computes the softmax gradient on
the worker's partition and pushes ``-lr * grad`` as the delta.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.errors import WorkloadError
from repro.ml.base import PSTrainable, TrainState

#: Parameters are sharded in class-blocks of this width so multi-server
#: runs exercise real scatter/gather.
_BLOCK = 4

#: L2 regularization weight.
L2 = 1e-4


class MLRModel(PSTrainable):
    """Softmax regression with L2 regularization."""

    name = "MLR"

    def __init__(self, n_features: int, n_classes: int):
        if n_features < 1 or n_classes < 2:
            raise WorkloadError("MLR needs >= 1 feature and >= 2 classes")
        self.n_features = n_features
        self.n_classes = n_classes

    # -- parameter layout ----------------------------------------------------

    def block_keys(self) -> list[str]:
        return [f"w:{start}"
                for start in range(0, self.n_classes, _BLOCK)]

    def _block_range(self, key: str) -> tuple[int, int]:
        start = int(key.split(":", 1)[1])
        return start, min(start + _BLOCK, self.n_classes)

    def init_params(self, rng: np.random.Generator) -> \
            dict[str, np.ndarray]:
        params = {}
        for key in self.block_keys():
            lo, hi = self._block_range(key)
            params[key] = 0.01 * rng.normal(
                size=(self.n_features, hi - lo))
        return params

    def _assemble(self, params: Mapping[str, np.ndarray]) -> np.ndarray:
        weights = np.zeros((self.n_features, self.n_classes))
        for key in self.block_keys():
            lo, hi = self._block_range(key)
            weights[:, lo:hi] = params[key]
        return weights

    # -- training --------------------------------------------------------------

    def compute(self, params: Mapping[str, np.ndarray],
                partition: dict, state: TrainState) -> \
            tuple[dict[str, np.ndarray], float]:
        features: np.ndarray = partition["X"]
        labels: np.ndarray = partition["y"]
        weights = self._assemble(params)

        scores = features @ weights
        scores -= scores.max(axis=1, keepdims=True)
        exp_scores = np.exp(scores)
        probs = exp_scores / exp_scores.sum(axis=1, keepdims=True)
        n = len(labels)
        loss = -float(np.mean(
            np.log(probs[np.arange(n), labels] + 1e-12)))
        loss += 0.5 * L2 * float(np.sum(weights * weights))

        probs[np.arange(n), labels] -= 1.0
        grad = features.T @ probs / n + L2 * weights

        lr = state.learning_rate / np.sqrt(1.0 + state.iteration)
        deltas = {}
        for key in self.block_keys():
            lo, hi = self._block_range(key)
            deltas[key] = -lr * grad[:, lo:hi]
        return deltas, loss

    def accuracy(self, params: Mapping[str, np.ndarray],
                 features: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy of ``params`` on labelled data."""
        weights = self._assemble(params)
        predictions = np.argmax(features @ weights, axis=1)
        return float(np.mean(predictions == labels))
