"""Non-negative matrix factorization (the paper's NMF workload).

Netflix-style factorization ``R ~= W @ H.T``: the item factors ``H``
live on the parameter servers (the shared model), while each worker
keeps the user factors of its own rating partition locally — the
classic PS-NMF split, which makes PULL/PUSH move exactly the
model-sized data the cost model assumes.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.errors import WorkloadError
from repro.ml.base import PSTrainable, TrainState

_BLOCK = 128

#: L2 regularization weight on both factor matrices.
L2 = 1e-3


class NMFModel(PSTrainable):
    """Gradient-descent NMF with non-negativity projection."""

    name = "NMF"

    def __init__(self, n_users: int, n_items: int, rank: int = 8):
        if min(n_users, n_items, rank) < 1:
            raise WorkloadError("NMF dims must be positive")
        self.n_users = n_users
        self.n_items = n_items
        self.rank = rank

    def block_keys(self) -> list[str]:
        return [f"h:{start}"
                for start in range(0, self.n_items, _BLOCK)]

    def _block_range(self, key: str) -> tuple[int, int]:
        start = int(key.split(":", 1)[1])
        return start, min(start + _BLOCK, self.n_items)

    def init_params(self, rng: np.random.Generator) -> \
            dict[str, np.ndarray]:
        params = {}
        for key in self.block_keys():
            lo, hi = self._block_range(key)
            params[key] = rng.uniform(0.1, 0.5, size=(hi - lo, self.rank))
        return params

    def _assemble(self, params: Mapping[str, np.ndarray]) -> np.ndarray:
        items = np.zeros((self.n_items, self.rank))
        for key in self.block_keys():
            lo, hi = self._block_range(key)
            items[lo:hi] = params[key]
        return items

    def compute(self, params: Mapping[str, np.ndarray],
                partition: dict, state: TrainState) -> \
            tuple[dict[str, np.ndarray], float]:
        """One alternating gradient pass on the partition's ratings.

        ``partition`` holds ``coords`` (nnz x 2 of (user, item)),
        ``values`` (nnz ratings), and mutable ``W`` (this partition's
        user factors, updated in place — worker-local state).
        """
        coords: np.ndarray = partition["coords"]
        values: np.ndarray = partition["values"]
        user_factors: np.ndarray = partition["W"]
        item_factors = self._assemble(params)

        users = coords[:, 0]
        items = coords[:, 1]
        predictions = np.einsum("ij,ij->i", user_factors[users],
                                item_factors[items])
        errors = predictions - values
        loss = float(errors @ errors) / len(values) \
            + L2 * (float(np.sum(user_factors ** 2))
                         + float(np.sum(item_factors ** 2)))

        lr = state.learning_rate / np.sqrt(1.0 + state.iteration)

        # Local W step (kept on the worker, never pushed).
        w_grad = np.zeros_like(user_factors)
        np.add.at(w_grad, users,
                  errors[:, None] * item_factors[items])
        w_grad = w_grad / len(values) + L2 * user_factors
        np.maximum(user_factors - lr * w_grad, 0.0, out=user_factors)

        # Shared H step (pushed as deltas).
        h_grad = np.zeros_like(item_factors)
        np.add.at(h_grad, items,
                  errors[:, None] * user_factors[users])
        h_grad = h_grad / len(values) + L2 * item_factors
        updated = np.maximum(item_factors - lr * h_grad, 0.0)
        step = updated - item_factors

        deltas = {}
        for key in self.block_keys():
            lo, hi = self._block_range(key)
            deltas[key] = step[lo:hi]
        return deltas, loss
