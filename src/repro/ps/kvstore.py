"""Thread-safe versioned key -> ndarray store backing a PS shard."""

from __future__ import annotations

import threading
from collections.abc import Iterable

import numpy as np

from repro.errors import PSError


class KVStore:
    """Parameter storage for one server shard.

    Values are float64 ndarrays.  ``update`` applies additive deltas
    (the PS "push" semantics); ``snapshot`` returns copies so callers
    can never alias server memory.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._data: dict[str, np.ndarray] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Monotone update counter (bumped once per ``update`` call)."""
        with self._lock:
            return self._version

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._data)

    def init(self, key: str, value: np.ndarray) -> None:
        """Install an initial parameter value; key must be new."""
        array = np.asarray(value, dtype=np.float64)
        with self._lock:
            if key in self._data:
                raise PSError(f"key {key!r} already initialized")
            self._data[key] = array.copy()

    def get(self, key: str) -> np.ndarray:
        with self._lock:
            value = self._data.get(key)
            if value is None:
                raise PSError(f"unknown key {key!r}")
            return value.copy()

    def snapshot(self, keys: Iterable[str] | None = None) -> \
            dict[str, np.ndarray]:
        """Copies of the requested (default: all) entries."""
        with self._lock:
            wanted = self.keys() if keys is None else list(keys)
            missing = [k for k in wanted if k not in self._data]
            if missing:
                raise PSError(f"unknown keys {missing}")
            return {k: self._data[k].copy() for k in wanted}

    def update(self, deltas: dict[str, np.ndarray],
               scale: float = 1.0) -> int:
        """Apply additive deltas (``value += scale * delta``) atomically.

        Returns the new version.
        """
        with self._lock:
            for key, delta in deltas.items():
                current = self._data.get(key)
                if current is None:
                    raise PSError(f"unknown key {key!r}")
                delta = np.asarray(delta, dtype=np.float64)
                if delta.shape != current.shape:
                    raise PSError(
                        f"shape mismatch for {key!r}: "
                        f"{delta.shape} vs {current.shape}")
                current += scale * delta
            self._version += 1
            return self._version

    def total_bytes(self) -> int:
        with self._lock:
            return sum(v.nbytes for v in self._data.values())
