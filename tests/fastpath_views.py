"""Flat numpy views of a simulated run, for cross-engine comparison.

The differential suites compare the fast and reference engines with
``np.array_equal`` on these views — exact, no tolerance.
"""

import numpy as np


def ledger_view(resource) -> np.ndarray:
    """A :class:`RateResource`'s conservation ledger as one float64
    vector: ``[busy_seconds, work_submitted, work_served,
    work_discarded]``."""
    return np.array([resource.busy_seconds, resource.work_submitted,
                     resource.work_served, resource.work_discarded],
                    dtype=np.float64)


def cycles_view(cycles) -> np.ndarray:
    """A :class:`CycleRecord` list as an (n, 6) float64 matrix.

    Columns: finished_at, duration, t_cpu_measured, t_net_measured,
    gc_overhead, stall.
    """
    if not cycles:
        return np.empty((0, 6), dtype=np.float64)
    return np.array([[c.finished_at, c.duration, c.t_cpu_measured,
                      c.t_net_measured, c.gc_overhead, c.stall]
                     for c in cycles], dtype=np.float64)
