"""Statistics helpers used by experiments and reports."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def cdf_points(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF as (sorted values, cumulative fractions).

    The y-values step from 1/n to 1.0, matching the "cumulative
    distribution" axes of Figs. 9 and 12.
    """
    array = np.sort(np.asarray(values, dtype=float))
    if array.size == 0:
        return array, array
    fractions = np.arange(1, array.size + 1, dtype=float) / array.size
    return array, fractions
