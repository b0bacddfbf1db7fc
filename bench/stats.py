"""Order statistics used by every workload (median, quartiles, percentiles)."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return (only, only, only)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def summary(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and sample count of one timing series."""
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``q`` in (0, 1]).

    With fewer than ``1 / (1 - q)`` samples this is the maximum — the
    highest percentile such a sample supports.
    """
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]
