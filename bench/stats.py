"""Exact order statistics for the benchmark's own samples.

Every sample is kept and sorted, so a percentile is a value that was
actually measured (nearest rank), never an interpolation or a bucket
bound.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

from bench import BenchError

#: A tail percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: The fewest samples whose nearest-rank p90 has that many beyond it.
P90_MIN_SAMPLES = 10 * MIN_TAIL_SAMPLES


class ShortSampleError(BenchError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 < p <= 100) of ``values``."""
    if not values:
        raise ShortSampleError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def strict_percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, refused unless the tail supports it.

    At least :data:`MIN_TAIL_SAMPLES` samples must lie beyond the rank
    (100 samples for a p90); fewer is an error, not a number.
    """
    n = len(values)
    beyond = n - max(1, math.ceil(p / 100.0 * n))
    if beyond < MIN_TAIL_SAMPLES:
        raise ShortSampleError(
            f"p{p:g} needs {MIN_TAIL_SAMPLES} samples beyond it, "
            f"{n} samples leave {max(beyond, 0)}"
        )
    return percentile(values, p)


def median(values: Sequence[float]) -> float:
    """The usual median (mean of the middle two for an even count)."""
    if not values:
        raise ShortSampleError("median of an empty sample")
    return statistics.median(values)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them — the
    same arithmetic the acceptance check applies to ten runs.
    """
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0
