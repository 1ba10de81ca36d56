"""Mergeable fixed-bucket latency histograms.

The measurement primitive of the whole stack (the server, the
engine-side delay profiler, and the metrics registry share one model):
a histogram with *fixed, geometric* bucket boundaries shared by every
instance, so per-cursor histograms merge into a per-engine one by
plain element-wise addition — no rebinning, no approximation drift.
That merge-equals-global property is what lets each thread or cursor
record into a private histogram (no locks on the hot path) and the
consumer fold them at the end; it is property-tested in
``tests/test_histogram.py``.

Percentiles come back as the *upper edge* of the bucket containing the
requested rank, capped at the exact observed maximum (tracked alongside
the buckets).  Upper edges make the estimate conservative — a reported
p99 is never below the true p99 — and monotone in the quantile, the two
properties a latency bound check needs.
"""

from __future__ import annotations

from bisect import bisect_left
from math import ceil
from typing import Optional, Sequence


def geometric_bounds(
    lo: float = 0.01, hi: float = 120_000.0, per_decade: int = 20
) -> tuple[float, ...]:
    """Geometric bucket upper edges from ``lo`` to at least ``hi`` (ms).

    ``per_decade`` buckets per 10x keeps the relative error of the
    upper-edge percentile estimate under ``10**(1/per_decade) - 1``
    (about 12% at the default), constant across seven decades from
    10 microseconds to two minutes.
    """
    if lo <= 0 or hi <= lo or per_decade < 1:
        raise ValueError("need 0 < lo < hi and per_decade >= 1")
    ratio = 10.0 ** (1.0 / per_decade)
    bounds = [lo]
    while bounds[-1] < hi:
        bounds.append(bounds[-1] * ratio)
    return tuple(bounds)


#: The default boundary set of every latency histogram.
#: One shared tuple means merges never have to compare boundary floats.
DEFAULT_BOUNDS = geometric_bounds()


class Histogram:
    """Counts of observations in fixed buckets, with exact count/sum/max.

    Bucket ``i`` holds values ``v`` with ``bounds[i-1] < v <= bounds[i]``
    (bucket 0 is everything up to ``bounds[0]``); one extra overflow
    bucket catches values beyond the last edge.  All instances built
    from the same ``bounds`` merge exactly.
    """

    __slots__ = ("bounds", "buckets", "count", "total", "max", "min")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        self.bounds = tuple(bounds)
        if not self.bounds or any(
            b <= a for a, b in zip(self.bounds, self.bounds[1:])
        ):
            raise ValueError("bounds must be non-empty and strictly increasing")
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.min = float("inf")

    # ------------------------------------------------------------------
    # Recording and merging
    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        """Count one observation (negative values clamp to zero)."""
        if value < 0:
            value = 0.0
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into ``self`` (identical bounds required)."""
        if self.bounds != other.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds "
                f"({len(self.bounds)} vs {len(other.bounds)} edges)"
            )
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max
        if other.min < self.min:
            self.min = other.min
        return self

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def percentile(self, q: float) -> Optional[float]:
        """Upper-edge estimate of the ``q``-th percentile (None if empty).

        Monotone in ``q`` by construction: ranks grow with ``q``, bucket
        upper edges grow with rank, and the cap at the exact maximum is
        a constant.  Conservative: never underestimates.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return None
        # Nearest-rank definition: the smallest value with at least
        # ceil(q/100 * count) observations at or below it.
        rank = max(1, min(self.count, ceil(q * self.count / 100.0)))
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= rank:
                if i >= len(self.bounds):  # overflow bucket
                    return self.max
                return min(self.bounds[i], self.max)
        return self.max  # pragma: no cover - ranks never exceed count

    def summary(self) -> dict:
        """The JSON-ready digest the ``stats`` op embeds per op."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean_ms": round(self.total / self.count, 4),
            "min_ms": round(self.min, 4),
            "max_ms": round(self.max, 4),
            "p50_ms": round(self.percentile(50), 4),
            "p95_ms": round(self.percentile(95), 4),
            "p99_ms": round(self.percentile(99), 4),
        }

    def __repr__(self) -> str:
        if self.count == 0:
            return "Histogram(empty)"
        return (
            f"Histogram(count={self.count}, p50={self.percentile(50):.3f}, "
            f"p99={self.percentile(99):.3f}, max={self.max:.3f})"
        )
