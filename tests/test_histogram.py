"""Property tests for the mergeable fixed-bucket latency histograms.

Every latency metric leans on three facts: shard
histograms merged equal one global histogram (per-thread recording with
an exact fold), percentiles are monotone in the quantile (SLO tables
never invert), and empty histograms are handled, not special-cased by
callers.  Each is exercised here with hypothesis.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.histogram import (
    DEFAULT_BOUNDS,
    Histogram,
    geometric_bounds,
)

#: Latency-shaped values spanning the bucket range and both tails.
values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=500_000.0, allow_nan=False),
    max_size=200,
)


def _assert_same(a: Histogram, b: Histogram) -> None:
    assert a.buckets == b.buckets
    assert a.count == b.count
    assert a.max == b.max
    assert a.min == b.min
    assert math.isclose(a.total, b.total, rel_tol=1e-12, abs_tol=1e-9)
    for q in (0, 25, 50, 90, 95, 99, 99.9, 100):
        assert a.percentile(q) == b.percentile(q)


@settings(max_examples=60)
@given(values=values_strategy, shards=st.integers(min_value=1, max_value=7))
def test_merged_shards_equal_global(values, shards):
    """Round-robin the values over N shard histograms; the merged result
    must be indistinguishable from recording into one histogram."""
    global_hist = Histogram()
    shard_hists = [Histogram() for _ in range(shards)]
    for i, value in enumerate(values):
        global_hist.record(value)
        shard_hists[i % shards].record(value)
    merged = Histogram()
    for shard in shard_hists:
        merged.merge(shard)
    _assert_same(merged, global_hist)


@settings(max_examples=60)
@given(values=values_strategy)
def test_percentile_monotone_in_quantile(values):
    hist = Histogram()
    for value in values:
        hist.record(value)
    quantiles = [0, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100]
    estimates = [hist.percentile(q) for q in quantiles]
    if not values:
        assert estimates == [None] * len(quantiles)
        return
    for lo, hi in zip(estimates, estimates[1:]):
        assert lo <= hi


@settings(max_examples=60)
@given(values=values_strategy.filter(bool))
def test_percentile_conservative_and_capped(values):
    """Upper-edge estimates never underestimate the true nearest-rank
    percentile and never exceed the observed maximum."""
    hist = Histogram()
    for value in values:
        hist.record(value)
    ordered = sorted(min(v, hist.max) for v in values)
    for q in (50, 90, 99):
        rank = max(1, math.ceil(q * len(ordered) / 100.0))
        true_value = ordered[rank - 1]
        estimate = hist.percentile(q)
        assert estimate <= hist.max
        assert estimate >= true_value or math.isclose(
            estimate, true_value, rel_tol=1e-9
        )


def test_empty_histogram_edge_cases():
    hist = Histogram()
    assert hist.count == 0
    assert hist.mean is None
    assert hist.percentile(50) is None
    assert hist.percentile(0) is None
    assert hist.percentile(100) is None
    assert hist.summary() == {"count": 0}
    # Merging empties stays empty; merging into an empty copies.
    other = Histogram()
    assert hist.merge(other).count == 0
    other.record(3.0)
    hist.merge(other)
    assert hist.count == 1
    assert hist.percentile(50) == 3.0  # capped at the exact max


def test_single_value_percentiles_collapse_to_it():
    hist = Histogram()
    for _ in range(10):
        hist.record(5.0)
    for q in (1, 50, 99, 100):
        assert hist.percentile(q) == 5.0  # upper edge capped at max


def test_merge_rejects_different_bounds():
    a = Histogram(geometric_bounds(per_decade=5))
    b = Histogram(geometric_bounds(per_decade=10))
    with pytest.raises(ValueError, match="different bucket bounds"):
        a.merge(b)


def test_bounds_validation():
    with pytest.raises(ValueError):
        Histogram(())
    with pytest.raises(ValueError):
        Histogram((1.0, 1.0))
    with pytest.raises(ValueError):
        geometric_bounds(lo=0.0)
    with pytest.raises(ValueError):
        geometric_bounds(lo=10.0, hi=1.0)


def test_percentile_rejects_out_of_range_quantile():
    hist = Histogram()
    hist.record(1.0)
    with pytest.raises(ValueError):
        hist.percentile(101)
    with pytest.raises(ValueError):
        hist.percentile(-1)


def test_overflow_and_negative_values():
    hist = Histogram()
    hist.record(-5.0)  # clamps to 0
    hist.record(10_000_000.0)  # beyond the last edge: overflow bucket
    assert hist.count == 2
    assert hist.min == 0.0
    assert hist.percentile(100) == 10_000_000.0  # overflow reports exact max
    assert hist.buckets[-1] == 1


def test_default_bounds_cover_expected_range():
    assert DEFAULT_BOUNDS[0] == pytest.approx(0.01)
    assert DEFAULT_BOUNDS[-1] >= 120_000.0
    assert all(b < a for b, a in zip(DEFAULT_BOUNDS, DEFAULT_BOUNDS[1:]))
