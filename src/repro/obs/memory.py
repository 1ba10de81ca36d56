"""Space accounting in entries: the third observability layer.

The paper states the any-k variants' space as entry counts — ANYK-PART's
frontier candidates, ANYK-REC's memoized solution prefixes, batch's full
output — and so does this module:

- :class:`SpaceGauge` — an O(1) live/peak entry counter for one named
  structure category ("part.pq", "rec.solutions", "batch.rows", ...).
  The hot path is two integer adds and two compares.
- :class:`MemoryProfile` — the per-execution bundle of gauges with a
  concurrent live/peak entry total.  Profiles ride on the execution's
  :class:`~repro.util.counters.Counters` (a dynamic ``space`` attribute,
  so no engine signature changes); a shard worker's done frame carries
  its peak entries, filed per shard under ``shards``.

A retired execution's structures are garbage, so nothing but its peak
outlives it: the server observes each retiring profile's peak entries
once in the ``repro_mem_peak_entries`` registry histogram, whose count
and exact maximum are the per-engine view ``stats`` reports.

Bytes appear in one place: :func:`entry_bytes` multiplies entries by
their engine family's :data:`BYTES_PER_ENTRY` factor.  The server's
``--max-mem-mb`` watermark compares the sum of :func:`admission_bytes`
(a profile's live entries, priced) over its open streams and the priced
memo rows of the completed results it keeps.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.util.histogram import geometric_bounds

#: Bucket bounds for entry-count histograms (16 .. 4 Gi entries).
ENTRY_BOUNDS = geometric_bounds(lo=16.0, hi=float(2**32), per_decade=5)

#: Retained bytes per entry, by engine family (the engine name before any
#: ``:``); other engines (``lawler``) take the largest.  Measured as
#: ``tracemalloc``'s retained delta at the k-th result (stream alive, after
#: ``gc.collect()``) over the profile's peak entries, on
#: ``path_database(length=L, size=400, domain=20 if L == 2 else 40,
#: seed=7)`` with k in {1000, 4000}, CPython 3.11 on x86-64.  Measured
#: bytes per entry: part 161-234 (lazy and eager, L in {2, 3, 5}), rec
#: 126-159 (L in {2, 3, 5}), batch 51-52 (L in {2, 3}; L = 5 materialises
#: too much).  One factor per family holds each within 2x
#: (``tests/test_obs_memory.py``); one global constant would not.
BYTES_PER_ENTRY = {"part": 200, "rec": 140, "batch": 51}


class SpaceGauge:
    """O(1) live/peak entry counter for one structure category.

    ``add``/``remove`` adjust this gauge and the owning profile's
    ``total`` gauge, whose peak is the high-water mark across *all* the
    profile's categories: simultaneous growth in two structures peaks
    higher than either alone, the concurrency ``tracemalloc`` sees.  The
    gauge holds the total, never the profile, so a profiled execution
    leaves no reference cycle for the collector.
    """

    __slots__ = ("entries", "peak_entries", "total")

    def __init__(self, total: Any = None) -> None:
        self.entries = 0
        self.peak_entries = 0
        self.total = total

    def add(self, n: int = 1) -> None:
        entries = self.entries + n
        self.entries = entries
        if entries > self.peak_entries:
            self.peak_entries = entries
        total = self.total
        live = total.entries + n
        total.entries = live
        if live > total.peak_entries:
            total.peak_entries = live

    def remove(self, n: int = 1) -> None:
        self.entries -= n
        self.total.entries -= n


class MemoryProfile:
    """Per-execution space profile: a bundle of gauges plus their total.

    Mirrors :class:`~repro.obs.delay.DelayProfile`'s lifecycle: one per
    cursor, shard workers' peak entries appended to ``shards`` for
    attribution.
    """

    __slots__ = ("engine", "streams", "shards", "total", "_gauges")

    def __init__(self, engine: str = "") -> None:
        self.engine = engine
        self.streams = 0
        self.shards: list[dict] = []
        self.total = SpaceGauge()
        self._gauges: dict[str, SpaceGauge] = {}

    @property
    def live_entries(self) -> int:
        return self.total.entries

    @property
    def peak_entries(self) -> int:
        return self.total.peak_entries

    def gauge(self, category: str) -> SpaceGauge:
        """The gauge for ``category`` (created on first use; shared by
        every structure of that category in this execution)."""
        gauge = self._gauges.get(category)
        if gauge is None:
            gauge = self._gauges[category] = SpaceGauge(self.total)
        return gauge

    def release(self) -> None:
        """Zero every live figure, keeping the peaks: the execution has
        finished, been closed or been evicted, and its structures are
        freed."""
        self.total.entries = 0
        for gauge in self._gauges.values():
            gauge.entries = 0

    @property
    def touched(self) -> bool:
        """Whether any structure ever reported into this profile."""
        return bool(self._gauges) or bool(self.shards)

    def categories(self) -> dict[str, SpaceGauge]:
        return dict(self._gauges)

    def snapshot(self) -> dict:
        """JSON-ready state for EXPLAIN ANALYZE's ``memory`` section."""
        return {
            "engine": self.engine,
            "streams": self.streams,
            "live_entries": self.live_entries,
            "peak_entries": self.peak_entries,
            "categories": {
                category: {
                    "live_entries": gauge.entries,
                    "peak_entries": gauge.peak_entries,
                }
                for category, gauge in sorted(self._gauges.items())
            },
            "shards": list(self.shards),
        }


def admission_bytes(profile: MemoryProfile) -> int:
    """``profile``'s live entries priced in bytes by its engine family's
    :data:`BYTES_PER_ENTRY` factor (the watermark's unit)."""
    return entry_bytes(profile.engine, profile.live_entries)


def entry_bytes(engine: str, entries: int) -> int:
    """``entries`` of an ``engine`` execution priced in bytes by its
    family's :data:`BYTES_PER_ENTRY` factor."""
    family = engine.split(":", 1)[0]
    factor = BYTES_PER_ENTRY.get(family) or max(BYTES_PER_ENTRY.values())
    return entries * factor


def attach_tracker(counters: Any, profile: Optional[MemoryProfile]) -> None:
    """Ride ``profile`` on an execution's ``Counters`` as the dynamic
    ``space`` attribute.  ``Counters`` is a plain dataclass, so the extra
    attribute is invisible to its ``fields()``-driven snapshot/merge."""
    if counters is not None and profile is not None:
        counters.space = profile


def tracker_of(counters: Any) -> Optional[MemoryProfile]:
    """The :class:`MemoryProfile` riding on ``counters``, if any: the
    hook every instrumented structure calls at construction."""
    if counters is None:
        return None
    return getattr(counters, "space", None)
