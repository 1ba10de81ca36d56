"""Space accounting: the third observability layer (bytes, not time).

The any-k guarantees in the paper are time *and space* guarantees — the
variants trade TTF/delay against the growth of their priority queues and
materialized intermediates (ANYK-PART's candidate queue vs ANYK-REC's
memoized solution prefixes vs batch's full materialization).  Layers 1–2
(:mod:`repro.obs.trace`, :mod:`repro.obs.delay`, :mod:`repro.obs.slo`)
measure only time; this module adds the byte axis with the same
lifecycle:

- :class:`SpaceGauge` — an O(1) live/peak entry counter for one named
  structure category ("part.pq", "rec.solutions", "hrjn.buffer", ...),
  each carrying a *calibrated bytes-per-entry model* computed once at
  import from ``sys.getsizeof`` probes.  The hot path is two integer
  adds and two compares — never a ``sys.getsizeof`` walk.
- :class:`MemoryProfile` — the per-execution bundle of gauges with a
  concurrent live/peak byte total.  Profiles ride on the execution's
  :class:`~repro.util.counters.Counters` (a dynamic ``space`` attribute,
  so no engine signature changes), retire into per-engine aggregates,
  and ship per-shard via worker done frames exactly like
  :class:`~repro.obs.delay.DelayProfile`.

Aggregation semantics differ from the delay profiler on purpose: time
is additive across retired cursors, memory is not (a retired cursor's
structures are garbage).  :meth:`MemoryProfile.merge` therefore takes
*maxima* of live/peak bytes and per-category peaks, and sums only the
stream count; the per-cursor peak *distribution* lives in the
``repro_mem_peak_bytes`` registry histogram the server feeds at
retirement.

The byte models deliberately count only the containers the engine
allocates (heap slots, candidate tuples, entry objects, list slots,
fresh floats) — row values are shared with the base relations and would
be double-counted.  ``tests/test_obs_memory.py`` cross-checks the model
against ``tracemalloc`` and pins it within 2x.
"""

from __future__ import annotations

import sys
from typing import Any, Optional

from repro.util.histogram import geometric_bounds

#: Bucket bounds for byte-valued histograms (1 KiB .. 16 GiB).
MEM_BOUNDS = geometric_bounds(lo=1024.0, hi=float(2**34), per_decade=5)

# ----------------------------------------------------------------------
# Calibration probes (run once at import; never on the hot path)
# ----------------------------------------------------------------------
_PTR = 8  # one CPython pointer: a list/heap slot or an object reference
_FLOAT = sys.getsizeof(1.0)  # a fresh float (weights, priorities)
_INT = sys.getsizeof(1 << 30)  # a non-cached int (heap ticks, row ids)


def _tuple_bytes(n: int) -> int:
    """Allocation size of an ``n``-tuple shell (payload counted apart)."""
    return sys.getsizeof((None,) * n)


def _slots_bytes(n: int) -> int:
    """Allocation size of an instance with ``n`` ``__slots__``."""
    probe = type("_Probe", (), {"__slots__": tuple(f"s{i}" for i in range(n))})
    return sys.getsizeof(probe())


_ENTRY = _slots_bytes(4)  # shaped like ``rec._Entry``
_BUCKET = _slots_bytes(7)  # shaped like ``tdp.Bucket``


def _grown_list_bytes(n: int) -> int:
    """Allocation size of an ``n``-element list built by appends (with
    the over-allocation that leaves behind)."""
    probe: list = []
    for _ in range(n):
        probe.append(None)
    return sys.getsizeof(probe)


#: Amortized per-entry cost of a dict slot (key/value/hash triple plus
#: the table's load-factor headroom).  CPython does not expose per-entry
#: dict accounting; 3 machine words of payload at a ~2/3 fill factor is
#: the standard estimate and the tracemalloc cross-check keeps it honest.
_DICT_SLOT = 5 * _PTR


# ----------------------------------------------------------------------
# Bytes-per-entry models, one per instrumented structure
# ----------------------------------------------------------------------
def pq_entry_bytes(stages: int) -> int:
    """One ANYK-PART candidate in the global priority queue.

    The fixed part: heap slot + the flat 8-field ``(priority, tick,
    solution, position, choice, anchor, bucket, prefix_weight)`` entry +
    fresh priority float + tick int + the carried prefix-weight float
    (choice, anchor and bucket are shared).  Plus the emitted answer's
    ``stages``-long id list the entry points at: it is shared by every
    candidate that answer left behind (measured 0.3–0.9 live lists per
    entry under ``lazy``, fewer under ``take2`` / ``all``), and charged
    to each entry as if unshared — the model stays an upper bound.
    """
    return (
        _PTR
        + _tuple_bytes(8)
        + 2 * _FLOAT
        + _INT
        + _grown_list_bytes(stages)
    )


def rec_entry_bytes(children: int) -> int:
    """One ANYK-REC heap candidate: heap slot + the flat ``(weight,
    position, tick, children, j)`` entry + weight float + tick int + the
    tuple of the ``children`` child entries it is composed from."""
    return _PTR + _tuple_bytes(5) + _FLOAT + _INT + _tuple_bytes(children)


def rec_solution_bytes(children: int) -> int:
    """One memoized ``_Entry`` in a REC stream's solution prefix: list
    slot + the 4-slot entry + its weight float and rank int + the tuple
    of the ``children`` child entries it keeps."""
    return _PTR + _ENTRY + _FLOAT + _INT + _tuple_bytes(children)


def tdp_tuple_bytes() -> int:
    """Per-tuple T-DP state: tuple-id and subtree-weight list slots in
    the bucket, the lifted-weight slot, and the subtree weight float."""
    return 3 * _PTR + _FLOAT


def tdp_bucket_bytes() -> int:
    """Per-bucket overhead: its one slot in the stage's dict, the slotted
    ``Bucket`` record, and its two list headers."""
    return _DICT_SLOT + _BUCKET + 2 * sys.getsizeof([])


def hrjn_seen_bytes() -> int:
    """One tuple retained in an HRJN side buffer: the seen-list slot and
    its ``(row, weight)`` pair (the row itself is shared)."""
    return _PTR + _tuple_bytes(2) + _FLOAT + _DICT_SLOT


def hrjn_result_bytes(arity: int) -> int:
    """One joined row buffered in the HRJN output heap."""
    return _PTR + _tuple_bytes(3) + _FLOAT + _INT + _tuple_bytes(arity)


def sorted_scan_bytes() -> int:
    """Per-row cost of a rank-join sorted scan copy: fresh row/weight
    list slots (rows and weights are shared with the base relation)."""
    return 2 * _PTR


def row_bytes(arity: int) -> int:
    """One materialized output row: the tuple shell, its fresh combined
    weight, and the rows/weights list slots holding them."""
    return _tuple_bytes(arity) + _FLOAT + 2 * _PTR


def join_build_entry_bytes() -> int:
    """One build-side index entry of a binary hash join (amortized:
    the key dict slot is shared across rows with equal keys)."""
    return _PTR + _INT + _DICT_SLOT // 2


def batch_sort_bytes() -> int:
    """Per-result cost of the batch engine's sort pass: the lifted
    weight and its list slot, the order index int and its slot."""
    return _FLOAT + _INT + 2 * _PTR


def q_error(estimated: float, actual: float) -> float:
    """The planner's Q-error: ``max(est/actual, actual/est)`` with both
    sides floored at one row (Moerkotte et al.'s convention, so empty
    results and zero estimates compare as 1 row instead of dividing by
    zero)."""
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return est / act if est >= act else act / est


# ----------------------------------------------------------------------
# Live/peak accounting
# ----------------------------------------------------------------------
class SpaceGauge:
    """O(1) live/peak entry counter for one structure category.

    ``add``/``remove`` adjust this gauge's entry count and the owning
    profile's concurrent byte total; the profile records the high-water
    mark across *all* its gauges, so simultaneous growth in two
    structures peaks higher than either alone — exactly the concurrency
    ``tracemalloc`` sees.
    """

    __slots__ = ("profile", "category", "unit_bytes", "entries", "peak_entries")

    def __init__(
        self, profile: "MemoryProfile", category: str, unit_bytes: int
    ) -> None:
        self.profile = profile
        self.category = category
        self.unit_bytes = max(1, int(unit_bytes))
        self.entries = 0
        self.peak_entries = 0

    def add(self, n: int = 1) -> None:
        entries = self.entries + n
        self.entries = entries
        if entries > self.peak_entries:
            self.peak_entries = entries
        profile = self.profile
        live = profile.live_bytes + n * self.unit_bytes
        profile.live_bytes = live
        if live > profile.peak_bytes:
            profile.peak_bytes = live

    def remove(self, n: int = 1) -> None:
        self.entries -= n
        self.profile.live_bytes -= n * self.unit_bytes

    @property
    def live_bytes(self) -> int:
        return self.entries * self.unit_bytes

    @property
    def peak_bytes(self) -> int:
        return self.peak_entries * self.unit_bytes


class MemoryProfile:
    """Per-execution space profile: a bundle of gauges plus totals.

    Mirrors :class:`~repro.obs.delay.DelayProfile`'s lifecycle — one per
    cursor, folded into per-engine aggregates at retirement, worker
    snapshots appended to ``shards`` for attribution — but with max-based
    aggregation (see the module docstring).
    """

    __slots__ = (
        "engine",
        "live_bytes",
        "peak_bytes",
        "streams",
        "shards",
        "_gauges",
    )

    def __init__(self, engine: str = "") -> None:
        self.engine = engine
        self.live_bytes = 0
        self.peak_bytes = 0
        self.streams = 0
        self.shards: list[dict] = []
        self._gauges: dict[str, SpaceGauge] = {}

    # -- accounting ----------------------------------------------------
    def gauge(self, category: str, unit_bytes: int) -> SpaceGauge:
        """The gauge for ``category`` (created on first use; shared by
        every structure of that category in this execution)."""
        gauge = self._gauges.get(category)
        if gauge is None:
            gauge = SpaceGauge(self, category, unit_bytes)
            self._gauges[category] = gauge
        return gauge

    @property
    def touched(self) -> bool:
        """Whether any structure ever reported into this profile."""
        return bool(self._gauges) or self.peak_bytes > 0 or bool(self.shards)

    def categories(self) -> dict[str, SpaceGauge]:
        return dict(self._gauges)

    # -- aggregation ---------------------------------------------------
    def merge(self, other: "MemoryProfile") -> "MemoryProfile":
        """Fold ``other`` (a retired execution) into this aggregate:
        stream counts add, byte figures take the maximum."""
        if not self.engine:
            self.engine = other.engine
        self.streams += other.streams
        self.live_bytes = max(self.live_bytes, other.live_bytes)
        self.peak_bytes = max(self.peak_bytes, other.peak_bytes)
        for category, theirs in other._gauges.items():
            mine = self.gauge(category, theirs.unit_bytes)
            mine.entries = max(mine.entries, theirs.entries)
            mine.peak_entries = max(mine.peak_entries, theirs.peak_entries)
        self.shards.extend(other.shards)
        return self

    def merge_snapshot(self, snapshot: dict) -> "MemoryProfile":
        """Fold a :meth:`snapshot` dict (a worker's, a stored one)."""
        if not self.engine:
            self.engine = snapshot.get("engine", "")
        self.streams += int(snapshot.get("streams", 0))
        self.live_bytes = max(self.live_bytes, int(snapshot.get("live_bytes", 0)))
        self.peak_bytes = max(self.peak_bytes, int(snapshot.get("peak_bytes", 0)))
        for category, data in snapshot.get("categories", {}).items():
            mine = self.gauge(category, int(data.get("unit_bytes", 1)))
            mine.entries = max(mine.entries, int(data.get("entries", 0)))
            mine.peak_entries = max(
                mine.peak_entries, int(data.get("peak_entries", 0))
            )
        self.shards.extend(snapshot.get("shards", ()))
        return self

    # -- export --------------------------------------------------------
    def snapshot(self) -> dict:
        """Picklable full state (worker done frames, persistence)."""
        return {
            "engine": self.engine,
            "live_bytes": self.live_bytes,
            "peak_bytes": self.peak_bytes,
            "streams": self.streams,
            "categories": {
                category: {
                    "unit_bytes": gauge.unit_bytes,
                    "entries": gauge.entries,
                    "peak_entries": gauge.peak_entries,
                }
                for category, gauge in self._gauges.items()
            },
            "shards": list(self.shards),
        }

    def summary(self) -> dict:
        """JSON-ready digest for stats payloads and CLI rendering."""
        return {
            "engine": self.engine,
            "streams": self.streams,
            "live_bytes": self.live_bytes,
            "peak_bytes": self.peak_bytes,
            "peak_mb": round(self.peak_bytes / (1024.0 * 1024.0), 3),
            "categories": {
                category: {
                    "unit_bytes": gauge.unit_bytes,
                    "live_entries": gauge.entries,
                    "peak_entries": gauge.peak_entries,
                    "peak_bytes": gauge.peak_bytes,
                }
                for category, gauge in sorted(self._gauges.items())
            },
            "shards": [
                {
                    "shard": shard.get("shard"),
                    "live_bytes": shard.get("live_bytes", 0),
                    "peak_bytes": shard.get("peak_bytes", 0),
                }
                for shard in self.shards
            ],
        }


# ----------------------------------------------------------------------
# Counters plumbing (engines never change signature for this)
# ----------------------------------------------------------------------
def attach_tracker(counters: Any, profile: Optional[MemoryProfile]) -> None:
    """Ride ``profile`` on an execution's ``Counters`` as the dynamic
    ``space`` attribute.  ``Counters`` is a plain dataclass, so the extra
    attribute is invisible to its ``fields()``-driven snapshot/merge."""
    if counters is not None and profile is not None:
        counters.space = profile


def tracker_of(counters: Any) -> Optional[MemoryProfile]:
    """The :class:`MemoryProfile` riding on ``counters``, if any.

    The single hook every instrumented structure calls at construction;
    ``None`` (no profiling requested) keeps the hot path untouched.
    """
    if counters is None:
        return None
    return getattr(counters, "space", None)
