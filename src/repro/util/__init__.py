"""Shared utilities: cost-model instrumentation and heap data structures.

The tutorial's central methodological point is that top-k and optimal-join
algorithms must be compared in the *same* model of computation (the standard
RAM model), rather than the access-count model in which the Threshold
Algorithm's optimality is stated.  :mod:`repro.util.counters` provides the
operation counters that every engine in this library reports, so that all
experiments can present RAM-model operation counts next to wall-clock time.

:mod:`repro.util.heaps` contains the priority-queue machinery used by the
any-k algorithms, including the incremental ("lazy") sorting structures that
back the different ``ANYK-PART`` successor strategies.

:mod:`repro.util.histogram` is the shared mergeable fixed-bucket latency
histogram (exact fold across threads and cursors) behind the load
generator, the server's per-op latency stats, and the anytime-delay
profiler in :mod:`repro.obs`.
"""

from repro.util.counters import (
    Counters,
    global_counters,
    growth_exponent,
    reset_global_counters,
)
from repro.util.histogram import DEFAULT_BOUNDS, Histogram, geometric_bounds
from repro.util.lru import LruCache
from repro.util.heaps import (
    BinaryHeap,
    IncrementalQuickSelect,
    LazySortedList,
    TournamentBucket,
)

__all__ = [
    "Counters",
    "DEFAULT_BOUNDS",
    "Histogram",
    "geometric_bounds",
    "LruCache",
    "global_counters",
    "growth_exponent",
    "reset_global_counters",
    "BinaryHeap",
    "LazySortedList",
    "IncrementalQuickSelect",
    "TournamentBucket",
]
