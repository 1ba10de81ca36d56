"""Priority-queue machinery for ranked enumeration.

The ``ANYK-PART`` family (tutorial Part 3, and the companion VLDB 2020 paper
the tutorial presents) differs only in *how the next-best alternative inside
a bucket of candidate tuples is found*.  This module provides the underlying
structures:

``BinaryHeap``
    A plain binary min-heap with operation counting; the priority queue of
    the cyclic merge, the naive-Lawler strawman, k-shortest paths and the
    top-k middleware (ANYK-PART and ANYK-REC keep the same ``(key, tick,
    payload…)`` layout flat, in :mod:`heapq` lists of their own).
``LazySortedList``
    Incremental heap-sort: a bucket whose sorted order is produced on demand,
    one element per (amortized) O(log b) pop.  Backs the ``Lazy`` (and, with
    sharing, ``Memoized``) successor strategies.
``IncrementalQuickSelect``
    Incremental quickselect (a.k.a. optimal incremental sorting): resolves
    the i-th smallest element lazily by maintaining a stack of pivot
    boundaries.  Backs the ``Quick`` successor strategy.
``TournamentBucket``
    A bucket heapified once in O(b); each element has at most two heap
    children that are no smaller than it.  Backs the ``Take2`` strategy, in
    which a popped solution spawns at most two sibling deviations.

The three bucket structures hold *self-ordering* elements — ANYK-PART
feeds them ``(subtree weight, index)`` pairs, so equal weights break by
bucket position and enumeration is deterministic; ``BinaryHeap`` orders by
a caller-supplied key and breaks ties by insertion order.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Optional, Sequence

from repro.util.counters import Counters


class BinaryHeap:
    """Binary min-heap over ``(key, tiebreak, item)`` entries.

    A thin wrapper around :mod:`heapq` that (a) never compares payload items,
    only keys and an insertion-order tiebreak, (b) counts heap operations
    in an optional :class:`~repro.util.counters.Counters`, and (c) reports
    its entry count into an optional entry gauge
    (:class:`repro.obs.memory.SpaceGauge`) so the memory profiler sees the
    queue's live/peak entries without ever walking it.
    """

    def __init__(
        self, counters: Optional[Counters] = None, gauge: Any = None
    ) -> None:
        self._heap: list[tuple[Any, int, Any]] = []
        self._tick = 0
        self._counters = counters
        self._gauge = gauge

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, key: Any, item: Any) -> None:
        """Insert ``item`` with priority ``key``."""
        if self._counters is not None:
            self._counters.heap_ops += 1
        if self._gauge is not None:
            self._gauge.add(1)
        heapq.heappush(self._heap, (key, self._tick, item))
        self._tick += 1

    def pop(self) -> tuple[Any, Any]:
        """Remove and return ``(key, item)`` with the smallest key."""
        if not self._heap:
            raise IndexError("pop from empty heap")
        if self._counters is not None:
            self._counters.heap_ops += 1
        if self._gauge is not None:
            self._gauge.remove(1)
        key, _, item = heapq.heappop(self._heap)
        return key, item

    def peek(self) -> tuple[Any, Any]:
        """Return (without removing) the smallest ``(key, item)``."""
        if not self._heap:
            raise IndexError("peek at empty heap")
        key, _, item = self._heap[0]
        return key, item


class LazySortedList:
    """A sequence sorted incrementally, one element per request.

    ``get(i)`` returns the i-th smallest element, extending an
    internally materialized sorted prefix with heap pops as needed.  Asking
    for elements in increasing index order — the access pattern of Lawler-
    style successor queries — costs amortized O(log b) per element instead of
    the O(b log b) an eager sort pays up front.
    """

    def __init__(
        self, items: Iterable[Any], counters: Optional[Counters] = None
    ) -> None:
        self._counters = counters
        self._prefix: list[Any] = []
        self._heap: list[Any] = list(items)
        heapq.heapify(self._heap)
        if self._counters is not None:
            self._counters.heap_ops += len(self._heap)

    def __len__(self) -> int:
        return len(self._prefix) + len(self._heap)

    def get(self, index: int) -> Any:
        """Return the ``index``-th smallest element.

        Raises :class:`IndexError` when ``index`` is out of range, which the
        enumeration algorithms use to detect bucket exhaustion.
        """
        if index < 0:
            raise IndexError("negative index")
        while len(self._prefix) <= index:
            if not self._heap:
                raise IndexError("lazy sorted list exhausted")
            if self._counters is not None:
                self._counters.heap_ops += 1
            self._prefix.append(heapq.heappop(self._heap))
        return self._prefix[index]

    def materialized(self) -> Sequence[Any]:
        """The sorted prefix produced so far (for inspection/tests)."""
        return tuple(self._prefix)


class IncrementalQuickSelect:
    """Incremental quickselect over a fixed array.

    Maintains the invariant that a stack of pivot boundaries partitions the
    array into blocks such that everything left of a boundary is no larger
    than everything right of it.  ``get(i)``, called with nondecreasing
    ``i``, quick-partitions only the block containing position ``i``;
    accessing all elements in order costs expected O(b log b) total but the
    first accesses are cheap — exactly the "pay as you go" behaviour the
    ``Quick`` any-k variant exploits.

    A deterministic median-of-three pivot keeps the structure reproducible
    without an RNG.
    """

    def __init__(
        self, items: Iterable[Any], counters: Optional[Counters] = None
    ) -> None:
        self._items = list(items)
        self._counters = counters
        # Stack of exclusive right boundaries of fully-resolved prefixes;
        # the sentinel len(items) means "nothing to the right is resolved".
        self._bounds: list[int] = [len(self._items)]
        self._resolved = 0  # positions < _resolved hold their final element

    def __len__(self) -> int:
        return len(self._items)

    def _compare(self) -> None:
        if self._counters is not None:
            self._counters.comparisons += 1

    def _partition(self, lo: int, hi: int) -> int:
        """Partition ``items[lo:hi]`` around a median-of-three pivot."""
        items = self._items
        mid = (lo + hi - 1) // 2
        pivot_index = sorted((lo, mid, hi - 1), key=items.__getitem__)[1]
        items[pivot_index], items[hi - 1] = items[hi - 1], items[pivot_index]
        pivot = items[hi - 1]
        store = lo
        for i in range(lo, hi - 1):
            self._compare()
            if items[i] <= pivot:
                items[i], items[store] = items[store], items[i]
                store += 1
        items[store], items[hi - 1] = items[hi - 1], items[store]
        return store

    def get(self, index: int) -> Any:
        """Return the ``index``-th smallest element (stable under repeats)."""
        if index < 0 or index >= len(self._items):
            raise IndexError("quickselect index out of range")
        while self._resolved <= index:
            right = self._bounds[-1]
            lo = self._resolved
            if right - lo <= 1:
                # Single-element block: it is resolved by construction.
                self._resolved = right
                self._bounds.pop()
                continue
            pivot = self._partition(lo, right)
            if pivot == lo:
                # Pivot landed at the block start: position lo is final.
                self._resolved = lo + 1
            else:
                self._bounds.append(pivot)
        return self._items[index]


class TournamentBucket:
    """A bucket heapified into an implicit binary tournament.

    After O(b) heapify, element 0 is the bucket minimum and each position
    ``p`` has at most two children ``2p+1`` and ``2p+2`` that are no smaller.
    The ``Take2`` any-k variant replaces "next element in sorted order" with
    "the (at most two) heap children", so each popped solution inserts at
    most two new candidates into the global queue while global correctness is
    preserved by the heap-order property.
    """

    def __init__(
        self, items: Iterable[Any], counters: Optional[Counters] = None
    ) -> None:
        self._entries = list(items)
        heapq.heapify(self._entries)
        if counters is not None:
            counters.heap_ops += len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def root(self) -> Any:
        """The minimum element (position 0)."""
        if not self._entries:
            raise IndexError("empty tournament bucket")
        return self._entries[0]

    def item_at(self, position: int) -> Any:
        """Element stored at heap ``position``."""
        return self._entries[position]

    def children(self, position: int) -> list[int]:
        """Heap child positions of ``position`` (zero, one, or two)."""
        result = []
        left = 2 * position + 1
        if left < len(self._entries):
            result.append(left)
            right = left + 1
            if right < len(self._entries):
                result.append(right)
        return result
