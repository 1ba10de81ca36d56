"""A bounded, thread-safe LRU map with hit/miss accounting.

The one cache shape this library keeps reaching for — the fractional-cover
LP memo, the compiled-kernel templates, the server's plan cache —
extracted so eviction and accounting live in exactly one place.  Plain
``get``/``put`` (no ``__missing__`` magic): callers decide what a miss
costs and whether to store the result.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional


class LruCache:
    """Least-recently-used mapping bounded at ``maxsize`` entries."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("an LRU cache needs room for at least one entry")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value (freshened to most-recent), or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return value

    def reclassify_hit_as_miss(self) -> None:
        """Turn one recorded hit into a miss.

        For validate-on-hit callers: a lookup that found an entry which
        then failed validation (e.g. a stale plan needing a full re-cost)
        did not save the caller any work, so it should count as a miss in
        the hit-rate arithmetic.
        """
        with self._lock:
            if self.hits > 0:
                self.hits -= 1
            self.misses += 1

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh a value, evicting the least-recent overflow."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def info(self) -> dict:
        """Size and hit/miss counts (the shape stats endpoints report)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "maxsize": self.maxsize,
            }
