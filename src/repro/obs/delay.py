"""The anytime-delay profiler: in-engine TTF / TT(k) / inter-result delay.

The paper's claims are statements about *time between ranked results*:
any-k algorithms bound the delay between consecutive answers, which is
what makes time-to-first and time-to-k sublinear in the output.  The
benchmark's wire workloads (``python3 -m bench``) measure those
quantities from the *outside* — wall clock across the wire, planning and
framing included.  This profiler measures them where they are produced:
wrapped around the engine's ranked stream, charging each result with the
time spent *inside* the enumeration (``next()`` on the engine iterator)
and tracking wall time from stream start for TTF/TT(k).

Two clocks, deliberately:

- ``delay`` (histogram) — busy time producing this result.  Paused
  cursors do not pollute it: a page fetched an hour after the last one
  charges only the enumeration work, not the idle hour.
- ``ttf_ms`` / ``ttk_ms[k]`` — *wall* time from the first pull to the
  1st / k-th result, the quantity an end user experiences and the one
  ``tests/test_obs.py`` cross-checks against an external clock.

A profile measures exactly one stream, so TTF and each TT(k) are one
number apiece.  The server folds a retiring cursor's delay histogram and
its TTF into its per-engine registry families (``repro_result_delay_ms``
/ ``repro_ttf_ms``), which are the only cross-query aggregate.  Under
:mod:`repro.parallel` the profile measures the merged stream; each shard
worker's done frame carries its ``results`` and ``busy_ms``, which are
filed under ``shards`` — per-shard attribution, with no IPC on the
per-result path.
"""

from __future__ import annotations

import time
from typing import Any, Iterator, Optional

from repro.util.histogram import Histogram, geometric_bounds

#: Result ranks at which cumulative wall time is checkpointed.  Chosen to
#: bracket the paper's k regimes (tiny / small / deep / beyond).
TTK_CHECKPOINTS: tuple[int, ...] = (1, 10, 100, 1000, 10000)

#: Per-result delays sit well under a millisecond for warm engines, so the
#: delay histogram opens two decades lower than the latency default.
DELAY_BOUNDS = geometric_bounds(lo=0.0001, hi=60_000.0, per_decade=20)


class DelayProfile:
    """Delay/TTF/TT(k) measurements for one cursor's stream.

    Single-writer on the hot path (the enumerating thread); the owner
    summarizes after the stream quiesces.
    """

    __slots__ = (
        "engine",
        "delay",
        "ttf_ms",
        "ttk_ms",
        "results",
        "busy_ms",
        "shards",
        "_started",
    )

    def __init__(self, engine: str = "") -> None:
        self.engine = engine
        #: Per-result production (busy) time, ms.
        self.delay = Histogram(DELAY_BOUNDS)
        #: Wall time to the first result, ms (None before it).
        self.ttf_ms: Optional[float] = None
        #: checkpoint k -> wall time to the k-th result, ms.
        self.ttk_ms: dict[int, float] = {}
        #: Results measured.
        self.results = 0
        #: Total busy enumeration time, ms.
        self.busy_ms = 0.0
        #: ``{"shard", "results", "busy_ms"}`` per shard of a sharded run.
        self.shards: list[dict] = []
        self._started: Optional[float] = None

    @property
    def streams(self) -> int:
        """1 once the stream has been pulled, else 0."""
        return int(self._started is not None)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def wrap(self, stream: Iterator[tuple[tuple, Any]]) -> Iterator[tuple[tuple, Any]]:
        """Measure ``stream`` as it is drained (lazy; pausable).

        The wall clock for TTF/TT(k) starts at the *first pull* — after
        planning, exactly when the engine starts working — so the
        numbers quantify enumeration, not compilation.
        """
        iterator = iter(stream)
        while True:
            if self._started is None:
                self._started = time.perf_counter()
            before = time.perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                self.busy_ms += (time.perf_counter() - before) * 1000.0
                return
            now = time.perf_counter()
            produced_ms = (now - before) * 1000.0
            self.delay.record(produced_ms)
            self.busy_ms += produced_ms
            self.results += 1
            wall_ms = (now - self._started) * 1000.0
            if self.results == 1:
                self.ttf_ms = wall_ms
            if self.results in TTK_CHECKPOINTS:
                self.ttk_ms[self.results] = wall_ms
            yield item

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready digest: the shape EXPLAIN ANALYZE embeds."""
        out = {
            "engine": self.engine,
            "streams": self.streams,
            "results": self.results,
            "busy_ms": round(self.busy_ms, 4),
            "delay_ms": self.delay.summary(),
            "ttf_ms": None if self.ttf_ms is None else round(self.ttf_ms, 4),
            "ttk_ms": {
                str(k): round(self.ttk_ms[k], 4) for k in sorted(self.ttk_ms)
            },
        }
        if self.shards:
            out["shards"] = [
                {
                    "shard": shard.get("shard", index),
                    "results": shard.get("results", 0),
                    "busy_ms": round(shard.get("busy_ms", 0.0), 4),
                }
                for index, shard in enumerate(self.shards)
            ]
        return out

    def __repr__(self) -> str:
        return (
            f"DelayProfile(engine={self.engine!r}, results={self.results}, "
            f"streams={self.streams})"
        )
