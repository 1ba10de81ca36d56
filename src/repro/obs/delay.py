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

Two clocks per result, deliberately:

- ``delay`` (histogram) — busy time producing this result.  Paused
  cursors do not pollute it: a page fetched an hour after the last one
  charges only the enumeration work, not the idle hour.
- ``ttf_ms`` / ``ttk_ms[k]`` — *wall* time from the first pull to the
  1st / k-th result, the quantity an end user experiences and the one
  ``tests/test_obs.py`` cross-checks against an external clock.

Profiles are mergeable (histograms fold exactly, TTF/TT(k) become
distributions across queries) and snapshot/restore across process
boundaries, so :mod:`repro.parallel` shard workers profile their own
shard streams and ship the profile home in the final queue frame —
per-shard attribution for the merged stream, with no IPC on the
per-result path.
"""

from __future__ import annotations

import time
from typing import Any, Iterator, Optional

from repro.util.histogram import Histogram, geometric_bounds

#: Result ranks at which cumulative wall time is checkpointed.  Chosen to
#: bracket the paper's k regimes (tiny / small / DEEP_K / beyond).
TTK_CHECKPOINTS: tuple[int, ...] = (1, 10, 100, 1000, 10000)

#: Per-result delays sit well under a millisecond for warm engines, so the
#: delay histogram opens two decades lower than the latency default.
DELAY_BOUNDS = geometric_bounds(lo=0.0001, hi=60_000.0, per_decade=20)


class DelayProfile:
    """Delay/TTF/TT(k) measurements for one cursor (or one fold of many).

    Single-writer on the hot path (the enumerating thread); merging and
    snapshotting are done by the owner after the stream quiesces.
    """

    __slots__ = (
        "engine",
        "delay",
        "ttf",
        "ttk",
        "results",
        "streams",
        "busy_ms",
        "shards",
        "_started",
        "_live_results",
        "_live_busy_ms",
        "_counted_stream",
    )

    def __init__(self, engine: str = "") -> None:
        self.engine = engine
        #: Per-result production (busy) time, ms.
        self.delay = Histogram(DELAY_BOUNDS)
        #: Wall time to the first result, one observation per stream, ms.
        self.ttf = Histogram()
        #: checkpoint k -> Histogram of wall time to the k-th result, ms.
        self.ttk: dict[int, Histogram] = {}
        #: Results measured across all folded streams.
        self.results = 0
        #: Streams folded in (a merged profile aggregates many cursors).
        self.streams = 0
        #: Total busy enumeration time, ms.
        self.busy_ms = 0.0
        #: Folded worker snapshots: shard index -> snapshot dict.
        self.shards: list[dict] = []
        self._started: Optional[float] = None
        self._live_results = 0
        self._live_busy_ms = 0.0
        self._counted_stream = False

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
                if not self._counted_stream:
                    self._counted_stream = True
                    self.streams += 1
            before = time.perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                self._live_busy_ms += (time.perf_counter() - before) * 1000.0
                return
            now = time.perf_counter()
            produced_ms = (now - before) * 1000.0
            self.delay.record(produced_ms)
            self._live_busy_ms += produced_ms
            self._live_results += 1
            self.results += 1
            wall_ms = (now - self._started) * 1000.0
            if self._live_results == 1:
                self.ttf.record(wall_ms)
            if self._live_results in TTK_CHECKPOINTS:
                self.ttk.setdefault(self._live_results, Histogram()).record(wall_ms)
            yield item

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def _flush_live(self) -> None:
        self.busy_ms += self._live_busy_ms
        self._live_busy_ms = 0.0

    def merge(self, other: "DelayProfile") -> "DelayProfile":
        """Fold another (quiescent) profile into this one."""
        other._flush_live()
        self._flush_live()
        self.delay.merge(other.delay)
        self.ttf.merge(other.ttf)
        for k, hist in other.ttk.items():
            self.ttk.setdefault(k, Histogram()).merge(hist)
        self.results += other.results
        self.streams += other.streams
        self.busy_ms += other.busy_ms
        self.shards.extend(other.shards)
        return self

    def merge_snapshot(self, snapshot: dict) -> "DelayProfile":
        """Fold a :meth:`snapshot` dict (e.g. shipped from a worker)."""
        self._flush_live()
        self.delay.merge(Histogram.from_dict(snapshot["delay"]))
        self.ttf.merge(Histogram.from_dict(snapshot["ttf"]))
        for k, hist in snapshot.get("ttk", {}).items():
            self.ttk.setdefault(int(k), Histogram()).merge(Histogram.from_dict(hist))
        self.results += snapshot.get("results", 0)
        self.streams += snapshot.get("streams", 0)
        self.busy_ms += snapshot.get("busy_ms", 0.0)
        self.shards.extend(snapshot.get("shards", ()))
        return self

    def snapshot(self) -> dict:
        """A picklable/JSON-ready dump, exact under :meth:`merge_snapshot`."""
        self._flush_live()
        return {
            "engine": self.engine,
            "delay": self.delay.to_dict(),
            "ttf": self.ttf.to_dict(),
            "ttk": {k: hist.to_dict() for k, hist in self.ttk.items()},
            "results": self.results,
            "streams": self.streams,
            "busy_ms": self.busy_ms,
            "shards": list(self.shards),
        }

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready digest: the shape ``stats``/benchmarks embed."""
        self._flush_live()
        out = {
            "engine": self.engine,
            "streams": self.streams,
            "results": self.results,
            "busy_ms": round(self.busy_ms, 4),
            "delay_ms": self.delay.summary(),
            "ttf_ms": self.ttf.summary(),
            "ttk_ms": {
                str(k): self.ttk[k].summary() for k in sorted(self.ttk)
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
