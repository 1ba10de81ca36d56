"""Session/cursor manager: paused enumerations that survive requests.

A cursor is one query's :class:`~repro.anyk.api.PausableStream` plus the
metadata a later ``fetch`` needs (output columns, the chosen engine, the
per-session operation counters).  The manager enforces an admission limit
— every open cursor pins T-DP state and generator frames, so a server
must bound them — and evicts *idle* cursors first when the limit is hit,
rejecting only when every slot is genuinely live.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Optional

from typing import TYPE_CHECKING

from repro.anyk.api import PausableStream
from repro.obs.memory import admission_bytes
from repro.util.counters import Counters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.delay import DelayProfile
    from repro.obs.memory import MemoryProfile


class CursorLimitError(Exception):
    """Admission control: the server is at its open-cursor limit."""


class MemoryPressureError(Exception):
    """Admission control: the server is over its memory watermark.

    Raised *before* planning/stream construction when the live bytes of
    all open cursors (:func:`repro.obs.memory.admission_bytes`) exceed
    ``--max-mem-mb`` and evicting idle cursors could not free enough —
    the clean refusal that replaces an eventual OOM.  Maps to the ``mem_pressure`` wire error code, never
    ``internal``.
    """


class UnknownCursorError(Exception):
    """The cursor id is not open (never existed, closed, or evicted)."""


class Cursor:
    """One open enumeration session."""

    def __init__(
        self,
        cursor_id: str,
        sql: str,
        engine: str,
        columns: tuple[str, ...],
        stream: PausableStream,
        counters: Counters,
        profile: Optional["DelayProfile"] = None,
        memory: Optional["MemoryProfile"] = None,
    ) -> None:
        self.id = cursor_id
        self.sql = sql
        self.engine = engine
        self.columns = columns
        self.stream = stream
        self.counters = counters
        #: The session's anytime-delay profile (wrapped around the engine
        #: stream by the service); folded into the per-engine registry
        #: histograms when the cursor retires.
        self.profile = profile
        #: The session's space profile — live/peak entries of the engine
        #: structures this cursor pins; read by the admission watermark
        #: and folded like ``profile`` at retirement.
        self.memory = memory
        self.created = time.monotonic()
        self.last_used = self.created

    def fetch(
        self, n: int, deadline: Optional[float] = None
    ) -> tuple[list, bool]:
        """Resume the paused stream for up to ``n`` more results."""
        self.last_used = time.monotonic()
        return self.stream.take(n, deadline=deadline)

    @property
    def emitted(self) -> int:
        return self.stream.emitted

    def describe(self) -> dict:
        """Cursor metadata for the ``stats`` endpoint."""
        now = time.monotonic()
        out = {
            "cursor": self.id,
            "sql": self.sql,
            "engine": self.engine,
            "emitted": self.emitted,
            "age_s": round(now - self.created, 3),
            "idle_s": round(now - self.last_used, 3),
        }
        if self.memory is not None:
            out["live_entries"] = self.memory.live_entries
            out["peak_entries"] = self.memory.peak_entries
        return out


class CursorManager:
    """Thread-safe registry of open cursors with admission control."""

    def __init__(
        self,
        limit: int = 64,
        idle_evict_s: Optional[float] = 600.0,
        on_evict: Optional[Callable[[Cursor], None]] = None,
    ) -> None:
        if limit < 1:
            raise ValueError("the cursor limit must be at least 1")
        self.limit = limit
        #: Cursors idle longer than this are eviction candidates when the
        #: limit is hit (None disables idle eviction entirely).
        self.idle_evict_s = idle_evict_s
        #: Called (outside the manager lock) for each cursor removed by
        #: idle eviction, so the owner can account for the session's work
        #: exactly like an explicit close would.
        self.on_evict = on_evict
        self.opened = 0
        self.closed = 0
        self.evicted = 0
        self.rejected = 0
        self._cursors: dict[str, Cursor] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def ensure_capacity(self) -> None:
        """Cheap admission pre-check: raise :class:`CursorLimitError` now
        if an :meth:`open` would certainly be rejected.

        Lets the service refuse *before* paying for planning and stream
        construction under overload (the regime the limit exists for).
        TOCTOU races are fine — :meth:`open` re-checks authoritatively.
        """
        with self._lock:
            if len(self._cursors) < self.limit:
                return
            if self.idle_evict_s is not None:
                now = time.monotonic()
                if any(
                    now - c.last_used >= self.idle_evict_s
                    for c in self._cursors.values()
                ):
                    return  # open() will make room by evicting
            self.rejected += 1
        raise CursorLimitError(
            f"open-cursor limit reached ({self.limit}); close or drain a "
            "cursor first"
        )

    def open(
        self,
        sql: str,
        engine: str,
        columns: tuple[str, ...],
        stream: PausableStream,
        counters: Counters,
        profile: Optional["DelayProfile"] = None,
        memory: Optional["MemoryProfile"] = None,
    ) -> Cursor:
        """Register a new cursor; raises :class:`CursorLimitError` when
        full and nothing is idle enough to evict."""
        victims: list[Cursor] = []
        try:
            with self._lock:
                if len(self._cursors) >= self.limit:
                    victims = self._collect_idle_victims_locked()
                if len(self._cursors) >= self.limit:
                    self.rejected += 1
                    raise CursorLimitError(
                        f"open-cursor limit reached ({self.limit}); close "
                        "or drain a cursor first"
                    )
                cursor_id = f"c{next(self._ids)}"
                cursor = Cursor(
                    cursor_id,
                    sql,
                    engine,
                    columns,
                    stream,
                    counters,
                    profile,
                    memory=memory,
                )
                self._cursors[cursor_id] = cursor
                self.opened += 1
        finally:
            # Dispose of evicted streams *outside* the manager lock: a
            # close() blocking on a victim's in-flight take() must not
            # stall every other cursor operation on the server.
            for victim in victims:
                victim.stream.close()
                if self.on_evict is not None:
                    self.on_evict(victim)
        return cursor

    def _collect_idle_victims_locked(self) -> list[Cursor]:
        """Unregister (but do not dispose) enough idle cursors to admit
        one more; returns them for cleanup outside the lock."""
        if self.idle_evict_s is None:
            return []
        now = time.monotonic()
        stale = [
            c
            for c in self._cursors.values()
            if now - c.last_used >= self.idle_evict_s
        ]
        # Oldest-idle first, and only as many as needed to admit one more.
        stale.sort(key=lambda c: c.last_used)
        victims = stale[: len(self._cursors) - self.limit + 1]
        for cursor in victims:
            del self._cursors[cursor.id]
            self.evicted += 1
        return victims

    def live_mem_bytes(self) -> int:
        """Live bytes across every open cursor's engine structures, each
        cursor's live entries priced by its engine family's factor (0
        for cursors opened without a memory profile)."""
        with self._lock:
            return self._live_mem_bytes_locked()

    def _live_mem_bytes_locked(self) -> int:
        return sum(
            admission_bytes(c.memory)
            for c in self._cursors.values()
            if c.memory is not None
        )

    def evict_for_memory(
        self, watermark_bytes: int, min_idle_s: float = 1.0
    ) -> int:
        """Evict oldest-idle cursors until live bytes
        (:meth:`live_mem_bytes`) drop below ``watermark_bytes``; returns
        how many were evicted.

        Cursors idle for less than ``min_idle_s`` are protected: memory
        pressure sheds abandoned sessions, it must not cancel a cursor a
        client is actively paging through.  Disposal happens outside the
        manager lock, exactly like limit-driven idle eviction.
        """
        victims: list[Cursor] = []
        try:
            with self._lock:
                live = self._live_mem_bytes_locked()
                if live < watermark_bytes:
                    return 0
                now = time.monotonic()
                idle = [
                    c
                    for c in self._cursors.values()
                    if now - c.last_used >= min_idle_s
                ]
                idle.sort(key=lambda c: c.last_used)
                for cursor in idle:
                    if live < watermark_bytes:
                        break
                    del self._cursors[cursor.id]
                    self.evicted += 1
                    victims.append(cursor)
                    if cursor.memory is not None:
                        live -= admission_bytes(cursor.memory)
        finally:
            for victim in victims:
                victim.stream.close()
                if self.on_evict is not None:
                    self.on_evict(victim)
        return len(victims)

    def get(self, cursor_id: str) -> Cursor:
        with self._lock:
            cursor = self._cursors.get(cursor_id)
        if cursor is None:
            raise UnknownCursorError(
                f"no open cursor {cursor_id!r} (closed, evicted, or never "
                "opened)"
            )
        return cursor

    def close(self, cursor_id: str) -> Cursor:
        """Remove and return the cursor; its stream is disposed."""
        with self._lock:
            cursor = self._cursors.pop(cursor_id, None)
            if cursor is not None:
                self.closed += 1
        if cursor is None:
            raise UnknownCursorError(f"no open cursor {cursor_id!r}")
        cursor.stream.close()
        return cursor

    def close_all(self) -> list[Cursor]:
        with self._lock:
            cursors = list(self._cursors.values())
            self._cursors.clear()
            self.closed += len(cursors)
        for cursor in cursors:
            cursor.stream.close()
        return cursors

    def __len__(self) -> int:
        return len(self._cursors)

    def stats(self) -> dict:
        with self._lock:
            return {
                "open": len(self._cursors),
                "limit": self.limit,
                "opened": self.opened,
                "closed": self.closed,
                "evicted": self.evicted,
                "rejected": self.rejected,
                "cursors": [c.describe() for c in self._cursors.values()],
            }
