"""Session/cursor manager: shared ranked streams that survive requests.

A ranked stream is a pure function of the statement and the snapshot, so
the server keeps one :class:`SharedStream` per (SQL text, typed params,
engine override, snapshot version): the paused engine enumeration plus a
memo of the rows it has produced.  A cursor is one
:class:`StreamReader` on such a stream — its own offset into the memo —
and only a read past the memo's end pulls the engine, the way ANYK-REC
lets every parent read a subtree's one memoized prefix.  The stream owns
the execution's operation counters and delay/space profiles, which fold
into the server's aggregates once, when the stream first loses its last
reader.

A stream that loses its last reader is closed unless it ended cleanly
(exhausted, no source error).  A completed stream stays joinable: a
later cursor on its key reads the finished memo from offset 0 and pulls
no engine.  Completed results are kept for the newest snapshot version
only — the first completed or looked-up key of a newer version drops
every reader-less result of an older one — and at most
:attr:`CursorManager.retain_limit` of them (LRU) holding at most
:attr:`CursorManager.retain_rows` rows together; a longer result is never
kept.

The manager enforces an admission limit — every open cursor pins engine
state and a memo, so a server must bound them — and evicts *idle*
cursors first when the limit is hit, rejecting only when every slot is
genuinely live.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from typing import Callable, Hashable, Iterator, Optional

from typing import TYPE_CHECKING

from repro.anyk.api import StreamClosed
from repro.obs.memory import admission_bytes, entry_bytes
from repro.util.counters import Counters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.delay import DelayProfile
    from repro.obs.memory import MemoryProfile


class CursorLimitError(Exception):
    """Admission control: the server is at its open-cursor limit."""


class MemoryPressureError(Exception):
    """Admission control: the server is over its memory watermark.

    Raised *before* planning/stream construction when the live bytes of
    all open streams (:func:`repro.obs.memory.admission_bytes`) exceed
    ``--max-mem-mb`` and evicting idle cursors could not free enough —
    the clean refusal that replaces an eventual OOM.  Maps to the ``mem_pressure`` wire error code, never
    ``internal``.
    """


class UnknownCursorError(Exception):
    """The cursor id is not open (never existed, closed, or evicted)."""


#: Space-profile category of the rows a shared stream has memoized.
MEMO_CATEGORY = "server.memo"


class SharedStream:
    """One statement's ranked stream on one snapshot, memoized for every
    cursor that reads it.

    ``source`` is the engine stream (``execute(...)``).  :meth:`extend`
    pulls it into :attr:`rows` one page at a time under one lock hold;
    readers slice the memo without the lock.  An exception the source
    raises is kept with the offset it was raised at, so every reader that
    reaches that offset gets it again — a failed stream never reads as
    exhausted.  (This is why the stream pulls its source itself instead
    of through a :class:`~repro.anyk.api.PausableStream`, which drops the
    page in progress when the source raises.)  Memo rows are charged to
    ``memory`` as entries of :data:`MEMO_CATEGORY`.  :attr:`readers` and
    :attr:`folded` are kept by the :class:`CursorManager`, under its
    lock.
    """

    def __init__(
        self,
        source: Iterator[tuple[tuple, object]],
        key: Optional[Hashable] = None,
        sql: str = "",
        engine: str = "",
        columns: tuple[str, ...] = (),
        version: Optional[int] = None,
        counters: Optional[Counters] = None,
        profile: Optional["DelayProfile"] = None,
        memory: Optional["MemoryProfile"] = None,
    ) -> None:
        self.key = key
        self.sql = sql
        self.engine = engine
        self.columns = columns
        self.version = version
        self.counters = counters if counters is not None else Counters()
        #: The execution's anytime-delay profile (wrapped around the
        #: engine stream by the service); folded into the per-engine
        #: registry histograms when the last reader retires.
        self.profile = profile
        #: The execution's space profile — live/peak entries of the engine
        #: structures and the memo; read by the admission watermark and
        #: folded like ``profile``.
        self.memory = memory
        self.rows: list[tuple[tuple, object]] = []
        self.exhausted = False
        self.error: Optional[BaseException] = None
        self.closed = False
        self.readers = 0
        #: Set when the stream first loses its last reader, whose
        #: retirement folds its counters and profiles; a completed stream
        #: read again later folds nothing more.
        self.folded = False
        self._source = iter(source)
        self._lock = threading.Lock()

    def extend(self, end: int, deadline: Optional[float] = None) -> None:
        """Pull the source until the memo holds ``end`` rows, the source
        ends or fails, or ``deadline`` (a :func:`time.monotonic`
        timestamp) passes."""
        with self._lock:
            rows = self.rows
            start = len(rows)
            if start >= end or self.exhausted or self.error is not None:
                return
            if self.closed:
                raise StreamClosed(
                    "the stream was closed with results still pending"
                )
            source = self._source
            try:
                if deadline is None:
                    # list.extend keeps the rows pulled before a raise.
                    rows.extend(itertools.islice(source, end - start))
                    self.exhausted = len(rows) < end
                else:
                    while len(rows) < end and time.monotonic() < deadline:
                        rows.append(next(source))
            except StopIteration:
                self.exhausted = True
            except Exception as exc:
                self.error = exc
            if self.memory is not None:
                if self.exhausted or self.error is not None:
                    # The source's structures were just released with its
                    # frame; the memo is all that stays live.
                    self.memory.release()
                    start = 0
                if len(rows) > start:
                    self.memory.gauge(MEMO_CATEGORY).add(len(rows) - start)

    def close(self) -> None:
        """Dispose of the source (frees its frames) and zero the live
        entries; called once, when the last reader of a stream that is not
        kept as a completed result retires."""
        with self._lock:
            self.closed = True
            close = getattr(self._source, "close", None)
            if close is not None:
                close()
            if self.memory is not None:
                self.memory.release()


class StreamReader:
    """One cursor's position in a :class:`SharedStream`, with
    :class:`~repro.anyk.api.PausableStream`'s surface.

    A per-reader lock serializes this reader's takes, so concurrent
    fetches on one cursor hand out contiguous, dup-free pages.  Pages,
    ``done`` and the emitted count are what a stream of its own would
    give: ``done`` comes with the first take that reads past the end.
    """

    def __init__(self, shared: SharedStream) -> None:
        self.shared = shared
        self._lock = threading.Lock()
        self._emitted = 0
        self._exhausted = False
        self._closed = False

    @property
    def exhausted(self) -> bool:
        """True once this reader has read past the stream's end."""
        return self._exhausted

    @property
    def closed(self) -> bool:
        """True after :meth:`close` (whether or not results remained)."""
        return self._closed

    @property
    def emitted(self) -> int:
        """How many results this reader has handed out so far."""
        return self._emitted

    def take(
        self, n: int, deadline: Optional[float] = None
    ) -> tuple[list[tuple[tuple, object]], bool]:
        """Up to ``n`` more results from this reader's offset; returns
        ``(results, done)``.

        Memoized rows cost nothing; a read past the memo's end pulls the
        engine, stopping at ``deadline`` like
        :meth:`~repro.anyk.api.PausableStream.take`.  A source failure is
        raised once this reader reaches the offset it happened at.
        """
        with self._lock:
            if self._exhausted:
                return [], True
            if self._closed:
                raise StreamClosed(
                    "the stream was closed with results still pending"
                )
            if n <= 0 or (deadline is not None and time.monotonic() >= deadline):
                return [], False
            shared = self.shared
            start = self._emitted
            end = start + n
            if len(shared.rows) < end:
                shared.extend(end, deadline)
            # The flags before the slice: another reader's extend may
            # append and then end the stream between the two reads, and a
            # flag is only ever set after its rows are in the memo.
            error, exhausted = shared.error, shared.exhausted
            out = shared.rows[start:end]
            if len(out) < n:
                if error is not None:
                    if not out:
                        raise error
                elif exhausted:
                    self._exhausted = True
            self._emitted = start + len(out)
            return out, self._exhausted

    def close(self) -> None:
        """Stop reading; waits for this reader's take in flight.  The
        stream itself is closed by its last reader's retirement."""
        with self._lock:
            self._closed = True


class Cursor:
    """One open enumeration session: a reader on a shared stream."""

    def __init__(self, cursor_id: str, shared: SharedStream) -> None:
        self.id = cursor_id
        self.shared = shared
        self.stream = StreamReader(shared)
        self.engine = shared.engine
        self.memory = shared.memory
        #: Set when this cursor's retirement folds the stream's work into
        #: the aggregates: it was the last reader when the stream first
        #: lost its readers.
        self.folds = False
        #: Set when this cursor was its stream's last reader and the
        #: stream is not kept as a completed result: disposing of the
        #: cursor closes the stream.
        self.closes_stream = False
        self.created = time.monotonic()
        self.last_used = self.created

    def fetch(
        self, n: int, deadline: Optional[float] = None
    ) -> tuple[list, bool]:
        """Resume the reader for up to ``n`` more results."""
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
            "sql": self.shared.sql,
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
    """Thread-safe registry of open cursors, their shared streams and the
    completed results kept joinable, with admission control."""

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
        #: Cursors opened on a stream another cursor already had open, or
        #: on a kept completed result.
        self.shared = 0
        #: Completed results kept joinable (LRU), and the rows they hold
        #: together; the service sets both from its plan cache size and
        #: default batch.
        self.retain_limit = 128
        self.retain_rows = 128 * 100
        self._cursors: dict[str, Cursor] = {}
        #: Stream key -> the stream a new cursor on that key joins: an
        #: open one, or a kept completed result.
        self._streams: dict[Hashable, SharedStream] = {}
        #: The kept completed results (no reader), oldest use first.
        self._retained: OrderedDict[Hashable, SharedStream] = OrderedDict()
        self._retained_rows = 0
        #: The newest snapshot version a key was completed or looked up
        #: at; completed results of older versions are not kept.
        self._newest: Optional[int] = None
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

    def join(
        self, key: Optional[Hashable], version: Optional[int] = None
    ) -> Optional[Cursor]:
        """A new cursor on the open stream or kept completed result for
        ``key``, or None when there is none (or ``key`` is None); raises
        :class:`CursorLimitError` when full and nothing is idle enough to
        evict.  ``version``, the key's snapshot version, drops every kept
        result of an older one when it is the newest seen."""
        if key is None:
            return None
        return self._admit(key, None, version)

    def open(self, shared: SharedStream) -> Cursor:
        """Register a new cursor on a new stream (which later cursors on
        its key join while it has a reader); raises
        :class:`CursorLimitError` when full and nothing is idle enough to
        evict."""
        return self._admit(shared.key, shared)

    def _admit(
        self,
        key: Hashable,
        shared: Optional[SharedStream],
        version: Optional[int] = None,
    ) -> Optional[Cursor]:
        victims: list[Cursor] = []
        try:
            with self._lock:
                if len(self._cursors) >= self.limit:
                    victims = self._collect_idle_victims_locked()
                joining = shared is None
                if joining:
                    self._note_version_locked(version)
                    # Looked up after evicting: a victim may have been
                    # the stream's last reader.
                    shared = self._streams.get(key)
                    if shared is None:
                        return None
                if len(self._cursors) >= self.limit:
                    self.rejected += 1
                    raise CursorLimitError(
                        f"open-cursor limit reached ({self.limit}); close "
                        "or drain a cursor first"
                    )
                if joining:
                    self.shared += 1
                    if shared.readers == 0:
                        self._unretain_locked(shared)
                elif key is not None:
                    self._streams.setdefault(key, shared)
                shared.readers += 1
                cursor = Cursor(f"c{next(self._ids)}", shared)
                self._cursors[cursor.id] = cursor
                self.opened += 1
        finally:
            # Dispose of evicted streams *outside* the manager lock: a
            # close() blocking on a victim's in-flight take() must not
            # stall every other cursor operation on the server.
            for victim in victims:
                self._dispose(victim)
                if self.on_evict is not None:
                    self.on_evict(victim)
        return cursor

    def _unregister_locked(self, cursor: Cursor) -> None:
        """Drop ``cursor`` from the registry.  The last reader of a stream
        folds it the first time, and keeps it as a completed result or
        takes it out of the join table."""
        del self._cursors[cursor.id]
        shared = cursor.shared
        shared.readers -= 1
        if shared.readers:
            return
        cursor.folds = not shared.folded
        shared.folded = True
        if not self._retain_locked(shared):
            cursor.closes_stream = True
            if self._streams.get(shared.key) is shared:
                del self._streams[shared.key]

    @staticmethod
    def _dispose(cursor: Cursor) -> None:
        cursor.stream.close()
        if cursor.closes_stream:
            cursor.shared.close()

    # ------------------------------------------------------------------
    # Completed results
    # ------------------------------------------------------------------
    def _note_version_locked(self, version: Optional[int]) -> None:
        """A key of snapshot ``version`` was completed or looked up: if
        it is the newest, drop every kept result of an older one."""
        if version is None or (
            self._newest is not None and version <= self._newest
        ):
            return
        self._newest = version
        stale = [
            key
            for key, shared in self._retained.items()
            if shared.version is not None and shared.version < version
        ]
        for key in stale:
            self._drop_locked(key)

    def _retain_locked(self, shared: SharedStream) -> bool:
        """Keep ``shared``, which just lost its last reader, joinable if
        it ended cleanly, is the join table's stream for its key, is of
        the newest version and fits the row budget; evicts the least
        recently used kept results past the bounds."""
        # A stream whose source raised never reads as exhausted.
        if (
            not shared.exhausted
            or len(shared.rows) > self.retain_rows
            or self._streams.get(shared.key) is not shared
        ):
            return False
        if shared.version is not None:
            if self._newest is not None and shared.version < self._newest:
                return False
            self._note_version_locked(shared.version)
        if shared.memory is not None:
            # The engine structures went with the source; the memo is
            # priced as a kept result, not as a live stream.
            shared.memory.release()
        self._retained[shared.key] = shared
        self._retained_rows += len(shared.rows)
        while (
            len(self._retained) > self.retain_limit
            or self._retained_rows > self.retain_rows
        ):
            self._drop_locked(next(iter(self._retained)))
        return True

    def _unretain_locked(self, shared: SharedStream) -> None:
        """A cursor joins the kept result ``shared``: it is a live stream
        again until its last reader retires."""
        del self._retained[shared.key]
        self._retained_rows -= len(shared.rows)
        if shared.memory is not None:
            shared.memory.gauge(MEMO_CATEGORY).add(len(shared.rows))

    def _drop_locked(self, key: Hashable) -> None:
        """Forget the kept result for ``key`` (freed by refcounting: its
        source ended, so the memo is all it holds)."""
        shared = self._retained.pop(key)
        self._retained_rows -= len(shared.rows)
        del self._streams[key]

    @staticmethod
    def _retained_bytes(shared: SharedStream) -> int:
        """A kept result's memo rows priced like its stream's entries (0
        for a stream opened without a memory profile)."""
        if shared.memory is None:
            return 0
        return entry_bytes(shared.memory.engine, len(shared.rows))

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
            self._unregister_locked(cursor)
            self.evicted += 1
        return victims

    def live_mem_bytes(self) -> int:
        """Live bytes across every open stream's engine structures and
        memo and every kept completed result's memo, each stream counted
        once and priced by its engine family's factor (0 for streams
        opened without a memory profile)."""
        with self._lock:
            return self._live_mem_bytes_locked()

    def _live_mem_bytes_locked(self) -> int:
        live = sum(
            admission_bytes(shared.memory)
            for shared in {c.shared for c in self._cursors.values()}
            if shared.memory is not None
        )
        return live + sum(map(self._retained_bytes, self._retained.values()))

    def evict_for_memory(
        self, watermark_bytes: int, min_idle_s: float = 1.0
    ) -> int:
        """Drop kept completed results (least recently used first), then
        evict the readers of oldest-idle streams, until live bytes
        (:meth:`live_mem_bytes`) drop below ``watermark_bytes``; returns
        how many cursors were evicted.

        A stream's bytes are freed only with its last reader, so a stream
        is evicted whole, and only when every reader has been idle for at
        least ``min_idle_s``: memory pressure sheds abandoned sessions, it
        must not cancel a cursor a client is actively paging through.
        Disposal happens outside the manager lock, exactly like
        limit-driven idle eviction.
        """
        victims: list[Cursor] = []
        try:
            with self._lock:
                live = self._live_mem_bytes_locked()
                while self._retained and live >= watermark_bytes:
                    key, shared = next(iter(self._retained.items()))
                    live -= self._retained_bytes(shared)
                    self._drop_locked(key)
                if live < watermark_bytes:
                    return 0
                streams: dict[SharedStream, list[Cursor]] = {}
                for cursor in self._cursors.values():
                    streams.setdefault(cursor.shared, []).append(cursor)
                now = time.monotonic()
                idle = [
                    (max(c.last_used for c in readers), shared, readers)
                    for shared, readers in streams.items()
                    if all(now - c.last_used >= min_idle_s for c in readers)
                ]
                idle.sort(key=lambda entry: entry[0])
                for _, shared, readers in idle:
                    if live < watermark_bytes:
                        break
                    if shared.memory is not None:
                        live -= admission_bytes(shared.memory)
                    for cursor in readers:
                        self._unregister_locked(cursor)
                        self.evicted += 1
                        victims.append(cursor)
                    if self._retained.get(shared.key) is shared:
                        # A completed stream goes whole too, not into
                        # the kept results.
                        self._drop_locked(shared.key)
        finally:
            for victim in victims:
                self._dispose(victim)
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
        """Remove and return the cursor; its reader (and, for the last
        reader, its stream) is disposed."""
        with self._lock:
            cursor = self._cursors.get(cursor_id)
            if cursor is not None:
                self._unregister_locked(cursor)
                self.closed += 1
        if cursor is None:
            raise UnknownCursorError(f"no open cursor {cursor_id!r}")
        self._dispose(cursor)
        return cursor

    def close_all(self) -> list[Cursor]:
        with self._lock:
            cursors = list(self._cursors.values())
            for cursor in cursors:
                self._unregister_locked(cursor)
            self.closed += len(cursors)
        for cursor in cursors:
            self._dispose(cursor)
        return cursors

    def __len__(self) -> int:
        return len(self._cursors)

    def stats(self) -> dict:
        with self._lock:
            return {
                "open": len(self._cursors),
                "limit": self.limit,
                "opened": self.opened,
                "shared": self.shared,
                "closed": self.closed,
                "evicted": self.evicted,
                "rejected": self.rejected,
                "retained": {
                    "results": len(self._retained),
                    "rows": self._retained_rows,
                },
                "cursors": [c.describe() for c in self._cursors.values()],
            }
