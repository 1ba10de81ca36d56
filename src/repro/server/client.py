"""The Python wire clients and their iterator-of-rows cursor.

:class:`Client` is one socket, synchronous request/response, with a lock
so the client object can be shared across threads (each call owns the
socket for one round trip).  :class:`PipelinedClient` inherits its whole
query surface and swaps only the transport: many requests in flight on
one socket, matched by id.  Rows come back exactly as the library yields
them — ``(row, weight)`` with ``row`` a tuple and lex weights re-tupled —
so swapping a direct :func:`repro.sql.query` call for a served one is a
one-line change::

    with Client(port=port) as client:
        for row, weight in client.execute(sql, batch=50):
            ...
"""

from __future__ import annotations

import itertools
import socket
import threading
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Any, Iterator, Optional

import repro.server.protocol as protocol


class ServerError(Exception):
    """An error response from the server (code + human message)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class DeadlineExceeded(ServerError):
    """A per-request deadline expired before a full page was produced.

    Raised client-side by :meth:`ResultCursor.__iter__` when a fetch
    comes back *empty* under a deadline (a partial page is just yielded;
    manual :meth:`ResultCursor.fetch` callers read the
    :attr:`ResultCursor.deadline_exceeded` flag instead).
    """

    def __init__(self, message: str) -> None:
        super().__init__("deadline", message)


class ClientTimeout(ServerError):
    """The client-side read timeout expired before a response arrived.

    A *client*-enforced bound (``Client(timeout=...)``), distinct from
    the server-enforced ``deadline_ms``: the server may still be working
    on the request.  On a plain :class:`Client` the connection is closed
    (a later response would desynchronize the request/response pairing);
    a :class:`PipelinedClient` survives it, because its reader thread
    keeps draining responses by id.
    """

    def __init__(self, message: str) -> None:
        super().__init__(protocol.CLIENT_TIMEOUT, message)


def _unwrap(response: dict) -> dict:
    """A response as-is, or its error raised as :class:`ServerError`."""
    if not response.get("ok"):
        error = response.get("error") or {}
        raise ServerError(
            error.get("code", protocol.INTERNAL),
            error.get("message", "unspecified server error"),
        )
    return response


def _payload(response: dict) -> dict:
    """A response without its envelope (``id``/``ok``)."""
    return {k: v for k, v in response.items() if k not in ("id", "ok")}


class Client:
    """Context-manager client for one ``repro-serve`` endpoint.

    ``connect_timeout`` bounds the TCP connect (default 10 s);
    ``timeout`` bounds each round trip's read — when it expires the call
    raises :class:`ClientTimeout` and the connection is closed (None,
    the default, waits indefinitely).

    Every query method below goes through :meth:`call`, so a subclass
    that swaps the transport overrides ``__init__``, :meth:`call` and
    :meth:`close` and inherits the rest.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = protocol.DEFAULT_PORT,
        timeout: Optional[float] = None,
        deadline_ms: Optional[int] = None,
        connect_timeout: Optional[float] = 10.0,
    ) -> None:
        self._socket = socket.create_connection(
            (host, port), timeout=connect_timeout
        )
        self._socket.settimeout(timeout)
        self._file = self._socket.makefile("rwb")
        self.timeout = timeout
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: Default per-request deadline attached to every call (None: no
        #: deadline).  Individual calls may override.
        self.deadline_ms = deadline_ms

    # ------------------------------------------------------------------
    # Round trips
    # ------------------------------------------------------------------
    def _envelope(self, op: str, fields: dict) -> dict:
        """A request: a fresh id, ``op``, the fields, the default deadline."""
        if fields.get("deadline_ms") is None:
            fields.pop("deadline_ms", None)
            if self.deadline_ms is not None:
                fields["deadline_ms"] = self.deadline_ms
        return {"id": next(self._ids), "op": op, **fields}

    def call(self, op: str, **fields: Any) -> dict:
        """One raw protocol round trip (public for protocol tinkering)."""
        request = self._envelope(op, fields)
        with self._lock:
            try:
                self._file.write(protocol.encode(request))
                self._file.flush()
                line = self._file.readline()
            except socket.timeout as exc:
                # A half-read response is unrecoverable on a strict
                # request/response socket: poison the connection so
                # no later call pairs with this request's answer.
                self._close_locked()
                raise ClientTimeout(
                    f"no response to op {op!r} within "
                    f"{self.timeout}s; connection closed"
                ) from exc
        if not line:
            raise ConnectionError("server closed the connection")
        return _unwrap(protocol.decode_line(line))

    # ------------------------------------------------------------------
    # The public query API
    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        engine: Optional[str] = None,
        batch: int = 100,
        prefetch: Optional[int] = None,
        deadline_ms: Optional[int] = None,
        params: Optional[list] = None,
    ) -> "ResultCursor":
        """Open a server-side cursor; returns an iterable cursor.

        ``batch`` is the rows-per-``fetch`` page size; ``prefetch``
        (default: ``batch``) rows ride along inline on the ``query``
        response, saving a round trip for small results.  ``params``
        binds the statement's ``?`` placeholders positionally (numbers
        and strings).
        """
        response = self.call(
            "query",
            sql=sql,
            engine=engine,
            fetch=batch if prefetch is None else prefetch,
            deadline_ms=deadline_ms,
            params=params,
        )
        return ResultCursor(self, response, batch=batch, deadline_ms=deadline_ms)

    def explain(
        self,
        sql: str,
        engine: Optional[str] = None,
        params: Optional[list] = None,
    ) -> str:
        """The server's routed plan for ``sql``, as text."""
        return self.call("explain", sql=sql, engine=engine, params=params)[
            "explain"
        ]

    def explain_analyze(
        self,
        sql: str,
        engine: Optional[str] = None,
        params: Optional[list] = None,
    ) -> dict:
        """EXPLAIN ANALYZE on the server: runs the statement, returns the
        report dict (``analyze``) with its text rendering (``explain``)."""
        return _payload(
            self.call(
                "explain", sql=sql, engine=engine, analyze=True, params=params
            )
        )

    def metrics(self, format: str = "prometheus"):
        """The server's unified metrics registry.

        ``format="prometheus"`` (default) returns the text exposition
        format as a string; ``format="json"`` returns a nested dict.
        """
        return self.call("metrics", format=format)["metrics"]

    def trace(self, trace_id: Optional[str] = None) -> dict:
        """A buffered server trace by trace id (or the newest ones).

        Every response carries a ``trace_id`` field; pass it here to get
        the request's server-side span tree (``trace``) plus a rendered
        view (``rendered``).  With no argument, returns ``recent`` traces.
        """
        fields = {} if trace_id is None else {"trace": trace_id}
        return _payload(self.call("trace", **fields))

    def mutate(self, sql: str) -> dict:
        """Commit one ``INSERT INTO`` / ``DELETE FROM`` statement.

        Returns ``{"applied", "relation", "rows", "version"}`` — the new
        snapshot version the mutation published.  Cursors opened before
        the call keep streaming their own snapshot, untouched.
        """
        return _payload(self.call("mutate", sql=sql))

    def stats(self) -> dict:
        """Server stats: caches, cursors, metrics, RAM-model counters."""
        return _payload(self.call("stats"))

    def close_cursor(self, cursor_id: str) -> None:
        self.call("close", cursor=cursor_id)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        finally:
            self._socket.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _wire_pair(pair: list) -> tuple[tuple, Any]:
    """A wire ``[row, weight]`` back into the library's ``(row, weight)``."""
    row, weight = pair
    return tuple(row), tuple(weight) if isinstance(weight, list) else weight


class ResultCursor:
    """Client-side view of one server cursor; iterate to stream rows.

    Fetches lazily in ``batch``-sized pages: pausing iteration pauses the
    server-side enumeration (that is the resumable-cursor contract), and
    abandoning it early costs at most one page of wasted work — call
    :meth:`close` to free the server slot immediately.
    """

    def __init__(
        self,
        client: Client,
        response: dict,
        batch: int,
        deadline_ms: Optional[int] = None,
    ) -> None:
        self._client = client
        self._batch = batch
        self._deadline_ms = deadline_ms
        self.cursor_id: Optional[str] = response.get("cursor")
        self.columns: tuple[str, ...] = tuple(response.get("columns", ()))
        self.engine: str = response.get("engine", "")
        self.plan_cached: bool = bool(response.get("plan_cached"))
        #: The snapshot version the server pinned this cursor to: every
        #: page, however late it is fetched, drains that generation.
        self.version: Optional[int] = response.get("version")
        #: The trace id of the opening request (look the span tree up via
        #: :meth:`Client.trace`); refreshed on every fetch round trip.
        self.trace_id: Optional[str] = response.get("trace_id")
        #: Cumulative results the server has emitted for this cursor
        #: (inline prefix included), updated on every round trip.
        self.results_emitted: int = int(response.get("results_emitted", 0))
        #: The current page's unread rows, consumed from the left: a
        #: paused iteration resumes at the next unread row.
        self._pending: deque[tuple[tuple, Any]] = deque(
            _wire_pair(p) for p in response.get("rows", ())
        )
        self._done: bool = bool(response.get("done"))
        #: True when the *last* round trip was cut short by its
        #: ``deadline_ms`` (the partial rows are still delivered).
        self.deadline_exceeded: bool = bool(
            response.get("deadline_exceeded")
        )

    def fetch(self, n: Optional[int] = None) -> list[tuple[tuple, Any]]:
        """One explicit fetch round trip (page of up to ``n`` results)."""
        if self._done or self.cursor_id is None:
            return []
        response = self._client.call(
            "fetch",
            cursor=self.cursor_id,
            n=n or self._batch,
            deadline_ms=self._deadline_ms,
        )
        self._done = bool(response.get("done"))
        self.deadline_exceeded = bool(response.get("deadline_exceeded"))
        if "results_emitted" in response:
            self.results_emitted = int(response["results_emitted"])
        if "trace_id" in response:
            self.trace_id = response["trace_id"]
        if self._done:
            self.cursor_id = None  # the server auto-closed it
        return [_wire_pair(p) for p in response.get("rows", ())]

    def __iter__(self) -> Iterator[tuple[tuple, Any]]:
        while True:
            while self._pending:
                yield self._pending.popleft()
            if self._done:
                return
            self._pending = deque(self.fetch())
            if not self._pending and not self._done:
                # An empty page on an open cursor only happens when the
                # request's deadline expired before the first row; each
                # retry would get its own fresh deadline, so a loaded
                # server could keep us spinning forever.  Fail loudly —
                # the caller opted into deadlines.
                raise DeadlineExceeded(
                    "fetch produced no rows within deadline_ms="
                    f"{self._deadline_ms or self._client.deadline_ms}; "
                    f"cursor {self.cursor_id} is still open and resumable"
                )
            if not self._pending and self._done:
                return

    def fetchall(self) -> list[tuple[tuple, Any]]:
        """Drain the remaining stream into a list."""
        return list(self)

    def close(self) -> None:
        """Free the server-side session (idempotent)."""
        if self.cursor_id is not None:
            self._client.close_cursor(self.cursor_id)
            self.cursor_id = None
            self._done = True

    def __repr__(self) -> str:
        state = "done" if self._done else f"open:{self.cursor_id}"
        return (
            f"ResultCursor({state}, columns={self.columns!r}, "
            f"engine={self.engine!r})"
        )


class PipelinedClient(Client):
    """A pipelining client: many requests in flight on one socket.

    The query surface is :class:`Client`'s; only the transport differs.
    A background reader thread drains responses and completes
    per-request futures matched by envelope id, so any number of
    threads can share one connection — :meth:`submit` returns a
    :class:`concurrent.futures.Future` immediately, :meth:`result`
    waits for one, and :meth:`call` is the blocking pair of both.  On
    connect the client negotiates framing with a ``hello`` op
    (``frames="binary"`` by default: length-prefixed frames skip the
    newline scan on both sides).

    Unlike :class:`Client`, a read ``timeout`` here does *not* poison
    the connection: the reader thread keeps consuming responses in
    arrival order, so a late answer completes its (abandoned) future
    harmlessly instead of desynchronizing the stream.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = protocol.DEFAULT_PORT,
        frames: str = "binary",
        timeout: Optional[float] = None,
        deadline_ms: Optional[int] = None,
        connect_timeout: Optional[float] = 10.0,
    ) -> None:
        self._socket = socket.create_connection(
            (host, port), timeout=connect_timeout
        )
        self._wfile = self._socket.makefile("wb")
        self._rfile = self._socket.makefile("rb")
        self.timeout = timeout
        self.deadline_ms = deadline_ms
        self._write_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[Any, "Future[dict]"] = {}
        self._ids = itertools.count(1)
        self._closed = False
        self.frames = "json"
        # Negotiate framing synchronously, before the reader thread and
        # before any pipelined traffic: the hello response is the last
        # frame in the old framing.  A refused or cut-off hello closes the
        # socket and both files before it propagates.
        try:
            self._wfile.write(
                protocol.encode({"id": 0, "op": "hello", "frames": frames})
            )
            self._wfile.flush()
            line = self._rfile.readline()
            if not line:
                raise ConnectionError("server closed the connection during hello")
            response = _unwrap(protocol.decode_line(line))
        except BaseException:
            self._close_transport()
            raise
        self.frames = frames
        #: The server's hello payload (protocol revision, frame limit).
        self.server_info = _payload(response)
        self._socket.settimeout(None)  # the reader blocks; calls bound waits
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-client-reader", daemon=True
        )
        self._reader.start()

    # ------------------------------------------------------------------
    # The reader thread
    # ------------------------------------------------------------------
    def _read_frame(self) -> Optional[bytes]:
        if self.frames == "binary":
            header = self._rfile.read(protocol.FRAME_HEADER.size)
            if len(header) < protocol.FRAME_HEADER.size:
                return None
            (length,) = protocol.FRAME_HEADER.unpack(header)
            payload = self._rfile.read(length)
            return payload if len(payload) == length else None
        line = self._rfile.readline()
        return line or None

    def _read_loop(self) -> None:
        error: Exception = ConnectionError("server closed the connection")
        try:
            while True:
                raw = self._read_frame()
                if raw is None:
                    break
                response = protocol.decode_line(raw)
                with self._pending_lock:
                    future = self._pending.pop(response.get("id"), None)
                if future is not None:
                    future.set_result(response)
                # else: an abandoned (timed-out) or unsolicited response
        except Exception as exc:  # decode error, socket error
            error = exc
        with self._pending_lock:
            pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    # ------------------------------------------------------------------
    # Round trips
    # ------------------------------------------------------------------
    def submit(self, op: str, **fields: Any) -> "Future[dict]":
        """Send one request without waiting; returns a response future."""
        request = self._envelope(op, fields)
        future: "Future[dict]" = Future()
        with self._pending_lock:
            if self._closed:
                raise ConnectionError("client is closed")
            self._pending[request["id"]] = future
        if self.frames == "binary":
            data = protocol.encode_frame(request)
        else:
            data = protocol.encode(request)
        try:
            with self._write_lock:
                self._wfile.write(data)
                self._wfile.flush()
        except OSError:
            with self._pending_lock:
                self._pending.pop(request["id"], None)
            raise
        return future

    def result(self, future: "Future[dict]") -> dict:
        """Wait for a submitted request's response (the unwrap half)."""
        try:
            response = future.result(timeout=self.timeout)
        except FutureTimeout:
            raise ClientTimeout(
                f"no response within {self.timeout}s (the connection "
                "stays usable; the response will be discarded on arrival)"
            ) from None
        return _unwrap(response)

    def call(self, op: str, **fields: Any) -> dict:
        """One blocking round trip (over the pipelined machinery)."""
        return self.result(self.submit(op, **fields))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._pending_lock:
            if self._closed:
                return
            self._closed = True
        # Unblock the reader with an EOF *before* touching the file
        # objects: closing a socket makefile while another thread is
        # blocked reading it deadlocks on the file's internal lock.
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._reader.join(timeout=5.0)
        self._close_transport()

    def _close_transport(self) -> None:
        for stream in (self._wfile, self._rfile):
            try:
                stream.close()
            except OSError:
                pass
        self._socket.close()
