"""The TCP transport: one thread per connection.

:meth:`AnykTCPServer.serve_forever` (usually on a daemon thread via
:func:`serve_background`) accepts connections and gives each its own
thread.  That thread reads a frame, runs it — the ``hello`` op here,
every other op through the shared
:class:`~repro.server.service.QueryService` — and writes the whole
response with one ``sendall`` before it reads the next frame, so a
connection answers in the order its requests arrived and no request
waits on a hand-off between threads.

The rule: a slow request delays only the later requests on its own
connection.  Other connections keep running, sharing the interpreter at
its switch interval; a client that wants independent progress opens a
second connection.  Clients may still pipeline (write many requests
before reading; a pipelining client keeps reading while it writes) and
match responses by the ``id`` they carry.

Framing starts as JSON lines and may be switched per connection to
length-prefixed binary frames by a ``hello`` op (handled here, because
framing is transport state; the hello *response* still travels in the
old framing).  Both decoders enforce the server's frame limit: an
oversized request is discarded and answered with a ``frame_too_large``
error, and the connection stays usable.

Cursors are server-global, not per-connection: a cursor opened on one
connection can be resumed from another (or after a reconnect), which is
the whole point of resumable enumeration state.

Shutdown drains gracefully: the listener closes first (no new
connections), each connection's read side is shut so a blocked read
sees EOF, and the request in progress on each connection runs to
completion with its response written whole before the thread is joined
— a client mid-fetch sees a complete final frame, then EOF, never a torn
frame.  ^C in :meth:`~AnykTCPServer.serve_forever` takes the same path.
"""

from __future__ import annotations

import selectors
import socket
import threading
from typing import Optional

from repro.data.database import Database
import repro.server.protocol as protocol
from repro.server.service import QueryService


class _FrameTooLarge(Exception):
    """An oversized request frame (already discarded; answerable)."""


class _Connection:
    """One client connection, read, run and answered on its own thread."""

    def __init__(self, server: "AnykTCPServer", sock: socket.socket) -> None:
        self.server = server
        self.sock = sock
        self.reader = sock.makefile("rb")
        self.framing = "json"
        self.thread = threading.Thread(
            target=self.run, name="repro-serve-connection", daemon=True
        )

    # -- reading: the next raw request payload, or None at EOF ---------
    # Both framings raise _FrameTooLarge after discarding an oversized
    # request, leaving the stream positioned at the next frame.
    def _read_line(self) -> Optional[bytes]:
        limit = self.server.max_frame_bytes
        # Headroom past the limit: a maximum-size request plus its newline.
        line = self.reader.readline(limit + 2)
        if line.endswith(b"\n"):
            return line
        if len(line) < limit + 2:
            # EOF: a final unterminated line still counts as a request.
            return line if line.strip() else None
        # Oversized line: discard through its terminating newline so the
        # *next* pipelined request parses cleanly, then report.
        while line and not line.endswith(b"\n"):
            line = self.reader.readline(65536)
        raise _FrameTooLarge(f"request exceeds the {limit}-byte frame limit")

    def _read_binary_frame(self) -> Optional[bytes]:
        header = self.reader.read(protocol.FRAME_HEADER.size)
        if len(header) < protocol.FRAME_HEADER.size:
            return None  # EOF (a torn header is unanswerable anyway)
        (length,) = protocol.FRAME_HEADER.unpack(header)
        if length > self.server.max_frame_bytes:
            remaining = length
            while remaining > 0:
                chunk = self.reader.read(min(65536, remaining))
                if not chunk:
                    break
                remaining -= len(chunk)
            raise _FrameTooLarge(
                f"request of {length} bytes exceeds the "
                f"{self.server.max_frame_bytes}-byte frame limit"
            )
        payload = self.reader.read(length)
        return payload if len(payload) == length else None

    # -- writing -------------------------------------------------------
    def _send(self, message: dict) -> None:
        if self.framing == "binary":
            self.sock.sendall(protocol.encode_frame(message))
        else:
            self.sock.sendall(protocol.encode(message))

    # -- the hello op (framing is transport state) ---------------------
    def _hello(self, request: dict) -> None:
        request_id = request.get("id")
        try:
            protocol.validate_request(request)
        except protocol.ProtocolError as exc:
            self._send(protocol.error_response(request_id, exc.code, str(exc)))
            return
        frames = request.get("frames", "json")
        # Earlier requests were answered in their framing before this
        # one was read; the switch takes effect strictly after its reply.
        info = {
            "frames": frames,
            "protocol": protocol.PROTOCOL_VERSION,
            "pipelining": True,
            "max_frame_bytes": self.server.max_frame_bytes,
        }
        self._send(protocol.ok_response(request_id, info))
        self.framing = frames

    # -- lifecycle -----------------------------------------------------
    def run(self) -> None:
        try:
            while True:
                try:
                    if self.framing == "binary":
                        raw = self._read_binary_frame()
                    else:
                        raw = self._read_line()
                except _FrameTooLarge as exc:
                    code = protocol.FRAME_TOO_LARGE
                    self._send(protocol.error_response(None, code, str(exc)))
                    continue
                if raw is None or self.server._draining:
                    return  # EOF, or a drain: answer nothing more
                if self.framing == "json" and not raw.strip():
                    continue
                try:
                    request = protocol.decode_line(raw)
                except protocol.ProtocolError as exc:
                    self._send(protocol.error_response(None, exc.code, str(exc)))
                    continue
                if request.get("op") == "hello":
                    self._hello(request)
                else:
                    self._send(self.server.service.handle(request))
        except OSError:
            pass  # the client went away (reset, broken pipe)
        finally:
            self.server._forget(self)
            self.reader.close()
            self.sock.close()


class AnykTCPServer:
    """The ranked-enumeration service bound to a TCP address.

    A blocking ``socketserver``-style surface the rest of the repo (CLI,
    tests, benchmarks) drives: construct, ``serve_forever()`` (or
    :func:`serve_background`), then ``shutdown()`` + ``server_close()``.
    The listening socket binds in the constructor — :attr:`bound_port`
    is readable immediately, and early clients queue in the accept
    backlog until the accept loop starts.

    ``port=0`` binds an ephemeral port; read it back from
    :attr:`bound_port`.  The server owns its :class:`QueryService` (pass
    one in to share it with in-process callers, e.g. benchmarks comparing
    wire vs direct dispatch).  The service layer is thread-safe; every
    connection's thread calls :meth:`QueryService.handle` directly.
    ``max_frame_bytes`` caps request frames in both framings (oversized
    requests are answered with ``frame_too_large``, never a hangup).
    """

    def __init__(
        self,
        db: Database,  # or a repro.dynamic.VersionedDatabase to share
        host: str = "127.0.0.1",
        port: int = protocol.DEFAULT_PORT,
        service: Optional[QueryService] = None,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        **service_options,
    ) -> None:
        if max_frame_bytes < 1024:
            raise ValueError("max_frame_bytes must be at least 1024")
        self.service = service or QueryService(db, **service_options)
        self.max_frame_bytes = max_frame_bytes
        self._sock = socket.create_server((host, port), backlog=128)
        # Non-blocking: a client gone before accept() must not park the loop.
        self._sock.setblocking(False)
        # shutdown() wakes the accept loop by writing one byte here.
        self._wake_read, self._wake_write = socket.socketpair()
        self._lock = threading.Lock()  # guards _connections
        self._connections: set[_Connection] = set()
        # Set once the drain starts: connection threads read no more.
        self._draining = False
        self._serving = False
        self._stopped = threading.Event()
        self._closed = False

    @property
    def bound_port(self) -> int:
        return self._sock.getsockname()[1]

    # -- the accept loop -----------------------------------------------
    def serve_forever(self) -> None:
        """Accept connections in the calling thread until shutdown or ^C."""
        self._serving = True
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self._sock, selectors.EVENT_READ)
                selector.register(self._wake_read, selectors.EVENT_READ)
                try:
                    while not any(
                        key.fileobj is self._wake_read
                        for key, _ in selector.select()
                    ):
                        self._accept()
                except KeyboardInterrupt:
                    pass  # ^C drains exactly like shutdown()
            self._drain()
        finally:
            self._serving = False
            self._stopped.set()

    def _accept(self) -> None:
        try:
            sock, _ = self._sock.accept()
        except OSError:
            return  # the client gave up before we got to it
        sock.setblocking(True)  # not inherited from the listener everywhere
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connection = _Connection(self, sock)
        with self._lock:
            self._connections.add(connection)
        connection.thread.start()

    def _forget(self, connection: _Connection) -> None:
        # Before the socket closes: _drain shuts down only sockets it
        # finds here, under the same lock, so it never touches a closed one.
        with self._lock:
            self._connections.discard(connection)

    def _drain(self) -> None:
        self._draining = True
        self._sock.close()
        with self._lock:
            connections = list(self._connections)
            for connection in connections:
                try:
                    connection.sock.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # already reset by the peer
        for connection in connections:
            connection.thread.join()

    # -- the blocking control surface ----------------------------------
    def shutdown(self) -> None:
        """Stop accepting and wait for the graceful drain (threadsafe);
        called before :meth:`serve_forever`, it makes that return at once."""
        try:
            self._wake_write.send(b"\0")
        except OSError:
            return  # server_close() already ran
        if self._serving:
            self._stopped.wait(timeout=30.0)

    def server_close(self) -> None:
        """Free every cursor's enumeration state along with the sockets."""
        if self._closed:
            return
        self._closed = True
        self.service.shutdown()
        for sock in (self._sock, self._wake_read, self._wake_write):
            sock.close()


def serve_background(
    db: Database,
    host: str = "127.0.0.1",
    port: int = 0,
    service: Optional[QueryService] = None,
    **service_options,
) -> tuple[AnykTCPServer, int]:
    """Start a server on a daemon thread; returns ``(server, port)``.

    The convenience entry for tests, examples, and benchmarks.  Stop it
    with ``server.shutdown(); server.server_close()``.  The port is
    bound (and connectable — the backlog queues clients) before this
    returns, even if the accept thread hasn't scheduled yet.
    """
    server = AnykTCPServer(
        db, host=host, port=port, service=service, **service_options
    )
    threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    ).start()
    return server, server.bound_port
