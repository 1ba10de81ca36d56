"""The asyncio TCP transport: pipelined frames over an event loop.

One event loop (run by :meth:`AnykTCPServer.serve_forever`, usually on a
daemon thread via :func:`serve_background`) owns every connection; each
decoded frame is dispatched to the shared
:class:`~repro.server.service.QueryService` on a bounded thread-pool
executor, so the loop never blocks on engine work and a connection can
have any number of requests **in flight at once** (pipelining).
Responses are written under a per-connection lock — frames interleave
between requests, never within one — and carry the request ``id`` so
clients match them up even when independent requests complete out of
order.

Framing starts as JSON lines and may be switched per connection to
length-prefixed binary frames by a ``hello`` op (handled here in the
read loop, because framing is transport state; the hello *response*
still travels in the old framing).  Both decoders enforce the server's
frame limit: an oversized request is discarded and answered with a
``frame_too_large`` error, and the connection stays usable.

Cursors are server-global, not per-connection: a cursor opened on one
connection can be resumed from another (or after a reconnect), which is
the whole point of resumable enumeration state.

Shutdown drains gracefully: the listener closes first (no new
connections), read loops stop consuming frames, and every in-flight
request runs to completion with its response flushed whole — a client
mid-fetch sees a complete final frame, then EOF, never a torn frame.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.data.database import Database
import repro.server.protocol as protocol
from repro.server.service import QueryService


class _FrameTooLarge(Exception):
    """An oversized request frame (already discarded; answerable)."""


class _Connection:
    """One client connection: a pipelined read loop plus a framed writer."""

    def __init__(
        self,
        server: "AnykTCPServer",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.framing = "json"
        # Whole-frame writes: response bytes from concurrently completing
        # requests must interleave only at frame boundaries.
        self._write_lock = asyncio.Lock()
        #: Response tasks for dispatched-but-unanswered requests.
        self._inflight: set[asyncio.Task] = set()

    # -- reading -------------------------------------------------------
    async def _read_frame(self) -> Optional[bytes]:
        """The next raw request payload, or None at EOF.

        Raises :class:`_FrameTooLarge` after discarding an oversized
        request (both framings), leaving the stream positioned at the
        next frame.
        """
        if self.framing == "binary":
            return await self._read_binary_frame()
        return await self._read_line()

    async def _read_line(self) -> Optional[bytes]:
        limit = self.server.max_frame_bytes
        try:
            return await self.reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            # EOF: a final unterminated line still counts as a request.
            return exc.partial if exc.partial.strip() else None
        except asyncio.LimitOverrunError as exc:
            # Oversized line: discard through its terminating newline so
            # the *next* pipelined request parses cleanly, then report.
            consumed = exc.consumed
            while True:
                try:
                    await self.reader.readexactly(consumed)
                    await self.reader.readuntil(b"\n")
                    break
                except asyncio.LimitOverrunError as more:
                    consumed = more.consumed
                except asyncio.IncompleteReadError:
                    break  # EOF inside the oversized request
            raise _FrameTooLarge(
                f"request exceeds the {limit}-byte frame limit"
            ) from None

    async def _read_binary_frame(self) -> Optional[bytes]:
        try:
            header = await self.reader.readexactly(protocol.FRAME_HEADER.size)
        except asyncio.IncompleteReadError:
            return None  # EOF (a torn header is unanswerable anyway)
        (length,) = protocol.FRAME_HEADER.unpack(header)
        if length > self.server.max_frame_bytes:
            remaining = length
            while remaining > 0:
                chunk = await self.reader.read(min(65536, remaining))
                if not chunk:
                    break
                remaining -= len(chunk)
            raise _FrameTooLarge(
                f"request of {length} bytes exceeds the "
                f"{self.server.max_frame_bytes}-byte frame limit"
            )
        try:
            return await self.reader.readexactly(length)
        except asyncio.IncompleteReadError:
            return None

    # -- writing -------------------------------------------------------
    async def _send(self, message: dict) -> None:
        if self.framing == "binary":
            data = protocol.encode_frame(message)
        else:
            data = protocol.encode(message)
        async with self._write_lock:
            self.writer.write(data)
            await self.writer.drain()

    async def _respond(self, pending) -> None:
        """Await one dispatched request's response and write it."""
        try:
            response = await pending  # service.handle never raises
            await self._send(response)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response; the read loop sees EOF

    # -- the hello op (framing is transport state) ---------------------
    async def _hello(self, request: dict) -> None:
        request_id = request.get("id")
        try:
            protocol.validate_request(request)
        except protocol.ProtocolError as exc:
            await self._send(
                protocol.error_response(request_id, exc.code, str(exc))
            )
            return
        frames = request.get("frames", "json")
        # Settle earlier pipelined requests first: their responses must
        # travel in the framing they were sent under, and so must the
        # hello response itself — the switch takes effect strictly after.
        await self.settle()
        await self._send(
            protocol.ok_response(
                request_id,
                {
                    "frames": frames,
                    "protocol": protocol.PROTOCOL_VERSION,
                    "pipelining": True,
                    "max_frame_bytes": self.server.max_frame_bytes,
                },
            )
        )
        self.framing = frames

    # -- lifecycle -----------------------------------------------------
    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                raw = await self._read_frame()
            except _FrameTooLarge as exc:
                await self._send(
                    protocol.error_response(
                        None, protocol.FRAME_TOO_LARGE, str(exc)
                    )
                )
                continue
            except (ConnectionResetError, BrokenPipeError):
                return
            if raw is None:
                return  # EOF
            if self.framing == "json" and not raw.strip():
                continue
            try:
                request = protocol.decode_line(raw)
            except protocol.ProtocolError as exc:
                await self._send(
                    protocol.error_response(None, exc.code, str(exc))
                )
                continue
            if request.get("op") == "hello":
                await self._hello(request)
                continue
            # Pipelining: dispatch without waiting — the loop goes
            # straight back to reading while the executor runs the
            # request and a response task writes the answer whenever
            # it completes.
            pending = loop.run_in_executor(
                self.server.executor, self.server.service.handle, request
            )
            task = loop.create_task(self._respond(pending))
            self._inflight.add(task)
            task.add_done_callback(self._retire)

    def _retire(self, task: asyncio.Task) -> None:
        self._inflight.discard(task)
        # Retrieve the outcome: a response task torn down by a signal
        # (^C lands *inside* whatever frame is running) finishes with
        # that exception already set, and nothing ever gathers a task
        # that completed before the drain — unretrieved, it would log
        # "Task exception was never retrieved" at garbage collection.
        if not task.cancelled():
            task.exception()

    async def settle(self) -> None:
        """Wait until every dispatched request has been answered."""
        while self._inflight:
            await asyncio.gather(
                *list(self._inflight), return_exceptions=True
            )

    async def drain(self) -> None:
        """Graceful close: answer everything in flight, flush, stop.

        Called when the read loop ends (EOF) or is cancelled (server
        shutdown).  In-flight responses are *awaited*, not abandoned, so
        the client's last frames arrive whole before the FIN.
        """
        await self.settle()
        try:
            async with self._write_lock:
                await self.writer.drain()
        except Exception:
            pass


class AnykTCPServer:
    """The ranked-enumeration service bound to a TCP address.

    An asyncio server behind the blocking ``socketserver``-style surface
    the rest of the repo (CLI, tests, benchmarks) drives:
    construct, ``serve_forever()`` (or :func:`serve_background`), then
    ``shutdown()`` + ``server_close()``.  The listening socket binds in
    the constructor — :attr:`bound_port` is readable immediately, and
    early clients queue in the accept backlog until the loop starts.

    ``port=0`` binds an ephemeral port; read it back from
    :attr:`bound_port`.  The server owns its :class:`QueryService` (pass
    one in to share it with in-process callers, e.g. benchmarks comparing
    wire vs direct dispatch).

    ``executor_threads`` bounds the thread pool that runs
    :meth:`QueryService.handle` calls — the service layer is
    thread-safe, and the bound is what keeps a pipelining client from
    turning into an unbounded thread spawn.  ``max_frame_bytes`` caps
    request frames in both framings (oversized requests are answered
    with ``frame_too_large``, never a hangup).
    """

    def __init__(
        self,
        db: Database,  # or a repro.dynamic.VersionedDatabase to share
        host: str = "127.0.0.1",
        port: int = protocol.DEFAULT_PORT,
        service: Optional[QueryService] = None,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        executor_threads: int = 8,
        **service_options,
    ) -> None:
        if max_frame_bytes < 1024:
            raise ValueError("max_frame_bytes must be at least 1024")
        self.service = service or QueryService(db, **service_options)
        self.max_frame_bytes = max_frame_bytes
        self.executor = ThreadPoolExecutor(
            max_workers=executor_threads,
            thread_name_prefix="repro-serve-worker",
        )
        self._sock = socket.create_server(
            (host, port), backlog=128, reuse_port=False
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event = asyncio.Event()
        self._stopped = threading.Event()
        self._serving = False
        self._connections: set[asyncio.Task] = set()
        self._closed = False

    @property
    def bound_port(self) -> int:
        return self._sock.getsockname()[1]

    # -- the event loop ------------------------------------------------
    def serve_forever(self) -> None:
        """Run the event loop in the calling thread until shutdown."""
        loop = asyncio.new_event_loop()
        # ^C is delivered into whatever frame the loop happens to be
        # running — often a connection or response task.  The task dies
        # with the KeyboardInterrupt *and* the loop re-raises it out of
        # run_until_complete (BaseExceptions propagate through Task
        # step), so the shutdown below already handles it; the default
        # handler would additionally log the dead task as an unhandled
        # exception, which reads like a crash on every clean ^C.
        def _quiet_interrupt(loop, context) -> None:
            if isinstance(context.get("exception"), KeyboardInterrupt):
                return
            loop.default_exception_handler(context)

        loop.set_exception_handler(_quiet_interrupt)
        self._loop = loop
        self._serving = True
        try:
            server = loop.run_until_complete(
                asyncio.start_server(
                    self._on_connection,
                    sock=self._sock,
                    # readuntil() needs headroom past the frame limit to
                    # find the newline of a maximum-size line.
                    limit=self.max_frame_bytes + 2,
                )
            )
            try:
                loop.run_until_complete(self._stop_event.wait())
            except KeyboardInterrupt:
                pass  # ^C drains exactly like shutdown()
            loop.run_until_complete(self._graceful_drain(server))
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()
            self._loop = None
            self._serving = False
            self._stopped.set()

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(self, reader, writer)
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await connection.run()
            await connection.drain()
        except asyncio.CancelledError:
            # Server shutdown: stop reading, but finish what's in flight
            # and flush it whole before the socket closes.
            await connection.drain()
        except Exception:
            pass  # a broken connection must not take the loop down
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _graceful_drain(self, server: asyncio.base_events.Server) -> None:
        # Stop accepting first, then unwind connections: cancelling a
        # read loop triggers its drain path (finish in-flight, flush).
        server.close()
        await server.wait_closed()
        tasks = list(self._connections)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- the blocking control surface ----------------------------------
    def shutdown(self) -> None:
        """Stop the loop (threadsafe) and wait for the graceful drain."""
        if not self._serving:
            return
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._stop_event.set)
        except RuntimeError:
            return  # the loop just closed under us: already stopped
        self._stopped.wait(timeout=30.0)

    def server_close(self) -> None:
        """Free every cursor's enumeration state along with the socket."""
        if self._closed:
            return
        self._closed = True
        self.service.shutdown()
        self.executor.shutdown(wait=False)
        try:
            self._sock.close()
        except OSError:
            pass


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
    returns, even if the loop thread hasn't scheduled yet.
    """
    server = AnykTCPServer(
        db, host=host, port=port, service=service, **service_options
    )
    thread = threading.Thread(
        target=server.serve_forever,
        name="repro-serve",
        daemon=True,
    )
    thread.start()
    return server, server.bound_port
