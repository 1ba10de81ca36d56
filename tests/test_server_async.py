"""The asyncio server core: pipelining, framing negotiation, robustness.

Everything here exercises behaviour the old thread-per-connection
server could not provide (or silently got wrong): many requests in
flight on one socket, binary length-prefixed frames, the pipelined
client's inherited query surface, the frame-size ceiling in both
framings, client-side timeouts that do not corrupt the stream, and a
graceful drain that never truncates a frame mid-write.
"""

from __future__ import annotations

import gc
import json
import socket
import struct
import threading
import time
import warnings

import pytest

import repro.sql
from repro.data.generators import random_graph_database
from repro.server import (
    Client,
    ClientTimeout,
    PipelinedClient,
    ServerError,
    serve_background,
)
from repro.server import protocol

GRAPH_SQL = (
    "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
    "ORDER BY weight LIMIT {k}"
)
PARAM_SQL = (
    "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
    "WHERE e1.src > ? ORDER BY weight LIMIT ?"
)


@pytest.fixture(scope="module")
def graph_db():
    return random_graph_database(num_edges=400, num_nodes=70, seed=11)


@pytest.fixture()
def served(graph_db):
    server, port = serve_background(graph_db, max_cursors=16)
    yield server, port
    server.shutdown()
    server.server_close()


# ----------------------------------------------------------------------
# Hello / framing negotiation
# ----------------------------------------------------------------------
def test_hello_negotiates_binary_framing(served):
    _, port = served
    with PipelinedClient(port=port, frames="binary") as client:
        assert client.frames == "binary"
        assert client.server_info["frames"] == "binary"
        assert client.server_info["protocol"] == protocol.PROTOCOL_VERSION
        assert client.server_info["pipelining"] is True
        assert client.server_info["max_frame_bytes"] == protocol.MAX_FRAME_BYTES
        stats = client.stats()
        assert "queries" in stats


def test_hello_rejects_unknown_framing(served):
    _, port = served
    with pytest.raises(ServerError) as excinfo:
        PipelinedClient(port=port, frames="msgpack")
    assert excinfo.value.code == "bad_request"


def test_json_framing_still_default_for_plain_clients(served, graph_db):
    # A hello-less client speaks newline-delimited JSON forever.
    _, port = served
    sql = GRAPH_SQL.format(k=25)
    with Client(port=port) as client:
        rows = client.execute(sql, batch=7).fetchall()
    assert rows == list(repro.sql.query(graph_db, sql))


# ----------------------------------------------------------------------
# Pipelining
# ----------------------------------------------------------------------
def test_pipelined_queries_interleave_on_one_socket(served, graph_db):
    _, port = served
    sql = GRAPH_SQL.format(k=40)
    expected = list(repro.sql.query(graph_db, sql))
    with PipelinedClient(port=port) as client:
        # Three submissions before reading any response.
        futures = [
            client.submit("query", sql=sql, params=None, fetch=10)
            for _ in range(3)
        ]
        opened = [client.result(f) for f in futures]
        cursors = [r["cursor"] for r in opened]
        rows = [
            [tuple(pair[0]) if isinstance(pair[0], list) else pair[0]
             for pair in r["rows"]]
            for r in opened
        ]
        # Round-robin fetches across all three cursors — the
        # multi-cursor interleave the line protocol serialized away.
        done = [False, False, False]
        while not all(done):
            pending = [
                (i, client.submit("fetch", cursor=cursors[i], n=10))
                for i in range(3)
                if not done[i]
            ]
            for i, future in pending:
                page = client.result(future)
                rows[i].extend(
                    tuple(p[0]) if isinstance(p[0], list) else p[0]
                    for p in page["rows"]
                )
                done[i] = page["done"]
    want = [tuple(row) for row, _ in expected]
    for stream in rows:
        assert [tuple(r) for r in stream] == want


def test_pipelined_params_and_cursor_surface(served, graph_db):
    _, port = served
    with PipelinedClient(port=port) as client:
        bound = client.execute(PARAM_SQL, params=[10, 15]).fetchall()
        literal = client.execute(
            "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
            "WHERE e1.src > 10 ORDER BY weight LIMIT 15"
        ).fetchall()
    assert bound == literal and len(bound) == 15


@pytest.mark.parametrize("frames", ["json", "binary"])
def test_batch_is_an_unknown_op_in_both_framings(served, frames):
    # Pipelining is the one way to put several requests on a round trip.
    _, port = served
    with PipelinedClient(port=port, frames=frames) as client:
        with pytest.raises(ServerError) as excinfo:
            client.call("batch", requests=[{"op": "stats"}])
        assert excinfo.value.code == "bad_request"
        assert "batch" not in excinfo.value.message.split("known ops:")[1]
        assert "queries" in client.stats()  # the connection stays usable


@pytest.mark.parametrize("frames", ["json", "binary"])
def test_pipelined_client_answers_like_client(served, frames):
    """PipelinedClient inherits Client's query surface: on one server the
    two answer explain, explain_analyze, metrics and trace alike."""
    server, port = served
    sql = GRAPH_SQL.format(k=12)
    traced = server.service.handle({"id": "t", "op": "stats"})["trace_id"]
    with Client(port=port) as plain, PipelinedClient(
        port=port, frames=frames
    ) as pipelined:
        plain.explain(sql)  # warm the plan cache: both calls below hit
        assert pipelined.explain(sql) == plain.explain(sql)
        one, two = plain.explain_analyze(sql), pipelined.explain_analyze(sql)
        assert one.keys() == two.keys() >= {"explain", "analyze", "engine"}
        assert (one["engine"], one["plan_cached"]) == (
            two["engine"],
            two["plan_cached"],
        )
        assert one["analyze"]["rows"] == two["analyze"]["rows"] == 12
        assert (
            plain.metrics(format="json").keys()
            == pipelined.metrics(format="json").keys()
        )
        one, two = plain.trace(traced), pipelined.trace(traced)
        assert one["trace"]["trace_id"] == traced
        assert (one["trace"], one["rendered"]) == (two["trace"], two["rendered"])
    assert issubclass(PipelinedClient, Client)


# ----------------------------------------------------------------------
# Frame-size ceiling — both framings
# ----------------------------------------------------------------------
@pytest.fixture()
def small_frames(graph_db):
    server, port = serve_background(graph_db, max_frame_bytes=2048)
    yield server, port
    server.shutdown()
    server.server_close()


def test_oversized_json_line_answers_frame_too_large(small_frames):
    _, port = small_frames
    with socket.create_connection(("127.0.0.1", port)) as sock:
        handle = sock.makefile("rwb")
        junk = json.dumps(
            {"id": 1, "op": "stats", "pad": "x" * 5000}
        ).encode() + b"\n"
        handle.write(junk)
        handle.flush()
        response = json.loads(handle.readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "frame_too_large"
        # The connection resynchronized past the oversized line.
        handle.write(b'{"id": 2, "op": "stats"}\n')
        handle.flush()
        response = json.loads(handle.readline())
        assert response["ok"] and response["id"] == 2


def test_oversized_binary_frame_answers_frame_too_large(small_frames):
    _, port = small_frames
    header = struct.Struct(">I")

    def read_frame(handle):
        (length,) = header.unpack(handle.read(header.size))
        return json.loads(handle.read(length))

    with socket.create_connection(("127.0.0.1", port)) as sock:
        handle = sock.makefile("rwb")
        handle.write(json.dumps({"id": 0, "op": "hello",
                                 "frames": "binary"}).encode() + b"\n")
        handle.flush()
        hello = json.loads(handle.readline())
        assert hello["ok"] and hello["max_frame_bytes"] == 2048
        payload = json.dumps(
            {"id": 1, "op": "stats", "pad": "x" * 5000}
        ).encode()
        handle.write(header.pack(len(payload)) + payload)
        handle.flush()
        response = read_frame(handle)
        assert response["ok"] is False
        assert response["error"]["code"] == "frame_too_large"
        # The payload was discarded whole; the stream stays aligned.
        payload = json.dumps({"id": 2, "op": "stats"}).encode()
        handle.write(header.pack(len(payload)) + payload)
        handle.flush()
        response = read_frame(handle)
        assert response["ok"] and response["id"] == 2


def test_frame_ceiling_has_a_floor():
    db = random_graph_database(num_edges=10, num_nodes=5, seed=1)
    from repro.server import AnykTCPServer

    with pytest.raises(ValueError):
        AnykTCPServer(db, port=0, max_frame_bytes=512)


class _HangUpServer:
    """Accepts connections and closes each at once, before any answer."""

    def __init__(self) -> None:
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            conn.close()

    def close(self) -> None:
        self._sock.close()


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.parametrize("failure", ["refused", "hung_up"])
def test_failed_hello_leaves_no_socket_open(served, failure):
    """A ``PipelinedClient`` whose hello fails closes its socket and both
    files before raising: no ``unclosed socket`` ResourceWarning when the
    half-built client is collected (run with ``python -X dev``)."""
    _, port = served
    hang_up = _HangUpServer() if failure == "hung_up" else None
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            if hang_up is None:
                with pytest.raises(ServerError):
                    PipelinedClient(port=port, frames="msgpack")
            else:
                with pytest.raises(ConnectionError):
                    PipelinedClient(port=hang_up.port)
            gc.collect()
    finally:
        if hang_up is not None:
            hang_up.close()
    assert [str(w.message) for w in caught] == []


# ----------------------------------------------------------------------
# Client timeouts
# ----------------------------------------------------------------------
class _SilentServer:
    """Accepts connections; answers hello, then optional silence."""

    def __init__(self, respond_after_hello: bool = False) -> None:
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        self.respond_after_hello = respond_after_hello
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn: socket.socket) -> None:
        with conn, conn.makefile("rwb") as handle:
            while True:
                try:
                    line = handle.readline()
                except OSError:
                    return
                if not line:
                    return
                request = json.loads(line)
                if request.get("op") == "hello":
                    reply = {
                        "id": request["id"], "ok": True,
                        "frames": request.get("frames", "json"),
                        "protocol": 2, "pipelining": True,
                        "max_frame_bytes": 1_000_000,
                    }
                    handle.write(json.dumps(reply).encode() + b"\n")
                    handle.flush()
                elif self.respond_after_hello and request.get("slow") is None:
                    reply = {"id": request["id"], "ok": True, "answered": True}
                    handle.write(json.dumps(reply).encode() + b"\n")
                    handle.flush()
                # else: never answer — force a client-side timeout

    def close(self) -> None:
        self._sock.close()


def test_plain_client_timeout_poisons_and_raises():
    server = _SilentServer()
    try:
        client = Client(port=server.port, timeout=0.2)
        with pytest.raises(ClientTimeout) as excinfo:
            client.call("stats")
        assert excinfo.value.code == "client_timeout"
        # The connection is gone; further calls fail fast, not hang.
        with pytest.raises(Exception):
            client.call("stats")
    finally:
        server.close()


def test_pipelined_timeout_leaves_connection_usable():
    server = _SilentServer(respond_after_hello=True)
    try:
        client = PipelinedClient(port=server.port, frames="json", timeout=0.2)
        with pytest.raises(ClientTimeout):
            client.call("stats", slow=1)  # the server never answers this
        # The same socket still works for the next request.
        response = client.call("stats")
        assert response["answered"] is True
        client.close()
    finally:
        server.close()


def test_connect_and_read_timeouts_are_independent(served, monkeypatch):
    # connect_timeout bounds the dial; timeout bounds each read.  The
    # dial timeout must not leak into the established socket (a slow
    # query would spuriously time out) and vice versa.
    _, port = served
    seen = {}
    real = socket.create_connection

    def spy(address, timeout=None, **kwargs):
        seen["connect_timeout"] = timeout
        return real(address, timeout=timeout, **kwargs)

    monkeypatch.setattr(socket, "create_connection", spy)
    with Client(port=port, connect_timeout=3.5, timeout=7.0) as client:
        assert seen["connect_timeout"] == 3.5
        assert client._socket.gettimeout() == 7.0
        client.stats()


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
def test_shutdown_during_active_fetch_never_truncates_a_frame(graph_db):
    """Every byte the client ever sees parses as complete frames: the
    drain either finishes an in-flight response and flushes it whole,
    or drops it entirely — never a torn JSON line."""
    for attempt in range(3):  # vary the shutdown/in-flight race
        server, port = serve_background(graph_db)
        sock = socket.create_connection(("127.0.0.1", port))
        request = {
            "id": 1, "op": "query",
            "sql": GRAPH_SQL.format(k=4000), "fetch": 4000,
        }
        sock.sendall(json.dumps(request).encode() + b"\n")
        time.sleep(0.02 * attempt)
        shutdown = threading.Thread(target=server.shutdown)
        shutdown.start()
        received = b""
        sock.settimeout(10.0)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        except OSError:
            pass
        shutdown.join(timeout=35.0)
        server.server_close()
        sock.close()
        assert received == b"" or received.endswith(b"\n"), (
            f"torn frame on attempt {attempt}: tail="
            f"{received[-80:]!r}"
        )
        for line in received.splitlines():
            json.loads(line)  # every delivered frame is complete JSON


def test_shutdown_is_idempotent_and_unserved_server_closes(graph_db):
    from repro.server import AnykTCPServer

    server = AnykTCPServer(graph_db, port=0)
    # Never served: shutdown is a no-op, close releases the socket.
    server.shutdown()
    server.server_close()
    server.server_close()
