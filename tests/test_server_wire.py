"""The TCP wire layer and the Python client.

Each test boots a real server on an ephemeral port (daemon threads, so
teardown is cheap) and talks to it over a socket — the same bytes a
foreign-language client would see.
"""

from __future__ import annotations

import json
import select
import socket
import threading
import time

import pytest

import repro.sql
from repro.data.generators import path_database, random_graph_database
from repro.server import Client, ServerError, serve_background

GRAPH_SQL = (
    "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
    "ORDER BY weight LIMIT {k}"
)


@pytest.fixture(scope="module")
def graph_db():
    return random_graph_database(num_edges=400, num_nodes=70, seed=11)


@pytest.fixture()
def served(graph_db):
    server, port = serve_background(graph_db, max_cursors=8)
    yield server, port
    server.shutdown()
    server.server_close()


def test_wire_results_match_direct_library(served, graph_db):
    _, port = served
    sql = GRAPH_SQL.format(k=40)
    with Client(port=port) as client:
        cursor = client.execute(sql, batch=7)
        wire = cursor.fetchall()
    direct = list(repro.sql.query(graph_db, sql))
    assert wire == direct


def test_cursor_survives_reconnect(served):
    """Enumeration state outlives the connection that created it."""
    _, port = served
    sql = GRAPH_SQL.format(k=30)
    with Client(port=port) as one:
        cursor = one.execute(sql, batch=10, prefetch=10)
        first_page = [pair for pair in cursor._pending]
        cursor_id = cursor.cursor_id
    assert cursor_id is not None
    with Client(port=port) as two:
        response = two.call("fetch", cursor=cursor_id, n=1000)
        rest = response["rows"]
        assert response["done"]
    with Client(port=port) as three:
        full = three.execute(sql, batch=1000).fetchall()
    resumed = first_page + [(tuple(r), w) for r, w in rest]
    assert resumed == full


def test_lex_weights_roundtrip_as_tuples(served):
    _, port = served
    sql = (
        "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
        "ORDER BY lex(weight) LIMIT 5"
    )
    with Client(port=port) as client:
        rows = client.execute(sql).fetchall()
    assert rows and all(isinstance(w, tuple) for _, w in rows)
    assert rows == sorted(rows, key=lambda pair: pair[1])


def test_malformed_json_gets_error_line(served):
    _, port = served
    with socket.create_connection(("127.0.0.1", port)) as sock:
        handle = sock.makefile("rwb")
        handle.write(b"this is not json\n")
        handle.flush()
        response = json.loads(handle.readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        # The connection survives the bad line.
        handle.write(b'{"id": 7, "op": "stats"}\n')
        handle.flush()
        response = json.loads(handle.readline())
        assert response["ok"] and response["id"] == 7


def test_server_errors_raise_client_side(served):
    _, port = served
    with Client(port=port) as client:
        with pytest.raises(ServerError) as excinfo:
            client.call("fetch", cursor="c999999")
        assert excinfo.value.code == "unknown_cursor"
        with pytest.raises(ServerError) as excinfo:
            client.execute("SELECT FROM nothing")
        assert excinfo.value.code == "sql_error"


def test_explain_and_stats_over_the_wire(served):
    _, port = served
    sql = GRAPH_SQL.format(k=10)
    with Client(port=port) as client:
        text = client.explain(sql)
        assert "engine:" in text and "because:" in text
        client.execute(sql).fetchall()
        stats = client.stats()
    assert stats["queries"] >= 1
    assert stats["plan_cache"]["hits"] >= 1  # execute after explain
    assert stats["rows_served"] >= 10


def test_result_cursor_close_frees_server_slot(served):
    server, port = served
    with Client(port=port) as client:
        cursor = client.execute(GRAPH_SQL.format(k=1000), batch=5, prefetch=5)
        assert len(server.service.cursors) == 1
        cursor.close()
        assert len(server.service.cursors) == 0
        cursor.close()  # idempotent
        assert cursor.fetch() == []


def test_concurrent_clients_get_correct_streams(graph_db):
    server, port = serve_background(graph_db, max_cursors=16)
    try:
        sql = GRAPH_SQL.format(k=50)
        expected = list(repro.sql.query(graph_db, sql))
        failures = []

        def worker() -> None:
            try:
                with Client(port=port) as client:
                    for _ in range(3):
                        got = client.execute(sql, batch=9).fetchall()
                        if got != expected:
                            failures.append("stream mismatch")
            except Exception as exc:  # pragma: no cover - diagnostic path
                failures.append(repr(exc))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures
        info = server.service.plan_cache.info()
        # 18 queries total; only first-round racers can miss concurrently,
        # so at least the 12 second/third-round queries must hit.
        assert info["hits"] >= 12
    finally:
        server.shutdown()
        server.server_close()


def test_a_slow_request_holds_back_only_its_own_connection():
    """A slow request delays only the later requests on its connection:
    while connection A waits on a ~1 s batch query, connection B's
    ``stats`` is answered first."""
    db = path_database(3, 1500, 100)
    server, port = serve_background(db)
    slow = {
        "id": "slow", "op": "query", "engine": "batch", "fetch": 10,
        "sql": "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 "
        "JOIN R3 ON R2.A3 = R3.A3 ORDER BY weight LIMIT 100000000",
    }
    try:
        with socket.create_connection(("127.0.0.1", port)) as a, \
                socket.create_connection(("127.0.0.1", port)) as b:
            a.settimeout(60.0)
            b.settimeout(30.0)
            a.sendall(json.dumps(slow).encode() + b"\n")
            time.sleep(0.1)
            b_file = b.makefile("rwb")
            b_file.write(b'{"id": "fast", "op": "stats"}\n')
            b_file.flush()
            fast = json.loads(b_file.readline())
            a_answered = select.select([a], [], [], 0)[0]
            assert fast["ok"] and fast["id"] == "fast"
            assert not a_answered, "stats waited for the other connection"
            answer = json.loads(a.makefile("rb").readline())
            assert answer["ok"] and len(answer["rows"]) == 10
    finally:
        server.shutdown()
        server.server_close()


def test_shutdown_with_an_idle_connection_is_prompt(graph_db):
    """An idle connected client does not hold up shutdown(), and it
    reads EOF afterwards."""
    server, port = serve_background(graph_db)
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as idle:
        idle_file = idle.makefile("rwb")
        idle_file.write(b'{"id": 1, "op": "stats"}\n')
        idle_file.flush()
        assert json.loads(idle_file.readline())["ok"]  # accepted, served
        started = time.perf_counter()
        server.shutdown()
        elapsed = time.perf_counter() - started
        server.server_close()
        assert idle_file.read() == b""
    assert elapsed < 2.0


def test_admission_limit_over_the_wire(graph_db):
    server, port = serve_background(
        graph_db, max_cursors=2, idle_evict_s=None
    )
    try:
        with Client(port=port) as client:
            sql = GRAPH_SQL.format(k=1000)
            held = [client.execute(sql, batch=1, prefetch=1) for _ in range(2)]
            with pytest.raises(ServerError) as excinfo:
                client.execute(sql, batch=1, prefetch=1)
            assert excinfo.value.code == "cursor_limit"
            held[0].close()
            third = client.execute(sql, batch=1, prefetch=1)
            assert third.cursor_id is not None
    finally:
        server.shutdown()
        server.server_close()


def test_deadline_over_the_wire(graph_db):
    server, port = serve_background(graph_db)
    try:
        with Client(port=port, deadline_ms=10_000) as client:
            # A generous client-default deadline lets everything finish...
            rows = client.execute(GRAPH_SQL.format(k=20)).fetchall()
            assert len(rows) == 20
    finally:
        server.shutdown()
        server.server_close()


def test_tight_deadline_still_progresses_via_partial_pages(graph_db):
    """A 1 ms deadline forces partial pages, yet iteration completes:
    every fetch delivers at least the row it was mid-producing, so the
    client makes progress page by page instead of losing work."""
    server, port = serve_background(graph_db)
    try:
        sql = GRAPH_SQL.format(k=30)
        with Client(port=port) as client:
            expected = client.execute(sql, batch=1000).fetchall()
            cursor = client.execute(sql, batch=30, prefetch=0, deadline_ms=1)
            rows = list(cursor)
        assert rows == expected
    finally:
        server.shutdown()
        server.server_close()


def test_empty_deadline_page_raises_instead_of_spinning():
    """An empty page on an open cursor (deadline expired before the
    first row, e.g. under queueing delay) must raise, not busy-loop."""
    from repro.server import DeadlineExceeded
    from repro.server.client import ResultCursor

    class StarvedTransport:
        deadline_ms = 1
        calls = 0

        def call(self, op, **fields):
            assert op == "fetch"
            self.calls += 1
            return {
                "ok": True,
                "rows": [],
                "done": False,
                "deadline_exceeded": True,
            }

    transport = StarvedTransport()
    cursor = ResultCursor(
        transport,
        {"cursor": "c1", "columns": ["x"], "engine": "part:lazy",
         "rows": [], "done": False},
        batch=10,
        deadline_ms=1,
    )
    with pytest.raises(DeadlineExceeded):
        list(cursor)
    assert transport.calls == 1  # exactly one round trip, no spinning
    assert cursor.deadline_exceeded
    assert cursor.cursor_id == "c1"  # still resumable with a saner deadline
