"""One ranked stream per statement and snapshot.

A ranked stream is a pure function of (query, snapshot), so the server
keeps one :class:`~repro.server.cursors.SharedStream` per (SQL text,
typed params, engine override, snapshot version) and every cursor on
that key reads its memo at its own offset.  The unit tests drive the
stream and the cursor manager with hand-made sources; the service tests
check that sharing saves engine work and changes nothing a client sees;
the stress test drains one statement over eight connections at once.
"""

from __future__ import annotations

import threading

import pytest

import repro.sql
from repro.data.generators import path_database
from repro.obs.memory import MemoryProfile, admission_bytes
from repro.server import Client, QueryService, serve_background
from repro.server.cursors import CursorManager, SharedStream

PATH_SQL = (
    "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 JOIN R3 ON R2.A3 = R3.A3 "
    "ORDER BY weight LIMIT {k}"
)


@pytest.fixture(scope="module")
def path_db():
    return path_database(length=3, size=120, domain=18, seed=23)


def rows(n):
    return [((i, i + 1), float(i)) for i in range(n)]


def failing_after(m):
    yield from rows(m)
    raise RuntimeError("the source failed")


def drain(cursor, page):
    out = []
    while True:
        got, done = cursor.fetch(page)
        out.extend(got)
        if done:
            return out


# ----------------------------------------------------------------------
# The stream and its readers
# ----------------------------------------------------------------------
def test_two_readers_at_different_offsets_see_the_same_rows():
    manager = CursorManager()
    first = manager.open(SharedStream(iter(rows(25)), key="k"))
    assert first.fetch(7) == (rows(7), False)
    second = manager.join("k")
    assert second is not None and second.shared is first.shared
    # The second reader starts at offset 0 and reads the memo; the first
    # resumes at 7 and pulls the source past the memo's end.
    assert second.fetch(4) == (rows(4), False)
    assert first.fetch(10) == (rows(17)[7:], False)
    assert drain(second, 6) == rows(25)[4:]
    assert drain(first, 100) == rows(25)[17:]
    assert (first.emitted, second.emitted) == (25, 25)
    assert manager.stats()["shared"] == 1


def test_a_source_failure_raises_to_every_reader_at_its_offset():
    manager = CursorManager()
    first = manager.open(SharedStream(failing_after(10), key="k"))
    second = manager.join("k")
    # Pages of 4: the third page ends at the failure with the rows before
    # it; the next take raises, and neither reader ever reads as done.
    assert first.fetch(4) == (rows(4), False)
    assert first.fetch(4) == (rows(8)[4:], False)
    assert first.fetch(4) == (rows(10)[8:], False)
    with pytest.raises(RuntimeError, match="the source failed"):
        first.fetch(4)
    assert second.fetch(10) == (rows(10), False)
    with pytest.raises(RuntimeError, match="the source failed"):
        second.fetch(1)
    with pytest.raises(RuntimeError, match="the source failed"):
        first.fetch(1)  # kept, not turned into a clean end
    assert first.emitted == second.emitted == 10
    assert not first.stream.exhausted and not second.stream.exhausted


def test_closing_the_first_reader_leaves_the_second_draining():
    manager = CursorManager()
    first = manager.open(SharedStream(iter(rows(30)), key="k"))
    second = manager.join("k")
    assert first.fetch(5)[0] == rows(5)
    closed = manager.close(first.id)
    assert not closed.last_reader and not first.shared.closed
    assert drain(second, 8) == rows(30)
    assert manager.close(second.id).last_reader
    assert second.shared.closed
    # The key is free again: the next cursor on it opens a new stream.
    assert manager.join("k") is None


def test_the_last_close_reads_zero_live_entries():
    memory = MemoryProfile(engine="part")

    def engine_source():
        # Like ``execute``: structures report into the profile, and the
        # profile's live figures return to zero when the stream ends.
        memory.gauge("part.pq").add(40)
        try:
            yield from rows(50)
        finally:
            memory.release()

    manager = CursorManager()
    first = manager.open(SharedStream(engine_source(), key="k", memory=memory))
    second = manager.join("k")
    first.fetch(10)
    second.fetch(5)
    # 40 engine entries plus 10 memoized rows, counted once for the
    # stream though two cursors read it.
    assert memory.live_entries == 50
    assert manager.live_mem_bytes() == admission_bytes(memory) > 0
    manager.close(first.id)
    assert memory.live_entries == 50  # a reader remains: nothing freed
    manager.close(second.id)
    assert memory.live_entries == 0
    assert manager.live_mem_bytes() == 0
    assert memory.peak_entries == 50


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
def _query(service, sql, **fields):
    response = service.handle({"id": 0, "op": "query", "sql": sql, **fields})
    assert response["ok"], response
    return response


def _drain(service, opened, n=17):
    got = list(opened["rows"])
    cursor, done = opened["cursor"], opened["done"]
    while not done:
        page = service.handle({"id": 0, "op": "fetch", "cursor": cursor, "n": n})
        assert page["ok"], page
        got.extend(page["rows"])
        done = page["done"]
    return got


def test_a_second_cursor_on_an_open_statement_adds_no_heap_ops(path_db):
    sql = PATH_SQL.format(k=200)
    alone = QueryService(path_db)
    expected = _drain(alone, _query(alone, sql, fetch=30))
    heap_ops = alone.stats()["counters"]["heap_ops"]
    assert heap_ops > 0

    service = QueryService(path_db)
    first = _query(service, sql, fetch=30)
    second = _query(service, sql)
    assert second["plan_cached"] and second["engine"] == first["engine"]
    assert second["version"] == first["version"]
    assert service.stats()["cursors"]["shared"] == 1
    assert "repro_cursors_shared_total 1\n" in service.metrics()["metrics"]
    assert _drain(service, second) == expected
    assert _drain(service, first) == expected
    stats = service.stats()
    assert stats["cursors"]["open"] == 0
    assert stats["counters"]["heap_ops"] == heap_ops
    # The stream's delay profile is folded once, for one stream.
    assert [v["streams"] for v in stats["delay_profiles"].values()] == [1]


def test_a_mutation_between_two_queries_gives_two_streams():
    db = path_database(length=3, size=120, domain=18, seed=23)
    sql = PATH_SQL.format(k=50)
    service = QueryService(db)
    before = repro.sql.query(service.db, sql).fetchall()
    first = _query(service, sql, fetch=5)
    mutated = service.handle(
        {
            "id": 0,
            "op": "mutate",
            "sql": "INSERT INTO R1 (A1, A2, weight) VALUES (0, 0, -5.0)",
        }
    )
    assert mutated["ok"], mutated
    second = _query(service, sql)
    assert second["version"] == first["version"] + 1
    assert service.stats()["cursors"]["shared"] == 0
    after = repro.sql.query(service.db, sql).fetchall()
    assert after != before  # the new row joins: the streams differ

    def pairs(rows):
        return [(tuple(row), weight) for row, weight in rows]

    assert pairs(_drain(service, second)) == after
    assert pairs(_drain(service, first)) == before


def test_int_and_float_limit_params_answer_as_at_the_parent(path_db):
    sql = (
        "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 ORDER BY weight LIMIT ?"
    )
    for order in ([2, 2.0], [2.0, 2]):
        service = QueryService(path_db)
        answers = [
            service.handle(
                {"id": 0, "op": "query", "sql": sql, "params": [value]}
            )
            for value in order
        ]
        by_value = {repr(v): a for v, a in zip(order, answers)}
        assert by_value["2"]["ok"] and by_value["2"]["cursor"] is not None
        assert not by_value["2.0"]["ok"]
        assert by_value["2.0"]["error"]["code"] == "sql_error"
        assert "LIMIT parameter" in by_value["2.0"]["error"]["message"]
        assert len(_drain(service, by_value["2"])) == 2
        assert service.stats()["cursors"]["shared"] == 0


def test_memory_admission_counts_a_shared_stream_once(path_db):
    sql = PATH_SQL.format(k=400)
    probe = QueryService(path_db)
    _query(probe, sql, fetch=40)
    one_stream = probe.cursors.live_mem_bytes()
    assert one_stream > 0

    # Room for one stream's bytes but not for two: if a joined cursor
    # counted its stream again, the third query would be refused.
    watermark_mb = 1.5 * one_stream / (1024 * 1024)
    service = QueryService(path_db, max_mem_mb=watermark_mb)
    first = _query(service, sql, fetch=40)
    second = _query(service, sql, fetch=40)
    assert service.cursors.live_mem_bytes() == one_stream
    third = _query(service, sql, fetch=10)
    assert service.stats()["cursors"]["shared"] == 2
    assert service.stats()["memory"]["pressure_rejections"] == 0
    assert second["mem"] == third["mem"]
    # A different statement is a second stream and is still admitted;
    # with both open, a third statement meets the watermark.
    _query(service, PATH_SQL.format(k=401), fetch=40)
    refused = service.handle(
        {"id": 0, "op": "query", "sql": PATH_SQL.format(k=402)}
    )
    assert not refused["ok"] and refused["error"]["code"] == "mem_pressure"


# ----------------------------------------------------------------------
# Eight connections on one statement
# ----------------------------------------------------------------------
def test_eight_connections_drain_one_statement(path_db):
    sql = PATH_SQL.format(k=300)
    expected = repro.sql.query(path_db, sql).fetchall()
    assert len(expected) == 300
    server, port = serve_background(path_db, max_cursors=16)
    try:
        # A cursor held open from the start, so every thread joins it.
        with Client(port=port) as holder:
            held = holder.call("query", sql=sql)
            failures: list[str] = []
            start = threading.Barrier(8)

            def worker(page: int) -> None:
                try:
                    with Client(port=port) as client:
                        start.wait(timeout=10)
                        got = client.execute(sql, batch=page).fetchall()
                        if got != expected:
                            failures.append(f"page {page}: stream mismatch")
                except Exception as exc:  # pragma: no cover - diagnostic
                    failures.append(repr(exc))

            threads = [
                threading.Thread(target=worker, args=(page,))
                for page in (1, 3, 7, 13, 29, 50, 100, 300)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert not failures, failures
            stats = holder.call("stats")
            assert stats["cursors"]["shared"] == 8
            holder.call("close", cursor=held["cursor"])
            stats = holder.call("stats")
        assert stats["cursors"]["open"] == 0
        assert stats["memory"]["live_bytes"] == 0
    finally:
        server.shutdown()
        server.server_close()
