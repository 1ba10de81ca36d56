"""One ranked stream per statement and snapshot.

A ranked stream is a pure function of (query, snapshot), so the server
keeps one :class:`~repro.server.cursors.SharedStream` per (SQL text,
typed params, engine override, snapshot version) and every cursor on
that key reads its memo at its own offset.  A stream that ends cleanly
stays joinable while its version is the newest, within the plan cache's
bounds.  The unit tests drive the stream and the cursor manager with
hand-made sources; the service tests check that sharing saves engine
work and changes nothing a client sees; the stress test drains one
statement over eight connections at once.
"""

from __future__ import annotations

import threading

import pytest

import repro.sql
from repro.data.generators import path_database
from repro.obs.memory import MemoryProfile, admission_bytes, entry_bytes
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
    assert not closed.folds and not first.shared.closed
    assert drain(second, 8) == rows(30)
    last = manager.close(second.id)
    assert last.folds and not last.closes_stream
    # The stream ended cleanly, so its key stays joinable: a join after
    # the drain reads the memo from offset 0 and pulls no source.
    second.shared._source = failing_after(0)
    third = manager.join("k")
    assert third.shared is second.shared
    assert drain(third, 7) == rows(30)
    assert not manager.close(third.id).folds  # folded once, by `last`
    assert manager.stats()["shared"] == 2


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
# Completed results
# ----------------------------------------------------------------------
def drained(manager, key, n, **fields):
    """Open a stream of ``n`` rows on ``key``, drain it and close its
    only reader; returns the cursor."""
    cursor = manager.open(SharedStream(iter(rows(n)), key=key, **fields))
    assert drain(cursor, 7) == rows(n)
    return manager.close(cursor.id)


def test_a_stream_closed_before_its_end_is_not_kept():
    manager = CursorManager()
    cursor = manager.open(SharedStream(iter(rows(30)), key="k"))
    assert cursor.fetch(29) == (rows(29), False)  # one row short of done
    closed = manager.close(cursor.id)
    assert closed.folds and closed.closes_stream and cursor.shared.closed
    assert manager.join("k") is None
    assert manager.stats()["retained"] == {"results": 0, "rows": 0}


def test_a_stream_whose_source_raised_is_not_kept():
    manager = CursorManager()
    cursor = manager.open(SharedStream(failing_after(10), key="k"))
    assert cursor.fetch(10) == (rows(10), False)
    with pytest.raises(RuntimeError, match="the source failed"):
        cursor.fetch(10)
    assert manager.close(cursor.id).closes_stream
    assert manager.join("k") is None
    assert manager.stats()["retained"] == {"results": 0, "rows": 0}


def test_kept_results_are_bounded_by_count_and_rows_lru():
    manager = CursorManager()
    manager.retain_limit, manager.retain_rows = 2, 50
    drained(manager, "a", 10)
    drained(manager, "b", 10)
    # Joining "a" makes it the most recently used; "c" then evicts "b".
    manager.close(manager.join("a").id)
    drained(manager, "c", 10)
    assert manager.stats()["retained"] == {"results": 2, "rows": 20}
    assert manager.join("b") is None
    # 20 + 20 + 20 rows exceed the budget of 50: the oldest goes.
    drained(manager, "d", 20)
    drained(manager, "e", 20)
    assert manager.stats()["retained"] == {"results": 2, "rows": 40}
    assert [manager.join(key) is None for key in "acde"] == [
        True,
        True,
        False,
        False,
    ]
    # A result over the whole budget is never kept.
    closed = drained(manager, "big", 51)
    assert closed.closes_stream and manager.join("big") is None


def test_a_newer_version_drops_older_kept_results():
    manager = CursorManager()
    drained(manager, ("a", 1), 10, version=1)
    drained(manager, ("b", 1), 10, version=1)
    old = manager.open(SharedStream(iter(rows(10)), key=("c", 1), version=1))
    old.fetch(3)
    # A look-up at version 2 drops every reader-less result of version 1.
    assert manager.join(("a", 2), version=2) is None
    assert manager.stats()["retained"] == {"results": 0, "rows": 0}
    # A version-1 stream that finishes afterwards is not kept.
    assert drain(old, 100) == rows(10)[3:]
    assert manager.close(old.id).closes_stream
    assert manager.join(("c", 1), version=1) is None
    drained(manager, ("a", 2), 10, version=2)
    assert manager.stats()["retained"] == {"results": 1, "rows": 10}


def test_memory_eviction_sheds_kept_results_first():
    kept = MemoryProfile(engine="part")
    live = MemoryProfile(engine="part")

    def engine_source():
        live.gauge("part.pq").add(40)
        try:
            yield from rows(50)
        finally:
            live.release()

    manager = CursorManager()
    drained(manager, "kept", 30, memory=kept)
    assert kept.live_entries == 0  # the closed cursor reads 0 live entries
    assert manager.live_mem_bytes() == entry_bytes("part", 30)
    cursor = manager.open(SharedStream(engine_source(), key="k", memory=live))
    cursor.fetch(10)
    open_bytes = admission_bytes(live)
    assert manager.live_mem_bytes() == open_bytes + entry_bytes("part", 30)
    # Over the watermark by the kept memo: dropping it is enough, and the
    # idle reader's stream is not touched.
    assert manager.evict_for_memory(open_bytes + 1, min_idle_s=0.0) == 0
    assert manager.stats()["retained"] == {"results": 0, "rows": 0}
    assert manager.live_mem_bytes() == open_bytes
    assert manager.get(cursor.id) is cursor
    assert manager.evict_for_memory(1, min_idle_s=0.0) == 1


def test_memory_eviction_of_a_completed_stream_keeps_nothing():
    memory = MemoryProfile(engine="part")
    manager = CursorManager()
    cursor = manager.open(SharedStream(iter(rows(20)), key="k", memory=memory))
    # The reader has seen ``done`` but was never closed: an idle,
    # completed stream.
    assert drain(cursor, 20) == rows(20)
    assert manager.live_mem_bytes() == entry_bytes("part", 20)
    assert manager.evict_for_memory(1, min_idle_s=0.0) == 1
    assert manager.stats()["retained"] == {"results": 0, "rows": 0}
    assert manager.live_mem_bytes() == 0
    assert manager.join("k") is None


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


def _trace_names(service, response):
    found = service.handle({"id": 0, "op": "trace", "trace": response["trace_id"]})
    assert found["ok"], found
    return [span["name"] for span in found["trace"]["spans"]]


def test_a_repeat_query_on_a_completed_statement_reads_its_memo(path_db):
    sql = PATH_SQL.format(k=60)
    cold = QueryService(path_db)
    expected = _drain(cold, _query(cold, sql, fetch=10))
    assert len(expected) == 60

    service = QueryService(path_db)
    assert _drain(service, _query(service, sql, fetch=10)) == expected
    before = service.stats()
    assert before["cursors"]["retained"] == {"results": 1, "rows": 60}
    repeat = _query(service, sql, fetch=10)
    assert repeat["plan_cached"] and repeat["mem"]["live_entries"] == 60
    names = _trace_names(service, repeat)
    assert "cache_lookup" in names and "plan" not in names
    cursor = repeat["cursor"]
    got = list(repeat["rows"])
    while True:
        page = service.handle({"id": 0, "op": "fetch", "cursor": cursor, "n": 25})
        assert page["ok"], page
        got.extend(page["rows"])
        if page["done"]:
            break
    assert got == expected
    assert page["mem"]["live_entries"] == 0  # a closed cursor reads 0
    after = service.stats()
    assert after["cursors"]["shared"] == before["cursors"]["shared"] + 1
    for counter in ("heap_ops", "tuples_read"):
        assert after["counters"][counter] == before["counters"][counter] > 0
    # The stream folded once, when its first reader retired.
    assert after["delay_profiles"] == before["delay_profiles"]
    assert after["memory"]["profiles"] == before["memory"]["profiles"]
    assert after["cursors"]["retained"] == {"results": 1, "rows": 60}


def test_a_mutation_builds_on_the_new_version_and_drops_the_old():
    db = path_database(length=3, size=120, domain=18, seed=23)
    sql = PATH_SQL.format(k=50)
    service = QueryService(db)
    _drain(service, _query(service, sql))
    assert service.stats()["cursors"]["retained"]["results"] == 1
    heap_ops = service.stats()["counters"]["heap_ops"]
    mutated = service.handle(
        {
            "id": 0,
            "op": "mutate",
            "sql": "INSERT INTO R1 (A1, A2, weight) VALUES (0, 0, -5.0)",
        }
    )
    assert mutated["ok"], mutated
    second = _query(service, sql)
    assert second["version"] == mutated["version"]
    # The look-up at the new version dropped the old version's result.
    assert service.stats()["cursors"]["retained"]["results"] == 0
    expected = repro.sql.query(service.db, sql).fetchall()
    assert [(tuple(r), w) for r, w in _drain(service, second)] == expected
    stats = service.stats()
    assert stats["cursors"]["shared"] == 0
    assert stats["counters"]["heap_ops"] > heap_ops  # built anew
    assert stats["cursors"]["retained"] == {"results": 1, "rows": 50}


def test_the_service_bounds_kept_results_by_its_plan_cache(path_db):
    service = QueryService(path_db, plan_cache_size=2, default_batch=30)
    assert (service.cursors.retain_limit, service.cursors.retain_rows) == (2, 60)
    for k in (20, 21, 22):
        _drain(service, _query(service, PATH_SQL.format(k=k)))
    assert service.stats()["cursors"]["retained"] == {"results": 2, "rows": 43}
    _drain(service, _query(service, PATH_SQL.format(k=61)))
    assert service.stats()["cursors"]["retained"] == {"results": 2, "rows": 43}


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
        # The drained statement stays joinable: its memo is all that is
        # live.
        assert stats["cursors"]["retained"] == {"results": 1, "rows": 300}
        assert stats["memory"]["live_bytes"] == entry_bytes(held["engine"], 300)
    finally:
        server.shutdown()
        server.server_close()
