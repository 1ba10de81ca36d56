"""Concurrency stress tests for the query service.

Three regimes the unit tests cannot reach:

- many threads hammering *one* cursor: the stream lock must serialize
  pulls so the union of all pages is an exact dup-free, gap-free prefix
  of the ranked stream;
- eviction racing an in-flight fetch: the loser must see a *clean*
  protocol error (``unknown_cursor``, fed by :class:`StreamClosed`) —
  never a silent ``done`` that truncates the ranked stream, and never an
  ``internal`` error escaping the wire handler;
- concurrent sessions beside a concurrent writer: every page must equal
  a serial recompute on the snapshot version its cursor reported.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.anyk.api import PausableStream, StreamClosed
from repro.data.generators import path_database, random_graph_database
from repro.dynamic import VersionedDatabase
import repro.server.protocol as protocol
from repro.server import QueryService
from repro.sql import query as sql_query

SQL = (
    "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
    "ORDER BY weight LIMIT {k}"
)


def expected_rows(db, k):
    """The serial ranked prefix, in wire (JSON-able) shape."""
    result = sql_query(db, SQL.format(k=k))
    return protocol.jsonable_rows(list(result))


def test_many_threads_fetch_one_cursor_without_dup_or_skip():
    db = random_graph_database(num_edges=300, num_nodes=40, seed=3)
    k = 500
    expected = expected_rows(db, k)
    assert len(expected) == k  # the instance is big enough to matter

    service = QueryService(db)
    opened = service.query(SQL.format(k=k))
    cursor = opened["cursor"]

    pages: list[list] = []
    pages_lock = threading.Lock()
    errors: list[dict] = []

    def hammer():
        while True:
            response = service.handle(
                {"id": 0, "op": "fetch", "cursor": cursor, "n": 13}
            )
            if not response["ok"]:
                with pages_lock:
                    errors.append(response["error"])
                return
            rows = response["rows"]
            if rows:
                with pages_lock:
                    pages.append(rows)
            if response["done"]:
                return

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()

    # Once drained the service auto-closes the cursor; late fetchers get
    # the clean unknown_cursor error, nothing else.
    assert all(e["code"] == protocol.UNKNOWN_CURSOR for e in errors)

    collected = [row for page in pages for row in page]
    # Join results of this query are unique rows, so multiset equality +
    # count gives dup-free and gap-free in one shot.
    def freeze(rows):
        return [
            (tuple(tuple(v) if isinstance(v, list) else v for v in row), w)
            for row, w in rows
        ]

    assert sorted(map(repr, freeze(collected))) == sorted(
        map(repr, freeze(expected))
    )
    # Each page is a contiguous ascending slice of the expected prefix.
    position = {repr(item): i for i, item in enumerate(freeze(expected))}
    for page in pages:
        indexes = [position[repr(item)] for item in freeze(page)]
        assert indexes == list(
            range(indexes[0], indexes[0] + len(indexes))
        ), "a page interleaved with another thread's pull"


def test_eviction_racing_fetch_is_a_clean_protocol_error():
    db = random_graph_database(num_edges=300, num_nodes=40, seed=5)
    expected = expected_rows(db, 400)
    # One slot, instant idle eviction: every new query evicts the cursor
    # any racing fetch is using.
    service = QueryService(db, max_cursors=1, idle_evict_s=0.0)

    stop = threading.Event()
    outcomes: list[str] = []
    fetched: list[list] = []
    unexpected: list[dict] = []
    outcome_lock = threading.Lock()

    def fetch_loop():
        while not stop.is_set():
            opened = service.handle(
                {"id": 1, "op": "query", "sql": SQL.format(k=400)}
            )
            if not opened["ok"]:
                with outcome_lock:
                    if opened["error"]["code"] not in (
                        protocol.CURSOR_LIMIT,
                        protocol.UNKNOWN_CURSOR,
                    ):
                        unexpected.append(opened["error"])
                    outcomes.append(opened["error"]["code"])
                continue
            cursor = opened["cursor"]
            while not stop.is_set():
                response = service.handle(
                    {"id": 2, "op": "fetch", "cursor": cursor, "n": 7}
                )
                if not response["ok"]:
                    # The only acceptable failure: the cursor is gone
                    # (evicted mid-fetch or between fetches) — a clean,
                    # machine-readable protocol error.
                    with outcome_lock:
                        if response["error"]["code"] != protocol.UNKNOWN_CURSOR:
                            unexpected.append(response["error"])
                        outcomes.append(response["error"]["code"])
                    break
                with outcome_lock:
                    if response["rows"]:
                        fetched.append(response["rows"])
                    outcomes.append("rows")
                if response["done"]:
                    break

    threads = [threading.Thread(target=fetch_loop) for _ in range(6)]
    for thread in threads:
        thread.start()
    import time

    time.sleep(1.0)
    stop.set()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()

    # Nothing ever surfaced as anything but the clean protocol errors,
    # the race actually happened (fetches lost to eviction), and every
    # page that did come through is a slice of the ranked stream.
    assert unexpected == []
    assert protocol.UNKNOWN_CURSOR in outcomes or protocol.CURSOR_LIMIT in outcomes
    assert "rows" in outcomes
    position = {repr(item): i for i, item in enumerate(expected)}
    for page in fetched:
        indexes = [position[repr(item)] for item in page]
        assert indexes == list(range(indexes[0], indexes[0] + len(indexes)))


def test_stream_closed_is_not_swallowed_as_done():
    """The primitive the protocol behavior rests on: closing a stream
    with results pending raises, it does not fake exhaustion."""
    stream = PausableStream(iter([((1,), 0.1), ((2,), 0.2)]))
    page, done = stream.take(1)
    assert page and not done
    stream.close()
    with pytest.raises(StreamClosed):
        stream.take(1)


def test_concurrent_opens_respect_the_admission_limit():
    db = random_graph_database(num_edges=120, num_nodes=25, seed=9)
    service = QueryService(db, max_cursors=4, idle_evict_s=None)
    results: list[str] = []
    lock = threading.Lock()

    def open_one():
        response = service.handle(
            {"id": 3, "op": "query", "sql": SQL.format(k=50)}
        )
        with lock:
            if response["ok"]:
                results.append(response["cursor"])
            else:
                assert response["error"]["code"] == protocol.CURSOR_LIMIT
                results.append("rejected")

    threads = [threading.Thread(target=open_one) for _ in range(12)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)

    opened = [r for r in results if r != "rejected"]
    assert len(opened) == 4  # exactly the limit, never more
    stats = service.cursors.stats()
    assert stats["open"] == 4
    assert stats["rejected"] >= 8


_PAIR = "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2"
_TRIPLE = _PAIR + " JOIN R3 ON R2.A3 = R3.A3"
#: The ``serve_churn`` benchmark's six template shapes, on a smaller LIMIT.
CHURN_TEMPLATES = (
    _PAIR + " ORDER BY weight LIMIT 40",
    _TRIPLE + " ORDER BY weight LIMIT 40",
    _PAIR + " WHERE R1.A1 = {v} ORDER BY weight LIMIT 40",
    _TRIPLE + " ORDER BY max(weight) LIMIT 40",
    _PAIR + " ORDER BY weight DESC LIMIT 40",
    "SELECT * FROM R2 WHERE R2.A2 = {v} ORDER BY weight LIMIT 40",
)


@pytest.mark.parametrize("sessions", [1, 4])
def test_concurrent_sessions_beside_a_writer_match_serial_recompute(sessions):
    versioned = VersionedDatabase(
        path_database(length=3, size=120, domain=15, seed=7), copy=False
    )
    service = QueryService(versioned)
    snapshots = {versioned.version: versioned.snapshot()}
    pages: list[tuple[str, int, int, list]] = []  # (sql, version, offset, rows)
    failures: list[Exception] = []
    readers_done = threading.Event()

    def call(op: str, **fields) -> dict:
        response = service.handle({"id": 0, "op": op, **fields})
        assert response["ok"], response
        return response

    def writer():
        for i in range(200):
            if readers_done.is_set():
                return
            sql = (
                f"DELETE FROM R1 WHERE A1 = {999 + i}"
                if i % 2
                else "INSERT INTO R1 (A1, A2, weight) "
                f"VALUES ({1000 + i}, {i % 15}, {i / 200})"
            )
            version = call("mutate", sql=sql)["version"]
            # The only writer, so the published snapshot is still its own.
            snapshots[version] = versioned.snapshot()
            assert snapshots[version].version == version

    def reader(lane: int):
        rng = random.Random(lane)
        for _ in range(20):
            sql = rng.choice(CHURN_TEMPLATES).format(v=rng.randrange(15))
            response = call("query", sql=sql, fetch=7)
            version, offset = response["version"], 0
            while True:
                pages.append((sql, version, offset, response["rows"]))
                offset += len(response["rows"])
                if response["done"]:
                    break
                response = call("fetch", cursor=response["cursor"], n=7)

    def guarded(body, *args):
        try:
            body(*args)
        except Exception as exc:  # re-raised on the main thread
            failures.append(exc)

    readers = [
        threading.Thread(target=guarded, args=(reader, lane))
        for lane in range(sessions)
    ]
    write = threading.Thread(target=guarded, args=(writer,))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: more interleavings
    try:
        for thread in [write, *readers]:
            thread.start()
        for thread in readers:
            thread.join(timeout=60)
        readers_done.set()
        write.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in [write, *readers])
    if failures:
        raise failures[0]

    assert len({version for _, version, _, _ in pages}) > 1  # writes interleaved
    expected: dict[tuple[int, str], list] = {}
    for sql, version, offset, rows in pages:
        if (version, sql) not in expected:
            expected[version, sql] = protocol.jsonable_rows(
                list(sql_query(snapshots[version], sql))
            )
        assert rows == expected[version, sql][offset : offset + len(rows)], (
            sql,
            version,
            offset,
        )
