"""The query service core: cursors, plan cache, deadlines, admission.

Everything here runs the real service code paths in-process (no sockets
— the wire layer has its own suite in ``test_server_wire.py``).  The
heart is the resumable-cursor property: a paused cursor resumed by later
fetches must produce the *identical* ranked continuation as one
uninterrupted enumeration, across engines.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anyk.api import PausableStream
from repro.data.generators import path_database, random_graph_database
from repro.engine.catalog import database_fingerprint
from repro.server import QueryService, normalize_sql
from repro.server.plancache import PlanCache

PATH_SQL = (
    "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 JOIN R3 ON R2.A3 = R3.A3 "
    "ORDER BY weight LIMIT {k}"
)
GRAPH_SQL = (
    "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
    "ORDER BY weight LIMIT {k}"
)


@pytest.fixture(scope="module")
def path_db():
    return path_database(length=3, size=120, domain=18, seed=23)


@pytest.fixture(scope="module")
def graph_db():
    return random_graph_database(num_edges=400, num_nodes=70, seed=23)


def drain_in_chunks(service, sql, chunks, engine=None):
    """Open a cursor and fetch it in the given chunk sizes; returns rows."""
    response = service.handle(
        {"id": 0, "op": "query", "sql": sql, "engine": engine}
    )
    assert response["ok"], response
    rows = list(response["rows"])
    cursor = response["cursor"]
    for chunk in chunks:
        if cursor is None:
            break
        page = service.handle(
            {"id": 0, "op": "fetch", "cursor": cursor, "n": chunk}
        )
        assert page["ok"], page
        rows.extend(page["rows"])
        if page["done"]:
            cursor = None
    # Drain whatever remains so runs with small chunk lists still finish.
    while cursor is not None:
        page = service.handle(
            {"id": 0, "op": "fetch", "cursor": cursor, "n": 50}
        )
        assert page["ok"], page
        rows.extend(page["rows"])
        if page["done"]:
            cursor = None
    return rows


# ----------------------------------------------------------------------
# The resumable-cursor property (the tentpole's acceptance criterion)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", [None, "part:lazy", "part:eager", "rec"])
def test_resume_equals_uninterrupted(path_db, engine):
    """Chunked fetches replay the exact single-run ranked stream."""
    sql = PATH_SQL.format(k=60)
    service = QueryService(path_db)
    single = drain_in_chunks(service, sql, [200], engine=engine)
    for chunks in ([1] * 10 + [7, 13], [5, 5, 5], [59, 1], [60], [61]):
        paged = drain_in_chunks(service, sql, chunks, engine=engine)
        assert paged == single


@settings(max_examples=25, deadline=None)
@given(
    chunks=st.lists(st.integers(min_value=1, max_value=17), max_size=8),
    engine=st.sampled_from([None, "part:lazy", "rec"]),
)
def test_resume_property_random_chunkings(chunks, engine):
    db = path_database(length=3, size=80, domain=14, seed=5)
    sql = PATH_SQL.format(k=40)
    service = QueryService(db)
    single = drain_in_chunks(service, sql, [100], engine=engine)
    assert drain_in_chunks(service, sql, chunks, engine=engine) == single


def test_resume_on_cyclic_query_via_auto(graph_db):
    sql = (
        "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
        "JOIN E AS e3 ON e2.dst = e3.src AND e3.dst = e1.src "
        "ORDER BY weight LIMIT 20"
    )
    service = QueryService(graph_db)
    single = drain_in_chunks(service, sql, [50])
    assert drain_in_chunks(service, sql, [3, 3, 3, 3]) == single


def test_fetch_matches_direct_library_stream(path_db):
    import repro.sql

    sql = PATH_SQL.format(k=30)
    service = QueryService(path_db)
    served = drain_in_chunks(service, sql, [7, 7, 7])
    direct = [
        [list(row), weight] for row, weight in repro.sql.query(path_db, sql)
    ]
    assert served == direct


# ----------------------------------------------------------------------
# Cursor lifecycle: close, auto-close, admission
# ----------------------------------------------------------------------
def test_close_frees_the_session(path_db):
    service = QueryService(path_db)
    response = service.handle(
        {"id": 1, "op": "query", "sql": PATH_SQL.format(k=50)}
    )
    cursor = response["cursor"]
    assert len(service.cursors) == 1
    closed = service.handle({"id": 2, "op": "close", "cursor": cursor})
    assert closed["ok"] and closed["closed"] == cursor
    assert len(service.cursors) == 0
    again = service.handle({"id": 3, "op": "fetch", "cursor": cursor, "n": 5})
    assert not again["ok"]
    assert again["error"]["code"] == "unknown_cursor"


def test_drained_cursor_autocloses(path_db):
    service = QueryService(path_db)
    response = service.handle(
        {"id": 1, "op": "query", "sql": PATH_SQL.format(k=8), "fetch": 100}
    )
    assert response["done"] and response["cursor"] is None
    assert len(service.cursors) == 0
    # Its RAM-model work landed in the server-wide aggregate.
    assert service.counters.total_work() > 0


def test_admission_limit_rejects_cleanly(path_db):
    service = QueryService(path_db, max_cursors=3, idle_evict_s=None)
    sql = PATH_SQL.format(k=50)
    cursors = []
    for i in range(3):
        response = service.handle({"id": i, "op": "query", "sql": sql})
        assert response["ok"]
        cursors.append(response["cursor"])
    rejected = service.handle({"id": 9, "op": "query", "sql": sql})
    assert not rejected["ok"]
    assert rejected["error"]["code"] == "cursor_limit"
    assert "limit" in rejected["error"]["message"]
    # Closing one frees a slot for the next admission.
    service.handle({"id": 10, "op": "close", "cursor": cursors[0]})
    admitted = service.handle({"id": 11, "op": "query", "sql": sql})
    assert admitted["ok"]


def test_idle_eviction_under_admission_pressure(path_db):
    service = QueryService(path_db, max_cursors=2, idle_evict_s=0.0)
    sql = PATH_SQL.format(k=50)
    first = service.handle({"id": 1, "op": "query", "sql": sql, "fetch": 5})
    second = service.handle({"id": 2, "op": "query", "sql": sql})
    assert first["ok"] and second["ok"]
    time.sleep(0.01)  # both cursors are now "idle" beyond the 0s horizon
    third = service.handle({"id": 3, "op": "query", "sql": sql})
    assert third["ok"]
    assert service.cursors.evicted >= 1
    # The evicted session's enumeration work was folded into the
    # server-wide aggregate, same as an explicit close.
    assert service.counters.total_work() > 0


def test_fetch_rejects_nonpositive_page_sizes(path_db):
    service = QueryService(path_db)
    opened = service.handle(
        {"id": 1, "op": "query", "sql": PATH_SQL.format(k=20)}
    )
    for bad_n in (0, -5):
        response = service.handle(
            {"id": 2, "op": "fetch", "cursor": opened["cursor"], "n": bad_n}
        )
        assert not response["ok"]
        assert response["error"]["code"] == "bad_request"
    bad_inline = service.handle(
        {"id": 3, "op": "query", "sql": PATH_SQL.format(k=20), "fetch": -1}
    )
    assert not bad_inline["ok"]
    assert bad_inline["error"]["code"] == "bad_request"


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
def test_plan_cache_hits_across_formatting(path_db):
    service = QueryService(path_db)
    first = service.handle(
        {"id": 1, "op": "query", "sql": PATH_SQL.format(k=10), "fetch": 100}
    )
    assert first["ok"] and not first["plan_cached"]
    shouted = (
        "select  *  from R1 join R2 on R1.A2=R2.A2 "
        "join R3 on R2.A3 = R3.A3 order by weight limit 10"
    )
    second = service.handle(
        {"id": 2, "op": "query", "sql": shouted, "fetch": 100}
    )
    assert second["ok"] and second["plan_cached"]
    assert second["rows"] == first["rows"]
    info = service.plan_cache.info()
    assert info == {
        "entries": 1,
        "hits": 1,
        "misses": 1,
        "maxsize": 128,
        "recosts": 0,
    }


def test_plan_cache_key_separates_engines_not_limits(path_db):
    service = QueryService(path_db)
    service.handle({"id": 1, "op": "explain", "sql": PATH_SQL.format(k=10)})
    # A different LIMIT is a different *binding* of the same template,
    # not a different template: it hits the k=10 entry.
    service.handle({"id": 2, "op": "explain", "sql": PATH_SQL.format(k=9999)})
    forced = service.handle(
        {
            "id": 3,
            "op": "explain",
            "sql": PATH_SQL.format(k=10),
            "engine": "rec",
        }
    )
    assert forced["ok"] and forced["engine"] == "rec"
    assert service.plan_cache.info()["entries"] == 2
    assert service.plan_cache.info()["hits"] == 1


def test_catalog_drift_validates_on_hit(path_db):
    service = QueryService(path_db)
    sql = PATH_SQL.format(k=10)
    service.handle({"id": 1, "op": "explain", "sql": sql})
    before = database_fingerprint(service.db, only={"R1", "R2", "R3"})
    mutated = service.handle(
        {"id": 2, "op": "mutate", "sql": "INSERT INTO R1 VALUES (1, 2)"}
    )
    assert mutated["ok"] and mutated["applied"] == "insert"
    assert database_fingerprint(service.db, only={"R1", "R2", "R3"}) != before
    # One row in 120 is far inside the recost threshold: the template
    # stays hot (a soft hit — execution rebuilds its working instance
    # from the new snapshot, so the insert is still visible to queries).
    response = service.handle({"id": 3, "op": "explain", "sql": sql})
    assert response["ok"] and response["plan_cached"]
    info = service.plan_cache.info()
    assert info["misses"] == 1 and info["recosts"] == 0
    # Emptying a referenced relation is a 100% drift (and an empty flip):
    # the same entry re-costs in place, reported as a non-cached plan
    # and accounted as a miss.
    emptied = service.handle(
        {"id": 4, "op": "mutate", "sql": "DELETE FROM R1"}
    )
    assert emptied["ok"]
    response = service.handle({"id": 5, "op": "explain", "sql": sql})
    assert response["ok"] and not response["plan_cached"]
    info = service.plan_cache.info()
    assert info["recosts"] == 1 and info["misses"] == 2
    assert info["entries"] == 1


def test_equal_cardinality_generation_is_not_served_a_stale_plan(path_db):
    """An INSERT plus a DELETE leaves every cardinality (and so the drift)
    unchanged; the cached working instance must still not be reused."""
    import repro.sql

    service = QueryService(path_db)
    sql = "SELECT * FROM R1 ORDER BY weight LIMIT 3"
    query = {"id": 1, "op": "query", "sql": sql, "fetch": 3}
    (a1, a2), _ = service.handle(query)["rows"][0]
    for mutation in (
        "INSERT INTO R1 (A1, A2, weight) VALUES (500, 1, 0.9)",
        f"DELETE FROM R1 WHERE A1 = {a1} AND A2 = {a2}",
    ):
        assert service.handle({"id": 2, "op": "mutate", "sql": mutation})["ok"]
    again = service.handle(query)
    assert again["version"] == 3 and again["plan_cached"]
    assert again["rows"] == [
        [list(row), weight] for row, weight in repro.sql.query(service.db, sql)
    ]


def test_plan_cache_lru_bound():
    from repro.server.plancache import CachedPlan

    cache = PlanCache(maxsize=2)
    for i in range(4):
        cache.store(("q%d" % i, None, ()), CachedPlan(None, None))
    assert len(cache) == 2
    assert cache.lookup(("q0", None, ())) is None
    assert cache.lookup(("q3", None, ())) is not None


def test_normalize_sql_canonicalizes():
    a, _ = normalize_sql(
        "select * from E as e1 join E as e2 on e1.dst = e2.src limit 3"
    )
    b, _ = normalize_sql(
        "SELECT  *  FROM E AS e1, E AS e2 WHERE e1.dst=e2.src LIMIT 3"
    )
    assert a == b


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
def test_expired_deadline_returns_partial_batch(path_db):
    service = QueryService(path_db)
    opened = service.handle(
        {"id": 1, "op": "query", "sql": PATH_SQL.format(k=200)}
    )
    # A deadline that has effectively already passed: the fetch must come
    # back promptly with fewer than n rows and the exceeded flag set.
    page = service.fetch(opened["cursor"], n=200, deadline=time.monotonic())
    assert len(page["rows"]) < 200
    assert page.get("deadline_exceeded") is True
    assert not page["done"]
    # The cursor is still resumable afterwards — the stream continues.
    rest = drain_in_chunks(service, PATH_SQL.format(k=200), [500])
    resumed = [list(r) for r in page["rows"]]
    follow = service.handle(
        {"id": 2, "op": "fetch", "cursor": opened["cursor"], "n": 500}
    )
    assert follow["ok"]
    assert resumed + follow["rows"] == rest


# ----------------------------------------------------------------------
# Error mapping
# ----------------------------------------------------------------------
def test_error_responses(path_db):
    service = QueryService(path_db)
    bad_sql = service.handle({"id": 1, "op": "query", "sql": "SELEKT nope"})
    assert not bad_sql["ok"] and bad_sql["error"]["code"] == "sql_error"
    bad_op = service.handle({"id": 2, "op": "dance"})
    assert not bad_op["ok"] and bad_op["error"]["code"] == "bad_request"
    missing = service.handle({"id": 3, "op": "fetch"})
    assert not missing["ok"] and missing["error"]["code"] == "bad_request"
    bad_engine = service.handle(
        {"id": 4, "op": "query", "sql": PATH_SQL.format(k=5), "engine": "warp"}
    )
    assert not bad_engine["ok"] and bad_engine["error"]["code"] == "sql_error"
    bad_type = service.handle({"id": 5, "op": "query", "sql": 42})
    assert not bad_type["ok"] and bad_type["error"]["code"] == "bad_request"


@pytest.mark.parametrize("op", ["query", "explain"])
def test_rank_join_is_an_unknown_engine(path_db, op):
    # HRJN is a library operator (repro.topk.rank_join), not an engine
    # the serving stack runs: forcing it is a typed SQL error naming the
    # engines that exist, never an internal fault.
    from repro.anyk.api import METHODS

    service = QueryService(path_db)
    response = service.handle(
        {"id": 1, "op": op, "sql": PATH_SQL.format(k=5), "engine": "rank_join"}
    )
    assert not response["ok"]
    assert response["error"]["code"] == "sql_error", response
    message = response["error"]["message"]
    assert "unknown engine 'rank_join'" in message
    known = message.split("known engines:")[1]
    assert [name.strip() for name in known.split(",")] == list(METHODS)


def test_batch_is_an_unknown_op(path_db):
    service = QueryService(path_db)
    response = service.handle(
        {"id": 1, "op": "batch", "requests": [{"op": "stats"}]}
    )
    assert not response["ok"] and response["error"]["code"] == "bad_request"
    known = response["error"]["message"].split("known ops:")[1]
    assert "batch" not in known and "fetch" in known


def test_stats_endpoint_shape(path_db):
    service = QueryService(path_db)
    service.handle(
        {"id": 1, "op": "query", "sql": PATH_SQL.format(k=5), "fetch": 10}
    )
    # fetch/close report the cumulative count once, as results_emitted.
    opened = service.handle(
        {"id": 3, "op": "query", "sql": PATH_SQL.format(k=5), "fetch": 1}
    )
    page = service.handle(
        {"id": 4, "op": "fetch", "cursor": opened["cursor"], "n": 2}
    )
    closed = service.handle({"id": 5, "op": "close", "cursor": opened["cursor"]})
    for payload in (page, closed):
        assert payload["ok"] and payload["results_emitted"] == 3
        assert "emitted" not in payload
    stats = service.handle({"id": 2, "op": "stats"})
    assert stats["ok"]
    assert stats["queries"] == 2 and stats["rows_served"] == 8
    assert stats["plan_cache"]["misses"] == 1
    assert stats["cursors"]["open"] == 0  # drained cursor auto-closed
    assert stats["counters"]["total_work"] > 0
    assert set(stats["relations"]) == {"R1", "R2", "R3"}


def test_query_response_reports_pinned_snapshot_version(path_db):
    service = QueryService(path_db)
    sql = "SELECT * FROM R1 ORDER BY weight LIMIT 3"
    query = {"id": 1, "op": "query", "sql": sql, "fetch": 3}
    assert service.handle(query)["version"] == 1
    assert service.handle(
        {
            "id": 2,
            "op": "mutate",
            "sql": "INSERT INTO R1 (A1, A2, weight) VALUES (0, 0, 0.5)",
        }
    )["ok"]
    assert service.handle(query)["version"] == 2


def test_stats_op_latency_counts_every_dispatched_op(path_db):
    service = QueryService(path_db)
    service.handle(
        {
            "id": 1,
            "op": "query",
            "sql": "SELECT * FROM R1 ORDER BY weight LIMIT 2",
            "fetch": 2,
        }
    )
    failed = service.handle({"id": 2, "op": "query", "sql": "SELECT broken"})
    assert not failed["ok"]
    latency = service.handle({"id": 3, "op": "stats"})["op_latency_ms"]
    # Two query dispatches — the failed one still cost server time.
    assert latency["query"]["count"] == 2
    assert latency["query"]["mean"] <= latency["query"]["max"]
    # A stats dispatch observes itself only after building its payload,
    # so the *second* stats call sees the first one's timing.
    second = service.handle({"id": 4, "op": "stats"})
    assert second["op_latency_ms"]["stats"]["count"] == 1


# ----------------------------------------------------------------------
# PausableStream (the any-k layer's cursor primitive)
# ----------------------------------------------------------------------
def test_pausable_stream_take_semantics():
    stream = PausableStream(iter([(i,) * 2 for i in range(5)]))
    first, done = stream.take(2)
    assert len(first) == 2 and not done
    assert stream.emitted == 2
    rest, done = stream.take(10)
    assert len(rest) == 3 and done
    assert stream.exhausted
    empty, done = stream.take(1)
    assert empty == [] and done


def test_pausable_stream_close_raises_instead_of_fake_done():
    from repro.anyk.api import StreamClosed

    def forever():
        i = 0
        while True:
            yield (i, float(i))
            i += 1

    stream = PausableStream(forever())
    stream.take(3)
    stream.close()
    assert stream.closed and not stream.exhausted
    # "done" here would silently truncate the ranked stream — a pull on a
    # closed-but-not-exhausted stream must fail loudly instead.
    with pytest.raises(StreamClosed):
        stream.take(5)


def test_pausable_stream_close_after_exhaustion_stays_done():
    stream = PausableStream(iter([((1,), 1.0)]))
    _, done = stream.take(5)
    assert done
    stream.close()
    rows, done = stream.take(5)
    assert rows == [] and done  # exhaustion, not truncation


def test_fetch_racing_concurrent_close_reports_unknown_cursor(path_db):
    service = QueryService(path_db)
    opened = service.handle(
        {"id": 1, "op": "query", "sql": PATH_SQL.format(k=50)}
    )
    # Simulate losing the lookup/close race: grab the cursor object (as a
    # fetch in flight would), then close the session underneath it.
    cursor = service.cursors.get(opened["cursor"])
    service.handle({"id": 2, "op": "close", "cursor": opened["cursor"]})
    from repro.server.cursors import UnknownCursorError

    with pytest.raises(UnknownCursorError):
        service._fetch_into(cursor, 5, None)


def test_prefetch_failure_releases_the_cursor_slot(path_db, monkeypatch):
    service = QueryService(path_db, max_cursors=1, idle_evict_s=None)
    monkeypatch.setattr(
        QueryService,
        "_fetch_into",
        lambda self, cursor, n, deadline: (_ for _ in ()).throw(
            RuntimeError("engine blew up mid-prefetch")
        ),
    )
    failed = service.handle(
        {"id": 1, "op": "query", "sql": PATH_SQL.format(k=10), "fetch": 5}
    )
    assert not failed["ok"] and failed["error"]["code"] == "internal"
    # The slot was released, so the service is not wedged at its limit.
    assert len(service.cursors) == 0
    monkeypatch.undo()
    recovered = service.handle(
        {"id": 2, "op": "query", "sql": PATH_SQL.format(k=10), "fetch": 5}
    )
    assert recovered["ok"] and len(recovered["rows"]) == 5


def test_admission_rejection_happens_before_planning(path_db):
    service = QueryService(path_db, max_cursors=1, idle_evict_s=None)
    held = service.handle(
        {"id": 1, "op": "query", "sql": PATH_SQL.format(k=50)}
    )
    assert held["ok"]
    entries_before = service.plan_cache.info()["entries"]
    novel = PATH_SQL.format(k=51)  # never planned before
    rejected = service.handle({"id": 2, "op": "query", "sql": novel})
    assert not rejected["ok"]
    assert rejected["error"]["code"] == "cursor_limit"
    # The doomed request was refused before parse/analyze/route: the plan
    # cache was not touched (no pollution, no wasted planning).
    assert service.plan_cache.info()["entries"] == entries_before


# ----------------------------------------------------------------------
# DESC is an order-dual ranking, not a copy of the data
# ----------------------------------------------------------------------
def test_warm_desc_hit_hands_the_engine_the_snapshot_relations(monkeypatch):
    """The benchmark's ``pair_desc`` template on its ``serve_churn``
    instance: a warm plan-cache hit enumerates the snapshot's own R1/R2
    objects — DESC ranks by the order dual, it copies no relation."""
    from repro.engine import executor

    service = QueryService(
        path_database(length=3, size=400, domain=50, seed=1),
        idle_evict_s=None,
    )
    sql = (
        "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 "
        "ORDER BY weight DESC LIMIT 100"
    )
    handed = []
    enumerate_ranked = executor.rank_enumerate

    def spy(db, *args, **kwargs):
        handed.append(db)
        return enumerate_ranked(db, *args, **kwargs)

    monkeypatch.setattr(executor, "rank_enumerate", spy)
    cold = service.query(sql, fetch=100)
    warm = service.query(sql, fetch=100)
    assert not cold["plan_cached"] and warm["plan_cached"]
    assert warm["rows"] == cold["rows"]
    weights = [weight for _, weight in warm["rows"]]
    assert weights == sorted(weights, reverse=True)
    snapshot = service.db
    assert handed[-1]["R1"] is snapshot["R1"]
    assert handed[-1]["R2"] is snapshot["R2"]


def test_desc_query_still_correct_after_scoped_negation(graph_db):
    import repro.sql

    sql = (
        "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
        "ORDER BY weight DESC LIMIT 12"
    )
    heaviest = [w for _, w in repro.sql.query(graph_db, sql)]
    assert heaviest == sorted(heaviest, reverse=True)
    ascending = [
        w
        for _, w in repro.sql.query(
            graph_db,
            "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
            "ORDER BY weight LIMIT 100000",
        )
    ]
    assert heaviest == sorted(ascending, reverse=True)[:12]
