"""Programs are freed by reference counting, not by the cycle collector.

A finished, closed or evicted query must release its compiled program —
the T-DP, its buckets, ANYK-REC's memoized streams, the stages — the
moment the last reference goes, and leave no cyclic garbage behind: that
is what ``--max-mem-mb`` eviction believes it freed, and a cycle would
wait for the next full collection (and cost one per query).  Every case
runs with the cycle collector off, then asserts that a weak reference to
each T-DP it built is dead and that ``gc.collect()`` finds nothing.
"""

from __future__ import annotations

import gc
import random
import time
import weakref
from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.anyk.api import PausableStream, rank_enumerate
from repro.anyk.kernels import install_kernels
from repro.anyk.part import anyk_part
from repro.anyk.tdp import TDP
from repro.data.generators import (
    fourcycle_hub_database,
    path_database,
    random_graph_database,
)
from repro.engine.planner import route
from repro.query.cq import cycle_query, path_query
from repro.server import QueryService
from repro.server.cursors import SharedStream

PATH_SQL = (
    "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 JOIN R3 ON R2.A3 = R3.A3 "
    "ORDER BY weight LIMIT 500"
)

_PAIR = "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2"
_TRIPLE = _PAIR + " JOIN R3 ON R2.A3 = R3.A3"
#: The six ``serve_churn`` session templates (``bench/workloads.py``).
CHURN_TEMPLATES = (
    _PAIR + " ORDER BY weight LIMIT 100",
    _TRIPLE + " ORDER BY weight LIMIT 100",
    _PAIR + " WHERE R1.A1 = {v} ORDER BY weight LIMIT 100",
    _TRIPLE + " ORDER BY max(weight) LIMIT 100",
    _PAIR + " ORDER BY weight DESC LIMIT 100",
    "SELECT * FROM R2 WHERE R2.A2 = {v} ORDER BY weight LIMIT 100",
)


@pytest.fixture
def built(monkeypatch) -> list[weakref.ref]:
    """Weak references to every T-DP built while the test runs."""
    refs: list[weakref.ref] = []
    init = TDP.__init__

    def recording_init(self, *args, **kwargs) -> None:
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(TDP, "__init__", recording_init)
    return refs


@contextmanager
def refcount_only() -> Iterator[None]:
    """The cycle collector off: only reference counting may free."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def assert_freed(refs: list[weakref.ref]) -> None:
    assert refs, "the case built no T-DP"
    assert all(ref() is None for ref in refs)
    assert gc.collect() == 0


@pytest.fixture(scope="module")
def path_db():
    return path_database(length=3, size=60, domain=8, seed=11)


# ----------------------------------------------------------------------
# Library streams, drained and dropped
# ----------------------------------------------------------------------
def _drained_path(db, method):
    assert len(list(rank_enumerate(db, path_query(3), method=method, k=300))) == 300


def _drained_fourcycle(db, method):
    # k = 1000 over the heavy/light union of trees (the hub graph has
    # heavy values, so several trees merge): part:lazy is the router's
    # choice, REC runs forced.
    query = cycle_query(4)
    assert route(db, query, k=1000).engine == "part:lazy"
    results = list(rank_enumerate(db, query, method=method, k=1000))
    assert len(results) == 1000


def _drained_ghd(db, method):
    # A triangle is cyclic but no 4-cycle: one GHD rewrite, then T-DP.
    assert list(rank_enumerate(db, cycle_query(3), method=method, k=50))


@pytest.mark.parametrize(
    "case, method",
    [
        ("path", "part:lazy"),
        ("path", "rec"),
        ("fourcycle", "part:lazy"),
        ("fourcycle", "rec"),
        ("ghd", "part:lazy"),
        ("ghd", "rec"),
    ],
)
def test_drained_stream_frees_its_program(built, path_db, case, method):
    drain, make_db = {
        "path": (_drained_path, lambda: path_db),
        "fourcycle": (_drained_fourcycle, lambda: fourcycle_hub_database(400, seed=2)),
        "ghd": (_drained_ghd, lambda: random_graph_database(200, 25, seed=4)),
    }[case]
    db = make_db()
    drain(db, method)  # warm first-use imports and kernel templates
    del built[:]
    with refcount_only():
        drain(db, method)
        assert_freed(built)


# ----------------------------------------------------------------------
# Streams closed with results pending
# ----------------------------------------------------------------------
def test_closed_part_stream_frees_its_tdp_without_gc(path_db):
    """The compiled row is bound over the row lists, not over the T-DP:
    no ``tdp -> closure -> tdp`` cycle keeps a closed cursor's program
    (what ``--max-mem-mb`` eviction believes it freed) alive until the
    next full collection."""
    with refcount_only():
        tdp = TDP(path_db, path_query(3))
        install_kernels(tdp, engine="part:lazy")
        stream = anyk_part(tdp, strategy="lazy")
        assert len([next(stream) for _ in range(50)]) == 50
        stream.close()
        ref = weakref.ref(tdp)
        del tdp, stream
        assert_freed([ref])


@pytest.mark.parametrize("method", ["part:lazy", "rec"])
def test_closed_pausable_stream_frees_its_tdp_without_gc(built, path_db, method):
    """The same through the serving path: ``rank_enumerate`` (kernels on)
    under a ``PausableStream`` that is closed with results pending."""
    with refcount_only():
        stream = PausableStream(rank_enumerate(path_db, path_query(3), method=method))
        results, done = stream.take(50)
        assert len(results) == 50 and not done
        (ref,) = built
        assert "solution_row" in vars(ref())  # the compiled path is under test
        stream.close()
        del stream
        assert_freed(built)


# ----------------------------------------------------------------------
# The server: an evicted cursor, and whole sessions
# ----------------------------------------------------------------------
def test_evicted_rec_cursor_frees_its_program(built, path_db):
    """``--max-mem-mb`` admission evicts an idle REC cursor: its program
    is gone the moment the eviction returns, not at the next collection."""
    service = QueryService(path_db, max_mem_mb=0.001, mem_evict_idle_s=0.01)
    try:
        with refcount_only():
            first = service.handle(
                {"id": 1, "op": "query", "sql": PATH_SQL, "engine": "rec", "fetch": 5}
            )
            assert first["ok"] and first["engine"] == "rec"
            evicted = list(built)
            time.sleep(0.05)  # age the cursor past the eviction grace
            second = service.handle(
                {"id": 2, "op": "query", "sql": PATH_SQL, "engine": "rec", "fetch": 5}
            )
            assert second["ok"]
            assert service.memory_stats()["pressure_evictions"] == 1
            assert_freed(evicted)
    finally:
        service.shutdown()


def _churn_sessions(service: QueryService, sessions: int, seed: int) -> None:
    """``serve_churn``'s shape in process: template sessions paged to the
    end through ``handle``, an INSERT or DELETE before every fifth."""
    rng = random.Random(seed)
    inserted = deleted = 0
    for index in range(sessions):
        if index % 5 == 0:
            if inserted - deleted >= 3:
                sql = f"DELETE FROM R1 WHERE A1 = {1000 + deleted}"
                deleted += 1
            else:
                sql = (
                    f"INSERT INTO R1 (A1, A2, weight) VALUES "
                    f"({1000 + inserted}, {rng.randrange(15)}, {rng.random():.6f})"
                )
                inserted += 1
            assert service.handle({"id": 0, "op": "mutate", "sql": sql})["ok"]
        sql = rng.choice(CHURN_TEMPLATES).format(v=rng.randrange(15))
        response = service.handle({"id": 0, "op": "query", "sql": sql, "fetch": 10})
        while response["ok"] and not response["done"]:
            response = service.handle(
                {"id": 0, "op": "fetch", "cursor": response["cursor"], "n": 25}
            )
        assert response["ok"], response


def test_wire_sessions_leave_no_cyclic_garbage(built):
    """Fifty sessions on a fresh service — cold and warm plans, filtered
    working instances, copy-on-write snapshots, per-cursor delay and
    space profiles — free everything they built by reference counting."""
    db = path_database(length=3, size=120, domain=15, seed=1)
    warm = QueryService(db)
    _churn_sessions(warm, 50, seed=1)
    warm.shutdown()
    del warm, built[:]
    service = QueryService(db)
    try:
        with refcount_only():
            _churn_sessions(service, 50, seed=1)
            assert_freed(built)
    finally:
        service.shutdown()


@pytest.fixture
def streams(monkeypatch) -> list[weakref.ref]:
    """Weak references to every shared stream opened while the test runs."""
    refs: list[weakref.ref] = []
    init = SharedStream.__init__

    def recording_init(self, *args, **kwargs) -> None:
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(SharedStream, "__init__", recording_init)
    return refs


def _drained(service: QueryService, sql: str) -> None:
    response = service.handle({"id": 0, "op": "query", "sql": sql, "fetch": 10})
    while response["ok"] and not response["done"]:
        response = service.handle(
            {"id": 0, "op": "fetch", "cursor": response["cursor"], "n": 25}
        )
    assert response["ok"], response


@pytest.mark.parametrize("dropped_by", ["lru", "version"])
def test_a_dropped_completed_result_is_freed_without_gc(
    built, streams, dropped_by
):
    """A completed result kept joinable is released the moment the LRU
    bound or a newer snapshot version drops it: its source ended with its
    program, and what stays is acyclic."""
    db = path_database(length=3, size=120, domain=15, seed=1)
    service = QueryService(db, plan_cache_size=1)
    try:
        with refcount_only():
            _drained(service, CHURN_TEMPLATES[0])
            assert service.stats()["cursors"]["retained"]["results"] == 1
            assert_freed(built)  # kept: the memo, not the program
            (kept,) = streams
            assert kept() is not None
            if dropped_by == "lru":
                _drained(service, CHURN_TEMPLATES[1])
            else:
                assert service.handle(
                    {
                        "id": 0,
                        "op": "mutate",
                        "sql": "INSERT INTO R1 (A1, A2, weight) "
                        "VALUES (1000, 3, 0.5)",
                    }
                )["ok"]
                _drained(service, CHURN_TEMPLATES[0])
            assert service.stats()["cursors"]["retained"]["results"] == 1
            assert kept() is None
            assert_freed(built)
    finally:
        service.shutdown()
