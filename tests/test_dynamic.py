"""Dynamic data: versioned snapshots, snapshot-isolated cursors, caches.

Three satellite suites in one file:

- **Unit contract** of :class:`repro.dynamic.VersionedDatabase`:
  copy-on-write sharing, monotone versions, atomic failed mutations.
- **Snapshot-isolation property test**: open a server cursor, commit a
  batch of inserts+deletes, and require the drained stream to be
  byte-identical to a serial run on the pre-mutation snapshot — across
  ANYK-PART, ANYK-REC, batch, and the HRJN middleware, serial and
  4-way sharded.
- **Cache staleness regressions**: the plan cache holds analyses only,
  so after a mutation every statement still hits it, and each request
  is routed on the newest snapshot (fresh version, fresh rows, fresh
  routing).
"""

from __future__ import annotations

import pytest

import repro.engine.planner as planner
import repro.sql
from repro.data.database import Database
from repro.data.generators import path_database
from repro.data.relation import Relation
from repro.dynamic import Delete, Insert, MutationError, VersionedDatabase, insert
from repro.server.service import QueryService


def small_db() -> Database:
    return Database(
        [
            Relation("R", ("a", "b"), [(1, 2), (2, 3), (3, 4)], [0.1, 0.2, 0.3]),
            Relation("S", ("b", "c"), [(2, 9), (3, 8)], [0.5, 0.25]),
        ]
    )


# ----------------------------------------------------------------------
# VersionedDatabase unit contract
# ----------------------------------------------------------------------
class TestVersionedDatabase:
    def test_versions_are_monotone_and_stamped(self):
        vdb = VersionedDatabase(small_db())
        assert vdb.version == 1
        assert vdb.snapshot().version == 1
        r1 = vdb.insert("R", [(9, 9)], weights=[1.5])
        assert (r1.kind, r1.rows, r1.version) == ("insert", 1, 2)
        r2 = vdb.delete("S", lambda row: row[0] == 2, description="b = 2")
        assert (r2.kind, r2.rows, r2.version) == ("delete", 1, 3)
        assert vdb.version == 3
        assert vdb.relation_version("R") == 2
        assert vdb.relation_version("S") == 3

    def test_copy_on_write_shares_untouched_relations(self):
        vdb = VersionedDatabase(small_db())
        before = vdb.snapshot()
        vdb.insert("R", [(5, 6)])
        after = vdb.snapshot()
        assert after is not before
        assert after["S"] is before["S"]  # untouched: same object
        assert after["R"] is not before["R"]
        assert len(before["R"]) == 3 and len(after["R"]) == 4

    def test_snapshots_never_change_after_publication(self):
        vdb = VersionedDatabase(small_db())
        pinned = vdb.snapshot()
        rows_before = list(pinned["R"].rows)
        vdb.insert("R", [(7, 7)])
        vdb.delete("R", lambda row: True)
        assert list(pinned["R"].rows) == rows_before
        assert len(vdb.snapshot()["R"]) == 0

    def test_initial_copy_isolates_callers_database(self):
        db = small_db()
        vdb = VersionedDatabase(db)
        db["R"].add((99, 99), 9.0)  # caller keeps editing their object
        assert len(vdb.snapshot()["R"]) == 3

    def test_failed_insert_is_atomic(self):
        vdb = VersionedDatabase(small_db())
        with pytest.raises(MutationError, match="arity"):
            vdb.apply(insert("R", [(1, 1), (2, 2, 2)]))
        assert vdb.version == 1
        assert len(vdb.snapshot()["R"]) == 3

    def test_non_finite_weight_rejected(self):
        vdb = VersionedDatabase(small_db())
        with pytest.raises(MutationError, match="finite"):
            vdb.insert("R", [(1, 1)], weights=[float("inf")])

    def test_unknown_relation(self):
        vdb = VersionedDatabase(small_db())
        with pytest.raises(MutationError, match="Nope"):
            vdb.apply(Delete("Nope"))

    def test_mismatched_rows_weights(self):
        with pytest.raises(MutationError, match="weights"):
            Insert("R", ((1, 2),), (0.1, 0.2))

    def test_failing_delete_predicate_is_clean_and_atomic(self):
        vdb = VersionedDatabase(small_db())
        with pytest.raises(MutationError, match="delete predicate"):
            vdb.delete("R", lambda row: row[99] == 1)
        assert vdb.version == 1

    def test_apply_many_orders_versions(self):
        vdb = VersionedDatabase(small_db())
        results = vdb.apply_many(
            [insert("R", [(8, 8)]), Delete("R", lambda row: row == (8, 8))]
        )
        assert [r.version for r in results] == [2, 3]
        assert len(vdb.snapshot()["R"]) == 3

    def test_info_block(self):
        vdb = VersionedDatabase(small_db())
        vdb.insert("R", [(6, 6), (7, 7)])
        info = vdb.info()
        assert info["version"] == 2
        assert info["mutations"] == 1
        assert info["inserted_rows"] == 2
        assert info["relation_versions"] == {"R": 2, "S": 0}


# ----------------------------------------------------------------------
# Snapshot-isolation property test (the tentpole's acceptance bar)
# ----------------------------------------------------------------------
ISOLATION_SQL = (
    "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 ORDER BY weight LIMIT 80"
)


def _mutation_batch(service: QueryService) -> None:
    """A batch of inserts and deletes that visibly changes the join."""
    values = ", ".join(f"({i}, {i % 7}, 0.0)" for i in range(40, 60))
    for sql in (
        f"INSERT INTO R1 (A1, A2, weight) VALUES {values}",
        "DELETE FROM R2 WHERE A2 < 10",
        "INSERT INTO R2 VALUES (3, 300), (4, 400)",
        "DELETE FROM R1 WHERE A1 >= 55",
    ):
        service.mutate(sql)


def _paged(service: QueryService, engine: str) -> list[tuple[tuple, float]]:
    """Open a cursor, mutate mid-drain, and page the rest out."""
    opened = service.query(ISOLATION_SQL, engine=engine, fetch=13)
    rows = [(tuple(r), w) for r, w in opened["rows"]]
    _mutation_batch(service)
    cursor = opened["cursor"]
    done = opened["done"]
    while not done:
        page = service.fetch(cursor, n=17)
        rows.extend((tuple(r), w) for r, w in page["rows"])
        done = page["done"]
    return rows


@pytest.mark.parametrize("workers", (1, 4))
@pytest.mark.parametrize("engine", ("part:lazy", "rec", "batch"))
def test_cursor_is_snapshot_isolated(engine, workers, monkeypatch):
    # Let the router take the worker budget on this deliberately small
    # instance (the floor exists for performance, not correctness).
    monkeypatch.setattr(planner, "PARALLEL_MIN_TUPLES", 0)
    db = path_database(length=2, size=220, domain=24, seed=31)
    service = QueryService(db, workers=workers)
    pre_mutation = service.db.copy()

    drained = _paged(service, engine)

    # Byte-identical to a serial run over the pre-mutation snapshot.
    reference = repro.sql.query(pre_mutation, ISOLATION_SQL, engine=engine)
    assert drained == reference.fetchall()

    # ... and genuinely different from a fresh post-mutation run (the
    # batch was chosen to change the join): isolation, not idempotence.
    post = [
        (tuple(r), w)
        for r, w in service.query(ISOLATION_SQL, engine=engine, fetch=80)["rows"]
    ]
    assert post != drained
    assert service.versioned.version == 5  # 4 mutations landed


def test_shards_pin_their_snapshot_version():
    """Worker payloads carry the generation the plan was costed on."""
    from repro.parallel.sharding import shard_database
    from repro.query.cq import Atom, ConjunctiveQuery

    vdb = VersionedDatabase(small_db())
    vdb.insert("R", [(4, 5)])
    snapshot = vdb.snapshot()
    query = ConjunctiveQuery(
        [Atom("R", ("a", "b")), Atom("S", ("b", "c"))], name="Pin"
    )
    shards, _ = shard_database(snapshot, query, 3)
    vdb.delete("R")  # a later mutation must not reach the shard payloads
    for shard in shards:
        assert shard.database.version == 2
        for atom in shard.query.atoms:
            base = atom.relation.split("__")[0]
            assert shard.database[atom.relation].version == snapshot[base].version
    assert sum(len(s.database[s.query.atoms[0].relation]) for s in shards) == 4


# ----------------------------------------------------------------------
# Cache staleness: analyses stay warm, routing reads the new snapshot
# ----------------------------------------------------------------------
AFFECTED_SQL = "SELECT * FROM R JOIN S ON R.b = S.b ORDER BY weight LIMIT 5"
UNAFFECTED_SQL = "SELECT * FROM T ORDER BY weight LIMIT 5"


def _three_relation_service() -> QueryService:
    db = small_db()
    db.add(Relation("T", ("x",), [(1,), (2,)], [0.4, 0.6]))
    return QueryService(db)


class TestCacheStaleness:
    def test_mutation_keeps_analyses_and_serves_the_new_rows(self):
        service = _three_relation_service()
        assert not service.query(AFFECTED_SQL, fetch=5)["plan_cached"]
        assert not service.query(UNAFFECTED_SQL, fetch=5)["plan_cached"]

        service.mutate("INSERT INTO S VALUES (2, 77)")

        hits_before = service.plan_cache.info()["hits"]
        misses_before = service.plan_cache.info()["misses"]
        # Both statements hit their analyses; the one reading S streams
        # the inserted row, exactly as a cold plan on the new snapshot.
        affected = service.query(AFFECTED_SQL, fetch=5)
        assert affected["plan_cached"] and affected["version"] == 2
        assert [(tuple(r), w) for r, w in affected["rows"]] == (
            repro.sql.query(service.db, AFFECTED_SQL).fetchall()
        )
        assert any(77 in row for row, _ in affected["rows"])
        assert service.query(UNAFFECTED_SQL, fetch=5)["plan_cached"]
        info = service.plan_cache.info()
        assert info["hits"] == hits_before + 2
        assert info["misses"] == misses_before

    def test_explain_reports_snapshot_version(self):
        service = _three_relation_service()
        assert service.explain(AFFECTED_SQL)["version"] == 1
        service.mutate("DELETE FROM R WHERE a = 1")
        explained = service.explain(AFFECTED_SQL)
        assert explained["version"] == 2
        assert "snapshot: version 2" in explained["explain"]
        # Cached explain still reports the version it was planned on.
        assert service.explain(AFFECTED_SQL)["plan_cached"]

    def test_mutation_recosts_routing_after_large_delta(self):
        # A large delta (emptying a relation) must change the *routing*
        # of a statement whose analysis is cached: proof that every
        # request re-reads stats.
        db = path_database(length=2, size=200, domain=30, seed=5)
        service = QueryService(db)
        sql = "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 ORDER BY weight LIMIT 10"
        first = service.explain(sql)
        assert first["engine"] == "part:lazy"  # small k against the AGM bound
        service.mutate("DELETE FROM R2")
        second = service.explain(sql)
        assert second["plan_cached"]
        assert second["engine"] == "batch"  # empty input: batch finishes now
        assert second["version"] == 2


# ----------------------------------------------------------------------
# Failure injection: mutations must fail clean, never with tracebacks
# ----------------------------------------------------------------------
class TestMutationFailures:
    def _codes(self, service: QueryService, sql: str) -> tuple[str, str]:
        response = service.handle({"id": 1, "op": "mutate", "sql": sql})
        assert not response["ok"]
        return response["error"]["code"], response["error"]["message"]

    @pytest.mark.parametrize(
        "bad_sql",
        [
            "INSERT INTO R VALUES (1, 2, 3)",  # arity (schema order)
            "INSERT INTO R (a) VALUES (1)",  # missing column
            "INSERT INTO R (a, b, weight) VALUES (1, 2, 'x')",  # weight type
            "INSERT INTO R (a, a, b) VALUES (1, 1, 2)",  # duplicate column
            "INSERT INTO R (a, b) VALUES (1, c)",  # non-literal value
            "DELETE FROM Nope WHERE a = 1",  # unknown relation
            "DELETE FROM R WHERE a = b",  # join predicate
            "DELETE FROM R, S",  # trailing garbage
            "UPDATE R SET a = 1",  # unsupported verb
        ],
    )
    def test_malformed_mutations_surface_sql_errors(self, bad_sql):
        service = QueryService(small_db())
        code, message = self._codes(service, bad_sql)
        assert code == "sql_error"
        assert "Traceback" not in message and "internal" not in code
        assert service.versioned.version == 1  # nothing committed

    def test_select_via_mutate_op_is_rejected_cleanly(self):
        service = QueryService(small_db())
        code, message = self._codes(service, "SELECT * FROM R")
        assert code == "sql_error"
        assert "query" in message

    def test_mutation_racing_cursor_eviction_stays_clean(self):
        service = QueryService(small_db(), max_cursors=1, idle_evict_s=0.0)
        opened = service.query(AFFECTED_SQL, fetch=1)
        cursor = opened["cursor"]
        assert cursor is not None
        # The mutation lands while the cursor is open ...
        service.mutate("INSERT INTO R VALUES (7, 7)")
        # ... and a second query evicts it (limit 1, idle age 0).
        service.query(AFFECTED_SQL, fetch=1)
        response = service.handle(
            {"id": 9, "op": "fetch", "cursor": cursor}
        )
        assert not response["ok"]
        assert response["error"]["code"] == "unknown_cursor"

    def test_readonly_server_refuses_mutations(self):
        service = QueryService(small_db(), readonly=True)
        code, message = self._codes(service, "INSERT INTO R VALUES (1, 1)")
        assert code == "sql_error"
        assert "read-only" in message
        assert service.versioned.version == 1
