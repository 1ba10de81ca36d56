"""Parameter binding and the template-keyed plan cache.

The differential core: a statement served through a *bound template*
(one cached entry, values substituted per request) must produce the
byte-identical ranked stream to the same statement planned fresh with
inline literals — across engines and parallelism budgets.  Plus the
cache-key semantics (what shares an entry, what must not) and the
thread-safety of the per-entry hit counter.
"""

from __future__ import annotations

import threading

import pytest

from repro.data.generators import path_database
from repro.server import QueryService
from repro.server.plancache import (
    CachedPlan,
    PlanCache,
    bind_compiled,
    fingerprint_drift,
    normalize_sql,
    parameterize_sql,
)
from repro.sql.errors import SqlError

PARAM_SQL = (
    "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 JOIN R3 ON R2.A3 = R3.A3 "
    "WHERE R1.A1 > ? ORDER BY weight LIMIT ?"
)
LITERAL_SQL = (
    "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 JOIN R3 ON R2.A3 = R3.A3 "
    "WHERE R1.A1 > {v} ORDER BY weight LIMIT {k}"
)


@pytest.fixture(scope="module")
def db():
    return path_database(length=3, size=120, domain=18, seed=23)


def drain(service, sql, engine=None, params=None):
    response = service.handle(
        {
            "id": 1,
            "op": "query",
            "sql": sql,
            "engine": engine,
            "params": params,
            "fetch": 25,
        }
    )
    assert response["ok"], response
    rows = list(response["rows"])
    cursor = response["cursor"]
    while cursor is not None and not response["done"]:
        response = service.handle(
            {"id": 2, "op": "fetch", "cursor": cursor, "n": 25}
        )
        assert response["ok"], response
        rows.extend(response["rows"])
        if response["done"]:
            break
    return rows


# ----------------------------------------------------------------------
# The differential: bound templates == fresh literal planning
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["part:lazy", "rec", "batch"])
@pytest.mark.parametrize("workers", [1, 4])
def test_bound_template_matches_fresh_literals(db, engine, workers):
    fresh = QueryService(db, workers=workers)
    cached = QueryService(db, workers=workers)
    for v, k in [(2, 10), (7, 5), (2, 25), (11, 10)]:
        expected = drain(
            fresh, LITERAL_SQL.format(v=v, k=k), engine=engine
        )
        got = drain(cached, PARAM_SQL, engine=engine, params=[v, k])
        assert got == expected, f"divergence at v={v} k={k}"
    # Every instantiation after the first hit the one template entry.
    info = cached.plan_cache.info()
    assert info["entries"] == 1
    assert info["misses"] == 1 and info["hits"] == 3


def test_literal_and_placeholder_spellings_share_one_entry(db):
    service = QueryService(db)
    a = drain(service, LITERAL_SQL.format(v=4, k=8))
    b = drain(service, PARAM_SQL, params=[4, 8])
    assert a == b
    info = service.plan_cache.info()
    assert info["entries"] == 1 and info["hits"] == 1


def test_routed_stream_does_not_depend_on_cache_state(db):
    # The warm template was routed at LIMIT 10; a deep LIMIT bound later
    # reuses that routing, so it must stream what a cold plan of the
    # deep LIMIT streams.  Engines that fold weights in different orders
    # differ by an ulp off the 1/64 grid, which reorders near-ties.
    warm = QueryService(db)
    drain(warm, PARAM_SQL, params=[2, 10])
    got = drain(warm, PARAM_SQL, params=[2, 2000])
    assert warm.plan_cache.info()["hits"] == 1
    expected = drain(QueryService(db), LITERAL_SQL.format(v=2, k=2000))
    assert len(expected) == 2000
    assert got == expected


# ----------------------------------------------------------------------
# Cache-key semantics
# ----------------------------------------------------------------------
def test_distinct_shapes_never_collide(db):
    # Same relations, same constants — but the filtered column differs,
    # so the templates (and the answers) must stay separate.
    service = QueryService(db)
    on_a1 = drain(
        service,
        "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 "
        "WHERE R1.A1 > 3 ORDER BY weight LIMIT 10",
    )
    on_a2 = drain(
        service,
        "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 "
        "WHERE R2.A2 > 3 ORDER BY weight LIMIT 10",
    )
    info = service.plan_cache.info()
    assert info["entries"] == 2 and info["hits"] == 0
    assert on_a1 != on_a2


def test_operator_and_value_type_stay_out_of_the_template():
    # The comparison operator is template structure (shapes with > and
    # >= must not share); the value is not.
    gt, _ = normalize_sql("SELECT * FROM E WHERE E.src > 3 LIMIT 5")
    ge, _ = normalize_sql("SELECT * FROM E WHERE E.src >= 3 LIMIT 5")
    assert gt != ge
    five, _ = normalize_sql("SELECT * FROM E WHERE E.src > 5 LIMIT 5")
    assert gt == five


def test_engine_and_workers_separate_entries(db):
    service = QueryService(db)
    sql = LITERAL_SQL.format(v=2, k=10)
    drain(service, sql)
    drain(service, sql, engine="rec")
    assert service.plan_cache.info()["entries"] == 2
    key_w1 = PlanCache.key("T", None, 1)
    key_w4 = PlanCache.key("T", None, 4)
    assert key_w1 != key_w4


# ----------------------------------------------------------------------
# Binding errors
# ----------------------------------------------------------------------
def test_param_arity_mismatch_is_a_clean_sql_error(db):
    service = QueryService(db)
    response = service.handle(
        {"id": 1, "op": "query", "sql": PARAM_SQL, "params": [1]}
    )
    assert not response["ok"]
    assert response["error"]["code"] == "sql_error"
    assert "2 bind parameter" in response["error"]["message"]


def test_limit_param_must_be_positive_int(db):
    service = QueryService(db)
    for bad in [0, -3, 2.5]:
        response = service.handle(
            {"id": 1, "op": "query", "sql": PARAM_SQL, "params": [1, bad]}
        )
        assert not response["ok"], bad
        assert response["error"]["code"] == "sql_error"


def test_params_vector_rejects_non_scalars(db):
    service = QueryService(db)
    for bad in [[True, 5], [[1], 5], [None, 5]]:
        response = service.handle(
            {"id": 1, "op": "query", "sql": PARAM_SQL, "params": bad}
        )
        assert not response["ok"], bad
        assert response["error"]["code"] in ("bad_request", "sql_error")


def test_mutations_refuse_placeholders(db):
    service = QueryService(db)
    for sql in [
        "INSERT INTO R1 VALUES (?, 2)",
        "DELETE FROM R1 WHERE A1 = ?",
    ]:
        response = service.handle({"id": 1, "op": "mutate", "sql": sql})
        assert not response["ok"], sql
        assert response["error"]["code"] == "sql_error"


def test_unbound_template_cannot_execute():
    from repro.data.generators import path_database
    from repro.engine.planner import plan_compiled
    from repro.sql.analyzer import analyze_statement
    from repro.sql.parser import parse

    db = path_database(length=2, size=30, domain=10, seed=3)
    statement = parse("SELECT * FROM R1 WHERE R1.A1 > ? LIMIT 3")
    compiled = analyze_statement(db, "q", statement)
    assert compiled.is_template
    with pytest.raises(SqlError, match="unbound parameters"):
        plan_compiled(db, compiled)


# ----------------------------------------------------------------------
# parameterize / bind round trip
# ----------------------------------------------------------------------
def test_parameterize_orders_slots_by_appearance():
    parameterized = parameterize_sql(
        "SELECT * FROM E WHERE E.src > 2 AND E.dst < ? LIMIT 7"
    )
    assert parameterized.slots == (("lit", 2), ("arg", 0), ("lit", 7))
    assert parameterized.placeholders == 1
    values = parameterized.resolve([9])
    assert values == (2, 9, 7)


def test_bind_compiled_renders_concrete_statement(db):
    parameterized = parameterize_sql(PARAM_SQL)
    from repro.sql.analyzer import analyze_statement

    template = analyze_statement(db, PARAM_SQL, parameterized.statement)
    bound = bind_compiled(template, parameterized.resolve([3, 12]), PARAM_SQL)
    assert not bound.is_template
    assert bound.k == 12
    assert "?" not in str(bound.statement)
    assert any(f.value == 3 for f in bound.filters)


def test_fingerprint_drift_thresholds():
    a = (("R", ("x",), 100, 1),)
    assert fingerprint_drift(a, a) == 0.0
    assert fingerprint_drift(a, (("R", ("x",), 110, 2),)) == pytest.approx(0.1)
    # Empty flip and shape changes always recost.
    assert fingerprint_drift(a, (("R", ("x",), 0, 2),)) == float("inf")
    assert fingerprint_drift(a, (("S", ("x",), 100, 1),)) == float("inf")
    assert fingerprint_drift(a, ()) == float("inf")


# ----------------------------------------------------------------------
# Concurrency: the cache's hit total is atomic
# ----------------------------------------------------------------------
def test_plan_cache_hit_total_survives_threaded_lookups():
    cache = PlanCache(maxsize=8)
    key = PlanCache.key("T", None, 1)
    entry = CachedPlan(None, None)
    cache.store(key, entry)
    lookups_per_thread = 500
    threads = 8

    def hammer():
        for _ in range(lookups_per_thread):
            assert cache.lookup(key) is entry

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert cache.info()["hits"] == lookups_per_thread * threads


@pytest.mark.parametrize("landing", range(4))
def test_recost_never_tears_a_warm_hit(db, landing):
    """A concurrent recost landing before any of the warm path's reads
    of a cache entry must not hand the request a plan costed on another
    snapshot: a plan carrying a materialized working instance was
    costed on the request's own generation."""
    service = QueryService(db)
    sql = LITERAL_SQL.format(v=2, k=10)
    old = service.db
    warmed, _ = service.plan(sql, db=old)
    assert warmed.plan.working_db is not None
    # Shrink R1 far past the recost drift so the racing request re-routes.
    service.mutate("DELETE FROM R1 WHERE A1 > 4")
    new = service.db
    entry = service.plan_cache.lookup(
        PlanCache.key(parameterize_sql(sql).template, None, 1)
    )
    racing = {"reads": 0}

    class RacedEntry(type(entry)):
        # Another thread recosts the entry just before this request's
        # ``landing``-th read of the entry's costed state.
        def __getattribute__(self, name):
            costed_state = ("costed", "plan", "fingerprint", "costed_values")
            if name in costed_state and "plan" not in racing:
                if racing["reads"] == landing:
                    racing["plan"] = None  # the racing request reads freely
                    racing["plan"] = service.plan(sql, db=new)[0].plan
                racing["reads"] += 1
            return object.__getattribute__(self, name)

    entry.__class__ = RacedEntry
    bound, _ = service.plan(sql, db=old)
    if racing.get("plan") is not None:
        assert racing["plan"].snapshot_version == new.version
        assert bound.plan is not racing["plan"]
    assert bound.plan.working_db is None or (
        bound.plan.snapshot_version == old.version
    )
