"""Parameter binding and the text-keyed plan cache.

The differential core: a ``?`` statement served from one cached
analysis, values bound per request, must produce the byte-identical
ranked stream to the same statement planned fresh with inline literals —
across engines and parallelism budgets.  The cache holds analyses only,
so a routed stream does not depend on what the cache holds.  Plus the
cache-key semantics (what shares an entry, what must not) and the
thread-safety of the hit counter.
"""

from __future__ import annotations

import threading

import pytest

from repro.data.generators import path_database
from repro.server import QueryService
from repro.sql.analyzer import analyze_statement, bind_compiled
from repro.sql.errors import SqlError
from repro.sql.parser import parse
from repro.util.lru import LruCache

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


def drain(service, sql, engine=None, params=None, engines=None):
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
    if engines is not None:
        engines.append(response["engine"])
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


def test_literal_and_placeholder_spellings_stream_alike(db):
    # Two texts, two analyses; one ranked stream.
    service = QueryService(db)
    a = drain(service, LITERAL_SQL.format(v=4, k=8))
    b = drain(service, PARAM_SQL, params=[4, 8])
    assert a == b
    info = service.plan_cache.info()
    assert info["entries"] == 2 and info["hits"] == 0


def test_routed_stream_does_not_depend_on_cache_state(db):
    # The statement was first served at LIMIT 10; a deep LIMIT bound
    # later hits its cached analysis and must stream what a cold plan of
    # the deep LIMIT streams.  Engines that fold weights in different
    # orders differ by an ulp off the 1/64 grid, which reorders near-ties.
    warm = QueryService(db)
    drain(warm, PARAM_SQL, params=[2, 10])
    got = drain(warm, PARAM_SQL, params=[2, 2000])
    assert warm.plan_cache.info()["hits"] == 1
    expected = drain(QueryService(db), LITERAL_SQL.format(v=2, k=2000))
    assert len(expected) == 2000
    assert got == expected
    # A LIMIT past BATCH_FRACTION of the AGM bound routes to batch cold,
    # and a statement first served at LIMIT 10 must route it the same way.
    engines = []
    crossing = QueryService(db)
    drain(crossing, PARAM_SQL, params=[2, 10], engines=engines)
    got = drain(crossing, PARAM_SQL, params=[2, 100000], engines=engines)
    expected = drain(
        QueryService(db), LITERAL_SQL.format(v=2, k=100000), engines=engines
    )
    assert crossing.plan_cache.info()["hits"] == 1
    assert len(expected) == 4406
    assert got == expected
    assert engines == ["part:lazy", "batch", "batch"]


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


def test_engine_override_shares_the_analysis_entry(db):
    # The analysis does not depend on the engine; the routing, which
    # runs per request, does.
    service = QueryService(db)
    sql = LITERAL_SQL.format(v=2, k=10)
    engines = []
    drain(service, sql, engines=engines)
    forced = drain(service, sql, engine="rec", engines=engines)
    assert engines == ["part:lazy", "rec"]
    assert forced == drain(QueryService(db), sql, engine="rec")
    info = service.plan_cache.info()
    assert info["entries"] == 1 and info["hits"] == 1


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
# Binding
# ----------------------------------------------------------------------
def test_placeholders_bind_in_appearance_order(db):
    sql = "SELECT * FROM R1 WHERE R1.A1 > ? AND R1.A2 < ? LIMIT ?"
    template = analyze_statement(db, sql, parse(sql))
    assert [f.value.index for f in template.filters] == [0, 1]
    bound = bind_compiled(template, [2, 9, 7])
    assert [(f.op, f.value) for f in bound.filters] == [(">", 2), ("<", 9)]
    assert bound.k == 7
    # In-process callers get the checks the wire protocol makes.
    for bad in ([2, 9], [True, 9, 7], [2, [9], 7], [2, 9, 0]):
        with pytest.raises(SqlError):
            bind_compiled(template, bad)


def test_bind_compiled_renders_concrete_statement(db):
    template = analyze_statement(db, PARAM_SQL, parse(PARAM_SQL))
    bound = bind_compiled(template, [3, 12])
    assert not bound.is_template
    assert bound.k == 12
    assert "?" not in str(bound.statement)
    assert any(f.value == 3 for f in bound.filters)
    literal = LITERAL_SQL.format(v=5, k=4)
    concrete = analyze_statement(db, literal, parse(literal))
    assert bind_compiled(concrete) is concrete


# ----------------------------------------------------------------------
# Concurrency: the cache's hit total is atomic
# ----------------------------------------------------------------------
def test_plan_cache_hit_total_survives_threaded_lookups(db):
    service = QueryService(db)
    cache = service.plan_cache
    assert isinstance(cache, LruCache)
    drain(service, PARAM_SQL, params=[2, 10])
    entry = cache.get(PARAM_SQL)
    lookups_per_thread = 500
    threads = 8

    def hammer():
        for _ in range(lookups_per_thread):
            assert cache.get(PARAM_SQL) is entry

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert cache.info()["hits"] == lookups_per_thread * threads + 1


@pytest.mark.parametrize("landing", range(4))
def test_recost_never_tears_a_warm_hit(db, landing, monkeypatch):
    """A request that re-costs the same statement on a newer snapshot,
    landing at any step of a warm hit on the old one (after the cache
    lookup, before binding, before routing, after routing), hands the
    warm hit neither its plan nor its snapshot: each request's plan is
    costed on the snapshot that request pinned."""
    import repro.server.service as service_module

    service = QueryService(db)
    sql = LITERAL_SQL.format(v=2, k=10)
    old = service.db
    service.plan(sql, db=old)  # warm the analysis
    # Shrink R1 so the racing request's statistics differ.
    service.mutate("DELETE FROM R1 WHERE A1 > 4")
    new = service.db
    racing = {}

    def race(step):
        if step == landing and "plan" not in racing:
            racing["plan"] = None  # the racing request runs unhooked
            racing["plan"] = service.plan(sql, db=new)[1]

    lookup = service.plan_cache.get
    bind = service_module.bind_compiled
    route = service_module.plan_compiled

    def hooked_lookup(key):
        found = lookup(key)
        race(0)
        return found

    def hooked_bind(*args, **kwargs):
        race(1)
        return bind(*args, **kwargs)

    def hooked_route(*args, **kwargs):
        race(2)
        routed = route(*args, **kwargs)
        race(3)
        return routed

    monkeypatch.setattr(service.plan_cache, "get", hooked_lookup)
    monkeypatch.setattr(service_module, "bind_compiled", hooked_bind)
    monkeypatch.setattr(service_module, "plan_compiled", hooked_route)
    compiled, plan, was_cached = service.plan(sql, db=old)
    assert was_cached
    assert racing["plan"].snapshot_version == new.version
    assert plan is not racing["plan"]
    assert plan.snapshot_version == old.version
    assert plan.stats.sizes == route(old, compiled).stats.sizes
    assert plan.stats.sizes != racing["plan"].stats.sizes
