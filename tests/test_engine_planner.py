"""Engine router: routing decisions, estimates, and EXPLAIN rendering."""

import pytest

from repro import sql as repro_sql
from repro.anyk import rank_enumerate
from repro.anyk.ranking import LEX, SUM
from repro.data.database import Database
from repro.data.generators import path_database, random_graph_database
from repro.data.relation import Relation
from repro.engine import CatalogStats, choose_method, route
from repro.query.cq import (
    Atom,
    ConjunctiveQuery,
    cycle_query,
    path_query,
    triangle_query,
)
from repro.query.hypergraph import is_free_connex


# ----------------------------------------------------------------------
# Catalog statistics
# ----------------------------------------------------------------------
def test_catalog_stats_sizes_and_fanout():
    db = Database(
        [
            Relation("R", ("a", "b"), [(1, 1), (1, 2), (2, 2)], [0.0] * 3),
            Relation("S", ("b", "c"), [(2, 9)], [0.0]),
        ]
    )
    q = ConjunctiveQuery(
        [Atom("R", ("x", "y")), Atom("S", ("y", "z"))], name="RS"
    )
    stats = CatalogStats.gather(db, q, with_fanouts=True)
    assert stats.sizes == [3, 1]
    assert stats.max_size == 3
    r_stats = stats.atoms[0]
    assert r_stats.distinct["x"] == 2  # values {1, 2}
    assert r_stats.max_fanout("x") == pytest.approx(1.5)
    assert db.sizes() == {"R": 3, "S": 1}


# ----------------------------------------------------------------------
# Routing rules
# ----------------------------------------------------------------------
def test_small_k_on_acyclic_routes_to_anyk():
    db = path_database(length=3, size=80, domain=9, seed=1)
    plan = route(db, path_query(3), k=5, allow_middleware=False)
    assert plan.engine == "part:lazy"
    assert plan.is_anyk
    assert plan.estimates.acyclic


def test_no_limit_routes_to_batch():
    db = path_database(length=3, size=80, domain=9, seed=1)
    plan = route(db, path_query(3), k=None)
    assert plan.engine == "batch"
    assert any("time-to-last" in reason for reason in plan.rationale)


def test_huge_k_routes_to_batch():
    db = path_database(length=2, size=40, domain=6, seed=2)
    plan = route(db, path_query(2), k=10**9)
    assert plan.engine == "batch"


def test_deep_k_routes_to_rec():
    db = path_database(length=3, size=200, domain=10, seed=3)
    plan = route(db, path_query(3), k=2000, allow_middleware=False)
    # AGM bound is 200*200*200 >> 2*2000, so batch is not triggered.
    assert plan.engine == "rec"


def test_tiny_k_binary_join_routes_to_middleware():
    db = path_database(length=2, size=150, domain=12, seed=4)
    plan = route(db, path_query(2), k=3)
    assert plan.engine == "rank_join"
    without = route(db, path_query(2), k=3, allow_middleware=False)
    assert without.engine == "part:lazy"


def test_engine_package_imports_standalone():
    # repro.engine is a public entry point; it must not depend on
    # repro.sql having been imported first (import-cycle regression).
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", "import repro.engine; print('ok')"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_lex_on_cyclic_query_rejected_with_diagnostic():
    from repro.sql.errors import SqlError

    db = random_graph_database(num_edges=60, num_nodes=12, seed=14)
    sql_text = (
        "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
        "JOIN E AS e3 ON e2.dst = e3.src AND e3.dst = e1.src "
        "ORDER BY lex(weight) LIMIT 2"
    )
    with pytest.raises(SqlError, match="acyclic"):
        repro_sql.query(db, sql_text)


def test_lex_forced_onto_float_engines_rejected():
    from repro.sql.errors import SqlError

    db = path_database(length=2, size=30, domain=5, seed=15)
    sql_text = (
        "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 "
        "ORDER BY lex(weight) LIMIT 2"
    )
    for engine in ("batch", "rank_join"):
        with pytest.raises(SqlError, match="stage order"):
            repro_sql.query(db, sql_text, engine=engine)
    # The router itself never picks a float-only engine for lex.
    assert repro_sql.query(db, sql_text).plan.is_anyk


def test_duplicate_select_columns_still_count_as_projection():
    db = path_database(length=2, size=20, domain=4, seed=16)
    result = repro_sql.query(
        db,
        "SELECT R1.A1, R1.A1 FROM R1 JOIN R2 ON R1.A2 = R2.A2 "
        "ORDER BY weight LIMIT 3",
    )
    assert result.compiled.is_projection  # A2/A3 are dropped
    for row, _ in result:
        assert len(row) == 2 and row[0] == row[1]


def test_lex_never_routes_to_batch():
    db = path_database(length=3, size=50, domain=8, seed=5)
    for k in (None, 5, 10**9):
        plan = route(db, path_query(3), ranking=LEX, k=k)
        assert plan.is_anyk, (k, plan.engine)


def test_empty_relation_routes_to_batch():
    db = path_database(length=2, size=30, domain=5, seed=6)
    db.replace(Relation("R2", ("A2", "A3")))
    plan = route(db, path_query(2), k=5)
    assert plan.engine == "batch"
    assert plan.estimates.agm_bound == 0.0


def test_fourcycle_and_cyclic_shapes_detected():
    db = random_graph_database(num_edges=200, num_nodes=30, seed=7)
    four = route(db, cycle_query(4), k=5)
    assert four.estimates.fourcycle and four.is_anyk
    tri = route(db, triangle_query(("E", "E", "E")), k=5)
    assert not tri.estimates.acyclic and not tri.estimates.fourcycle
    assert tri.estimates.fhw == pytest.approx(1.5)
    assert tri.is_anyk


def test_forced_engine_is_recorded():
    db = path_database(length=2, size=30, domain=5, seed=8)
    plan = route(db, path_query(2), k=2, engine="part:quick")
    assert plan.engine == "part:quick"
    assert any("forced" in reason for reason in plan.rationale)


def test_choose_method_feeds_rank_enumerate_auto():
    db = path_database(length=3, size=60, domain=8, seed=9)
    q = path_query(3)
    method = choose_method(db, q, k=5)
    assert method == "part:lazy"
    auto = list(rank_enumerate(db, q, method="auto", k=5))
    direct = list(rank_enumerate(db, q, method=method, k=5))
    assert auto == direct
    assert choose_method(db, q, k=None) == "batch"


# ----------------------------------------------------------------------
# Free-connex annotation
# ----------------------------------------------------------------------
def test_is_free_connex():
    q = path_query(3)  # R1(A1,A2) R2(A2,A3) R3(A3,A4)
    assert is_free_connex(q, q.variables)
    assert is_free_connex(q, ("A1", "A2"))  # prefix of the chain
    assert not is_free_connex(q, ("A1", "A4"))  # endpoints only: not connex
    with pytest.raises(Exception):
        is_free_connex(q, ("A1", "ZZ"))


def test_projection_free_connex_annotated_in_plan():
    db = path_database(length=3, size=40, domain=6, seed=10)
    sql_connex = (
        "SELECT R1.A1, R1.A2 FROM R1 JOIN R2 ON R1.A2 = R2.A2 "
        "JOIN R3 ON R2.A3 = R3.A3 ORDER BY weight LIMIT 3"
    )
    sql_not_connex = (
        "SELECT R1.A1, R3.A4 FROM R1 JOIN R2 ON R1.A2 = R2.A2 "
        "JOIN R3 ON R2.A3 = R3.A3 ORDER BY weight LIMIT 3"
    )
    assert repro_sql.query(db, sql_connex).plan.estimates.free_connex is True
    plan = repro_sql.query(db, sql_not_connex).plan
    assert plan.estimates.free_connex is False
    assert any("not free-connex" in r for r in plan.rationale)


# ----------------------------------------------------------------------
# EXPLAIN rendering (the acceptance surface)
# ----------------------------------------------------------------------
def test_explain_shows_anyk_for_small_k_on_acyclic():
    db = path_database(length=3, size=100, domain=10, seed=11)
    text = repro_sql.explain(
        db,
        "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 "
        "JOIN R3 ON R2.A3 = R3.A3 ORDER BY weight LIMIT 5",
    )
    assert "shape:    acyclic" in text
    assert "engine:   part:lazy" in text
    assert "engine:   batch" not in text
    assert "because:" in text
    assert "agm:" in text


def test_explain_shows_batch_without_limit():
    db = path_database(length=3, size=100, domain=10, seed=11)
    text = repro_sql.explain(
        db,
        "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 "
        "JOIN R3 ON R2.A3 = R3.A3 ORDER BY weight",
    )
    assert "engine:   batch" in text


def test_explain_mentions_union_of_trees_for_fourcycle():
    db = random_graph_database(num_edges=150, num_nodes=25, seed=12)
    text = repro_sql.explain(
        db,
        "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
        "JOIN E AS e3 ON e2.dst = e3.src "
        "JOIN E AS e4 ON e3.dst = e4.src AND e4.dst = e1.src "
        "ORDER BY weight LIMIT 10",
    )
    assert "shape:    4-cycle" in text
    assert "union of trees" in text


def test_explain_includes_filters_and_desc_notes():
    db = path_database(length=2, size=40, domain=6, seed=13)
    text = repro_sql.explain(
        db,
        "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 "
        "WHERE R1.A1 >= 2 ORDER BY weight DESC LIMIT 4",
    )
    assert "filters:  R1.A1 >= 2" in text
    assert "DESC" in text
