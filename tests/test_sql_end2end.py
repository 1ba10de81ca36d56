"""End-to-end: SQL-routed execution agrees with direct rank_enumerate.

The acceptance property of the SQL front-end: for the standard query
shapes (path, star, 4-cycle, triangle), ``repro.sql.query`` returns
exactly the ``(row, weight)`` sequence of the corresponding direct
:func:`repro.anyk.rank_enumerate` call, whatever engine the router picks —
the SQL layer adds semantics (filters, projection, DESC), never changes
ranked-enumeration results.
"""

import pytest

from repro import sql as repro_sql
from repro.anyk import MAX, PRODUCT, rank_enumerate
from repro.anyk.ranking import SUM
from repro.data.database import Database
from repro.data.generators import (
    path_database,
    random_graph_database,
    star_database,
)
from repro.data.relation import Relation
from repro.query.cq import cycle_query, path_query, star_query, triangle_query
from repro.sql.errors import SqlError

PATH3_SQL = (
    "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 JOIN R3 ON R2.A3 = R3.A3 "
    "ORDER BY {ranking} LIMIT {k}"
)
STAR3_SQL = (
    "SELECT * FROM R1, R2, R3 "
    "WHERE R1.A0 = R2.A0 AND R2.A0 = R3.A0 ORDER BY {ranking} LIMIT {k}"
)
CYCLE4_SQL = (
    "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
    "JOIN E AS e3 ON e2.dst = e3.src "
    "JOIN E AS e4 ON e3.dst = e4.src AND e4.dst = e1.src "
    "ORDER BY {ranking} LIMIT {k}"
)
TRIANGLE_SQL = (
    "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
    "JOIN E AS e3 ON e2.dst = e3.src AND e3.dst = e1.src "
    "ORDER BY {ranking} LIMIT {k}"
)


def _sql_matches_direct(db, sql_text, query, ranking, k):
    """Run SQL and the direct pipeline with the routed engine; must agree."""
    result = repro_sql.query(db, sql_text)
    got = list(result)
    engine = result.plan.engine
    expected = list(
        rank_enumerate(db, query, ranking=ranking, method=engine, k=k)
    )
    assert got == expected
    return result.plan


@pytest.mark.parametrize("k", [1, 5, 40])
def test_path_query_agrees(k):
    db = path_database(length=3, size=70, domain=9, seed=11)
    plan = _sql_matches_direct(
        db, PATH3_SQL.format(ranking="weight", k=k), path_query(3), SUM, k
    )
    assert plan.estimates.acyclic


@pytest.mark.parametrize("k", [1, 7, 30])
def test_star_query_agrees(k):
    db = star_database(arms=3, size=60, domain=7, seed=5)
    _sql_matches_direct(
        db, STAR3_SQL.format(ranking="sum(weight)", k=k), star_query(3), SUM, k
    )


@pytest.mark.parametrize("k", [1, 6, 25])
def test_fourcycle_query_agrees(k):
    db = random_graph_database(num_edges=250, num_nodes=35, seed=2)
    plan = _sql_matches_direct(
        db, CYCLE4_SQL.format(ranking="weight", k=k), cycle_query(4), SUM, k
    )
    assert plan.estimates.fourcycle


def test_triangle_query_agrees():
    db = random_graph_database(num_edges=220, num_nodes=30, seed=9)
    plan = _sql_matches_direct(
        db,
        TRIANGLE_SQL.format(ranking="weight", k=8),
        triangle_query(("E", "E", "E")),
        SUM,
        8,
    )
    assert not plan.estimates.acyclic and not plan.estimates.fourcycle


@pytest.mark.parametrize(
    "ranking_sql,ranking",
    [("max(weight)", MAX), ("product(weight)", PRODUCT)],
)
def test_alternative_rankings_agree(ranking_sql, ranking):
    db = path_database(
        length=3, size=50, domain=8, seed=3, weight_range=(0.1, 1.0)
    )
    _sql_matches_direct(
        db,
        PATH3_SQL.format(ranking=ranking_sql, k=10),
        path_query(3),
        ranking,
        10,
    )


def test_lex_ranking_routes_to_anyk_and_runs():
    db = path_database(length=2, size=40, domain=6, seed=4)
    result = repro_sql.query(
        db,
        "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 "
        "ORDER BY lex(weight) LIMIT 5",
    )
    rows = list(result)
    assert result.plan.is_anyk  # batch cannot carry LEX vectors
    assert all(isinstance(w, tuple) for _, w in rows)


# ----------------------------------------------------------------------
# SQL-only semantics: filters, projection, DESC, no LIMIT
# ----------------------------------------------------------------------
def _movie_db() -> Database:
    follows = Relation(
        "Follows",
        ("fan", "critic"),
        [("amy", "cam"), ("bob", "cam"), ("amy", "dee"), ("eve", "dee")],
        [0.1, 0.2, 0.3, 0.4],
    )
    reviews = Relation(
        "Reviews",
        ("critic", "movie", "stars"),
        [
            ("cam", "heat", 5),
            ("cam", "solaris", 3),
            ("dee", "heat", 4),
            ("dee", "brazil", 2),
        ],
        [0.5, 0.6, 0.7, 0.8],
    )
    return Database([follows, reviews])


def test_constant_filters_prefilter_relations():
    db = _movie_db()
    result = repro_sql.query(
        db,
        "SELECT * FROM Follows AS f JOIN Reviews AS r ON f.critic = r.critic "
        "WHERE r.stars >= 4 AND f.fan <> 'eve' ORDER BY weight",
    )
    rows = list(result)
    assert all(row[3] == "heat" or row[2] != "brazil" for row, _ in rows)
    expected_pairs = {
        ("amy", "cam", "heat", 5),
        ("bob", "cam", "heat", 5),
        ("amy", "dee", "heat", 4),
    }
    assert {row for row, _ in rows} == expected_pairs
    weights = [w for _, w in rows]
    assert weights == sorted(weights)


def test_projection_keeps_ranked_order_and_duplicates():
    db = _movie_db()
    result = repro_sql.query(
        db,
        "SELECT r.movie FROM Follows AS f JOIN Reviews AS r "
        "ON f.critic = r.critic ORDER BY weight",
    )
    assert result.columns == ("r.movie",)
    rows = list(result)
    full = list(
        repro_sql.query(
            db,
            "SELECT * FROM Follows AS f JOIN Reviews AS r "
            "ON f.critic = r.critic ORDER BY weight",
        )
    )
    # Projection maps the same ranked stream; duplicates are retained.
    assert [w for _, w in rows] == [w for _, w in full]
    # Full rows are (f.fan, f.critic, r.movie, r.stars): r.critic merges
    # into the join variable, so movie sits at position 2.
    assert [row[0] for row, _ in rows] == [row[2] for row, _ in full]
    assert len(rows) > len({row for row, _ in rows})


@pytest.mark.parametrize("aggregate", ["sum", "max", "product", "lex"])
def test_desc_is_exact_reverse_on_distinct_weights(aggregate):
    # The order dual negates the lift and the executor negates back:
    # both are exact, so the weights are the ascending ones bit for bit.
    db = path_database(length=2, size=30, domain=5, seed=8)
    sql_text = (
        "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 "
        f"ORDER BY {aggregate}(weight) {{}}"
    )
    ascending = list(repro_sql.query(db, sql_text.format("ASC")))
    descending = list(repro_sql.query(db, sql_text.format("DESC")))
    assert [w for _, w in descending] == [w for _, w in reversed(ascending)]
    assert {r for r, _ in descending} == {r for r, _ in ascending}


@pytest.mark.parametrize("aggregate", ["max", "product", "lex"])
def test_desc_is_served_for_every_aggregate(aggregate):
    result = repro_sql.query(
        _movie_db(), f"SELECT * FROM Follows ORDER BY {aggregate}(weight) DESC"
    )
    assert [row for row, _ in result] == [
        ("eve", "dee"),
        ("amy", "dee"),
        ("bob", "cam"),
        ("amy", "cam"),
    ]


def test_no_limit_streams_everything():
    db = star_database(arms=2, size=25, domain=5, seed=12)
    rows = list(
        repro_sql.query(
            db,
            "SELECT * FROM R1 JOIN R2 ON R1.A0 = R2.A0 ORDER BY weight",
        )
    )
    expected = list(rank_enumerate(db, star_query(2), method="batch"))
    assert rows == expected


def test_cross_join_is_supported():
    db = Database(
        [
            Relation("A", ("x",), [(1,), (2,)], [0.1, 0.2]),
            Relation("B", ("y",), [(7,), (8,)], [0.3, 0.4]),
        ]
    )
    rows = list(repro_sql.query(db, "SELECT * FROM A CROSS JOIN B ORDER BY weight"))
    assert {r for r, _ in rows} == {(1, 7), (1, 8), (2, 7), (2, 8)}
    weights = [w for _, w in rows]
    assert weights == sorted(weights)


# ----------------------------------------------------------------------
# Semantic diagnostics against the catalog
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "sql_text,needle",
    [
        ("SELECT * FROM Nope", "unknown relation"),
        ("SELECT * FROM Follows, Follows", "duplicate table name"),
        ("SELECT * FROM Follows WHERE Follows.zzz = 1", "no column"),
        ("SELECT * FROM Follows WHERE Other.fan = 1", "unknown table"),
        (
            "SELECT * FROM Follows AS f, Reviews AS r WHERE critic = 'cam'",
            "ambiguous",
        ),
        ("SELECT * FROM Follows WHERE missing = 1", "no FROM table"),
        (
            "SELECT * FROM Follows AS f, Reviews AS r WHERE f.fan < r.movie",
            "theta-joins",
        ),
        ("SELECT * FROM Follows WHERE 1 = 2", "two literals"),
    ],
)
def test_semantic_errors_are_positioned(sql_text, needle):
    db = _movie_db()
    with pytest.raises(SqlError) as excinfo:
        repro_sql.query(db, sql_text)
    assert needle in str(excinfo.value)
    assert excinfo.value.pos is not None


def test_result_metadata():
    db = _movie_db()
    result = repro_sql.query(
        db,
        "SELECT * FROM Follows AS f JOIN Reviews AS r ON f.critic = r.critic "
        "ORDER BY weight LIMIT 2",
    )
    assert result.columns == (
        "f.fan",
        "f.critic",
        "r.movie",
        "r.stars",
    )
    assert result.plan.engine in ("part:lazy", "batch", "rec")
    assert len(result.fetchall()) == 2
