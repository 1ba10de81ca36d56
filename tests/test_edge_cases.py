"""Edge cases across the library: singletons, self-joins with loops,
ties, and extreme parameters."""

import pytest

from repro import rank_enumerate, top_k
from repro.anyk.part import anyk_part
from repro.anyk.ranking import MAX, SUM
from repro.anyk.tdp import TDP
from repro.data.database import Database
from repro.data.relation import Relation
from repro.joins.generic_join import evaluate as generic_join
from repro.joins.heavylight import fourcycle_union_of_trees
from repro.joins.leapfrog import evaluate as leapfrog_join
from repro.query.cq import Atom, ConjunctiveQuery, cycle_query, path_query


def test_self_loop_heavy_graph_fourcycle():
    """Self-loops create degenerate 4-cycles (a,a,a,a); all engines and
    the union-of-trees must agree on them."""
    rel = Relation("E", ("src", "dst"))
    rel.add((1, 1), 0.5)
    rel.add((1, 2), 0.1)
    rel.add((2, 1), 0.2)
    db = Database([rel])
    q = cycle_query(4)
    expected = sorted(round(w, 9) for w in generic_join(db, q).weights)
    got = [round(float(w), 9) for _, w in rank_enumerate(db, q)]
    assert got == expected
    # (1,1,1,1) from four uses of the self-loop must be present.
    rows = [row for row, _ in rank_enumerate(db, q)]
    assert (1, 1, 1, 1) in rows


def test_all_equal_weights_stable_enumeration():
    db = Database(
        [
            Relation("R1", ("A1", "A2"), [(i, 0) for i in range(4)], [0.5] * 4),
            Relation("R2", ("A2", "A3"), [(0, j) for j in range(4)], [0.5] * 4),
        ]
    )
    q = path_query(2)
    for method in ("part:lazy", "rec", "batch"):
        got = list(rank_enumerate(db, q, method=method))
        assert len(got) == 16
        assert all(abs(float(w) - 1.0) < 1e-12 for _, w in got)


def test_negative_weights_supported_in_joins_and_anyk():
    db = Database(
        [
            Relation("R1", ("A1", "A2"), [(0, 1), (2, 1)], [-1.0, 3.0]),
            Relation("R2", ("A2", "A3"), [(1, 5)], [-0.5]),
        ]
    )
    q = path_query(2)
    got = list(rank_enumerate(db, q))
    assert [round(float(w), 9) for _, w in got] == [-1.5, 2.5]
    got_max = list(rank_enumerate(db, q, ranking=MAX))
    assert [round(float(w), 9) for _, w in got_max] == [-0.5, 3.0]


def test_top_k_with_k_exceeding_output():
    db = Database(
        [
            Relation("R1", ("A1", "A2"), [(0, 1)], [0.1]),
            Relation("R2", ("A2", "A3"), [(1, 2)], [0.2]),
        ]
    )
    assert len(top_k(db, path_query(2), 100)) == 1


def test_unary_relation_queries():
    db = Database(
        [
            Relation("U", ("x",), [(1,), (2,), (3,)], [0.3, 0.1, 0.2]),
            Relation("V", ("x",), [(2,), (3,)], [0.0, 1.0]),
        ]
    )
    q = ConjunctiveQuery([Atom("U", ("a",)), Atom("V", ("a",))])
    got = list(rank_enumerate(db, q))
    assert [row for row, _ in got] == [((2),), (3,)] or [
        row for row, _ in got
    ] == [(2,), (3,)]
    assert [round(float(w), 9) for _, w in got] == [0.1, 1.2]


def test_single_atom_query_enumeration():
    db = Database(
        [Relation("R", ("a", "b"), [(1, 2), (3, 4)], [0.9, 0.1])]
    )
    q = ConjunctiveQuery([Atom("R", ("x", "y"))])
    got = list(anyk_part(TDP(db, q), strategy="eager"))
    assert [row for row, _ in got] == [(3, 4), (1, 2)]


def test_long_chain_query():
    relations = []
    for i in range(1, 9):
        relations.append(
            Relation(
                f"R{i}", (f"A{i}", f"A{i + 1}"), [(0, 0), (0, 1), (1, 0)],
                [0.1 * i, 0.2, 0.05],
            )
        )
    db = Database(relations)
    q = path_query(8)
    got = [round(float(w), 9) for _, w in rank_enumerate(db, q)]
    expected = sorted(round(w, 9) for w in generic_join(db, q).weights)
    assert got == expected
    assert len(got) > 50


def test_fourcycle_trees_empty_when_no_edges_join():
    rel = Relation("E", ("src", "dst"))
    rel.add((1, 2), 0.1)  # single edge: no cycles at all
    db = Database([rel])
    trees = fourcycle_union_of_trees(db, cycle_query(4))
    from repro.joins.yannakakis import evaluate as yk

    assert all(len(yk(t.database, t.query)) == 0 for t in trees)


def test_duplicate_rows_different_weights_rank_separately():
    db = Database(
        [
            Relation("R1", ("A1", "A2"), [(0, 1), (0, 1)], [0.1, 0.9]),
            Relation("R2", ("A2", "A3"), [(1, 2)], [0.0]),
        ]
    )
    got = list(rank_enumerate(db, path_query(2)))
    assert [row for row, _ in got] == [(0, 1, 2), (0, 1, 2)]
    assert [round(float(w), 9) for _, w in got] == [0.1, 0.9]


def test_leapfrog_handles_string_and_int_domains_separately():
    db = Database(
        [
            Relation("R1", ("A1", "A2"), [(0, "k"), (1, 7)], [0.1, 0.2]),
            Relation("R2", ("A2", "A3"), [("k", 5), (7, 6)], [0.3, 0.4]),
        ]
    )
    out = leapfrog_join(db, path_query(2))
    assert sorted(out.rows, key=repr) == [(0, "k", 5), (1, 7, 6)]
