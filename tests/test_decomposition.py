"""Tests for tree decompositions and the cyclic → acyclic rewrite."""

import operator

import pytest
from hypothesis import given, settings

from repro.data.generators import random_graph_database
from repro.joins.base import multiset, reorder_to_query_schema
from repro.joins.generic_join import evaluate as generic_join
from repro.joins.yannakakis import evaluate as yannakakis_join
import repro.sql as repro_sql
from repro.query import decomposition
from repro.query.cq import QueryError, cycle_query, path_query, triangle_query
from repro.query.decomposition import (
    best_decomposition,
    decompose_to_acyclic,
    decomposition_from_order,
    min_fill_decomposition,
    min_fill_order,
)
from repro.query.hypergraph import is_acyclic
from repro.util.lru import LruCache

from conftest import graph_db_strategy


def test_min_fill_order_is_permutation():
    q = cycle_query(5)
    order = min_fill_order(q)
    assert sorted(order) == sorted(q.variables)


@pytest.mark.parametrize(
    "query", [triangle_query(), cycle_query(4), cycle_query(5), path_query(4)]
)
def test_min_fill_decomposition_is_valid(query):
    td = min_fill_decomposition(query)
    assert td.is_valid()


def test_decomposition_from_order_rejects_non_permutation():
    with pytest.raises(QueryError):
        decomposition_from_order(triangle_query(), ["A", "B"])


def test_every_elimination_order_gives_valid_decomposition():
    import itertools

    q = cycle_query(4)
    for order in itertools.permutations(q.variables):
        td = decomposition_from_order(q, order)
        assert td.is_valid(), order


def test_triangle_best_decomposition_fhw():
    td = best_decomposition(triangle_query())
    assert td.fractional_hypertree_width() == pytest.approx(1.5)
    assert td.generalized_hypertree_width() == 2


def test_fourcycle_single_tree_fhw_is_two():
    # The tutorial's point: no single tree beats width 2 for the 4-cycle;
    # only the union of trees reaches 1.5.
    td = best_decomposition(cycle_query(4))
    assert td.fractional_hypertree_width() == pytest.approx(2.0)


def test_path_decomposition_width_one():
    td = best_decomposition(path_query(3))
    assert td.fractional_hypertree_width() == pytest.approx(1.0)
    assert td.width == 1


def test_atoms_assigned_exactly_once():
    td = min_fill_decomposition(cycle_query(5))
    assigned = [i for bag in td.bags for i in bag.atom_indexes]
    assert sorted(assigned) == list(range(5))


@settings(max_examples=25, deadline=None)
@given(graph_db_strategy())
def test_rewrite_equivalent_for_triangle(db):
    q = triangle_query(("E", "E", "E"))
    rewrite = decompose_to_acyclic(db, q)
    assert is_acyclic(rewrite.query)
    got = reorder_to_query_schema(
        yannakakis_join(rewrite.database, rewrite.query), q
    )
    expected = generic_join(db, q)
    assert multiset(got) == multiset(expected)


@settings(max_examples=15, deadline=None)
@given(graph_db_strategy(max_edges=10))
def test_rewrite_equivalent_for_five_cycle(db):
    q = cycle_query(5)
    rewrite = decompose_to_acyclic(db, q)
    got = reorder_to_query_schema(
        yannakakis_join(rewrite.database, rewrite.query), q
    )
    expected = generic_join(db, q)
    assert multiset(got) == multiset(expected)


def test_rewrite_combines_weights_once_per_atom():
    db = random_graph_database(30, 8, seed=4)
    q = cycle_query(4)
    rewrite = decompose_to_acyclic(db, q, combine=operator.add)
    got = reorder_to_query_schema(
        yannakakis_join(rewrite.database, rewrite.query), q
    )
    expected = generic_join(db, q)
    assert multiset(got) == multiset(expected)


def test_rewrite_with_max_combine():
    db = random_graph_database(30, 8, seed=5)
    q = triangle_query(("E", "E", "E"))
    rewrite = decompose_to_acyclic(db, q, combine=max)
    got = reorder_to_query_schema(
        yannakakis_join(rewrite.database, rewrite.query, combine=max), q
    )
    expected = generic_join(db, q, combine=max)
    assert multiset(got) == multiset(expected)


def test_children_mapping_consistent():
    td = min_fill_decomposition(cycle_query(4))
    kids = td.children()
    for child, parent in enumerate(td.parent):
        if parent is not None:
            assert child in kids[parent]


CYCLE5_SQL = (
    "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
    "JOIN E AS e3 ON e2.dst = e3.src JOIN E AS e4 ON e3.dst = e4.src "
    "JOIN E AS e5 ON e4.dst = e5.src AND e5.dst = e1.src "
    "ORDER BY weight LIMIT 10"
)


def test_one_search_per_cyclic_query_shape(monkeypatch):
    """Planning and running one 5-cycle shape twice searches its
    elimination orders once (the router and the rewrite both ask), and
    the remembered order streams what the search did."""
    searches = []
    search = decomposition._best_order
    monkeypatch.setattr(decomposition, "_ORDER_CACHE", LruCache(8))
    monkeypatch.setattr(
        decomposition,
        "_best_order",
        lambda *args: searches.append(args) or search(*args),
    )
    db = random_graph_database(num_edges=40, num_nodes=12, seed=5)
    streams = []
    for _ in range(2):
        result = repro_sql.query(db, CYCLE5_SQL)
        streams.append(list(result))
        assert result.plan.estimates.full_join
    assert len(searches) == 1
    assert len(streams[0]) == 10 and streams[1] == streams[0]
    # A query of another shape is searched on its own.
    best_decomposition(cycle_query(4))
    assert len(searches) == 2
