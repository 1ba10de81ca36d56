"""Tests for hash joins, left-deep plans and intermediate accounting."""

import pytest
from hypothesis import given, settings

from repro.data.database import Database
from repro.data.relation import Relation
from repro.data.generators import triangle_worstcase_database
from repro.joins.base import atom_relation, multiset
from repro.joins.binary_plan import (
    all_left_deep_orders,
    best_left_deep,
    evaluate_left_deep,
    greedy_plan,
    worst_left_deep,
)
from repro.joins.hash_join import hash_join
from repro.joins.naive import evaluate as naive_join
from repro.query.cq import Atom, ConjunctiveQuery, QueryError, path_query, triangle_query
from repro.util.counters import Counters

from conftest import path_db_strategy


def test_hash_join_natural_join_semantics():
    left = Relation("L", ("a", "b"), [(1, 2), (1, 3)], [0.1, 0.2])
    right = Relation("R", ("b", "c"), [(2, 9), (2, 8)], [0.5, 0.7])
    out = hash_join(left, right)
    assert out.schema == ("a", "b", "c")
    assert multiset(out) == multiset(
        Relation(
            "X", ("a", "b", "c"), [(1, 2, 9), (1, 2, 8)], [0.6, 0.8]
        )
    )


def test_hash_join_cross_product_when_no_shared():
    left = Relation("L", ("a",), [(1,), (2,)])
    right = Relation("R", ("b",), [(9,)])
    out = hash_join(left, right)
    assert sorted(out.rows) == [(1, 9), (2, 9)]


def test_hash_join_weight_combiner():
    left = Relation("L", ("a",), [(1,)], [0.4])
    right = Relation("R", ("a",), [(1,)], [0.9])
    out = hash_join(left, right, combine=max)
    assert out.weights == [0.9]


def test_hash_join_counts_intermediates():
    left = Relation("L", ("a",), [(1,)] * 3)
    right = Relation("R", ("a",), [(1,)] * 4)
    c = Counters()
    out = hash_join(left, right, counters=c)
    assert len(out) == 12
    assert c.intermediate_tuples == 12


def test_hash_join_bag_semantics_duplicates():
    left = Relation("L", ("a",), [(1,), (1,)], [0.1, 0.2])
    right = Relation("R", ("a",), [(1,)], [1.0])
    out = hash_join(left, right)
    assert sorted(round(w, 6) for w in out.weights) == [1.1, 1.2]


def test_atom_relation_repeated_variable_filter():
    db = Database([Relation("E", ("x", "y"), [(1, 1), (1, 2)], [0.3, 0.4])])
    q = ConjunctiveQuery([Atom("E", ("a", "a"))])
    rel = atom_relation(db, q, 0)
    assert rel.schema == ("a",)
    assert rel.rows == [(1,)]
    assert rel.weights == [0.3]


@settings(max_examples=30, deadline=None)
@given(path_db_strategy())
def test_left_deep_matches_naive(db_and_length):
    db, length = db_and_length
    q = path_query(length)
    expected = multiset(naive_join(db, q))
    assert multiset(evaluate_left_deep(db, q)) == expected


def test_all_orders_agree_on_triangle():
    db = triangle_worstcase_database(12)
    q = triangle_query()
    expected = multiset(naive_join(db, q))
    for order in all_left_deep_orders(q):
        assert multiset(evaluate_left_deep(db, q, order)) == expected


def test_invalid_order_rejected():
    db = triangle_worstcase_database(8)
    with pytest.raises(QueryError):
        evaluate_left_deep(db, triangle_query(), order=[0, 0, 1])


def test_connected_orders_only():
    q = path_query(3)
    orders = list(all_left_deep_orders(q))
    # R1 then R3 is disconnected; it must not be enumerated.
    assert (0, 2, 1) not in orders
    assert (0, 1, 2) in orders
    all_orders = list(all_left_deep_orders(q, connected_only=False))
    assert len(all_orders) == 6


def test_greedy_plan_is_valid_permutation():
    db = triangle_worstcase_database(16)
    plan = greedy_plan(db, triangle_query())
    assert sorted(plan) == [0, 1, 2]


def test_every_triangle_order_blows_up_on_worstcase():
    """The §3 claim: no binary order avoids Θ(n²) intermediates."""
    n = 20
    db = triangle_worstcase_database(n)
    half = n // 2
    quadratic_floor = (half - 1) ** 2  # the forced pairwise join size
    _, best_cost = best_left_deep(db, triangle_query())
    assert best_cost >= quadratic_floor
    _, worst_cost = worst_left_deep(db, triangle_query())
    assert worst_cost >= best_cost


def test_intermediates_scale_quadratically():
    costs = {}
    for n in (16, 32):
        db = triangle_worstcase_database(n)
        c = Counters()
        evaluate_left_deep(db, triangle_query(), order=[0, 1, 2], counters=c)
        costs[n] = c.intermediate_tuples
    # Doubling n should roughly quadruple the intermediate count.
    assert costs[32] > 3 * costs[16]
    # A single atom runs no join: its output is no negative intermediate.
    db = Database([Relation("E", ("x", "y"), [(1, 2), (2, 3)], [0.3, 0.4])])
    c = Counters()
    out = evaluate_left_deep(
        db, ConjunctiveQuery([Atom("E", ("a", "b"))]), counters=c
    )
    assert (c.intermediate_tuples, c.output_tuples) == (0, len(out)) == (0, 2)
