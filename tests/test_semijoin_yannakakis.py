"""Tests for semijoins, the full reducer, and Yannakakis' algorithm."""

import pytest
from hypothesis import given, settings

from repro.data.database import Database
from repro.data.generators import dangling_path_database
from repro.data.relation import Relation
from repro.joins.base import multiset
from repro.joins.naive import evaluate as naive_join
from repro.joins.semijoin import full_reducer, is_globally_consistent, semijoin
from repro.joins.yannakakis import boolean as yk_boolean
from repro.joins.yannakakis import evaluate as yannakakis_join
from repro.query.cq import path_query, star_query
from repro.query.hypergraph import join_tree_or_raise
from repro.util.counters import Counters

from conftest import path_db_strategy, star_db_strategy


def test_semijoin_keeps_matching_rows():
    left = Relation("L", ("a", "b"), [(1, 2), (3, 4)], [0.1, 0.2])
    right = Relation("R", ("b", "c"), [(2, 7)])
    out = semijoin(left, right)
    assert out.rows == [(1, 2)]
    assert out.weights == [0.1]


def test_semijoin_no_shared_attributes():
    left = Relation("L", ("a",), [(1,)])
    assert len(semijoin(left, Relation("R", ("b",), [(5,)]))) == 1
    assert len(semijoin(left, Relation("R", ("b",)))) == 0


def test_semijoin_preserves_duplicates():
    left = Relation("L", ("a",), [(1,), (1,)], [0.1, 0.9])
    right = Relation("R", ("a",), [(1,)])
    assert len(semijoin(left, right)) == 2


@settings(max_examples=25, deadline=None)
@given(path_db_strategy())
def test_full_reducer_reaches_global_consistency(db_and_length):
    db, length = db_and_length
    q = path_query(length)
    tree = join_tree_or_raise(q)
    reduced = full_reducer(db, q, tree=tree)
    assert is_globally_consistent(reduced, tree)


@settings(max_examples=25, deadline=None)
@given(path_db_strategy())
def test_full_reducer_preserves_query_answers(db_and_length):
    """Joining the reduced relations yields exactly the original answers."""
    from repro.joins.base import reorder_to_query_schema
    from repro.joins.hash_join import hash_join

    db, length = db_and_length
    q = path_query(length)
    reduced = full_reducer(db, q)
    joined = reduced[0]
    for i in range(1, len(q.atoms)):
        joined = hash_join(joined, reduced[i])
    joined = reorder_to_query_schema(joined, q)
    assert multiset(joined) == multiset(naive_join(db, q))


@settings(max_examples=25, deadline=None)
@given(path_db_strategy())
def test_full_reducer_only_removes_tuples(db_and_length):
    db, length = db_and_length
    q = path_query(length)
    reduced = full_reducer(db, q)
    for i, atom in enumerate(q.atoms):
        original_rows = set(db[atom.relation].rows)
        assert set(reduced[i].rows) <= original_rows


@settings(max_examples=25, deadline=None)
@given(star_db_strategy())
def test_yannakakis_matches_naive_on_stars(db_and_arms):
    db, arms = db_and_arms
    q = star_query(arms)
    assert multiset(yannakakis_join(db, q)) == multiset(naive_join(db, q))


@settings(max_examples=25, deadline=None)
@given(path_db_strategy())
def test_yannakakis_matches_naive_on_paths(db_and_length):
    db, length = db_and_length
    q = path_query(length)
    assert multiset(yannakakis_join(db, q)) == multiset(naive_join(db, q))


def test_yannakakis_linear_on_dangling_instance():
    """E3's core claim: zero intermediates where binary plans go quadratic."""
    db = dangling_path_database(3, 40)
    c = Counters()
    out = yannakakis_join(db, path_query(3), counters=c)
    assert len(out) == 0
    assert c.intermediate_tuples == 0


def test_yannakakis_intermediates_bounded_by_output():
    db = Database(
        [
            Relation("R1", ("A1", "A2"), [(i, i % 3) for i in range(9)]),
            Relation("R2", ("A2", "A3"), [(i % 3, i) for i in range(9)]),
        ]
    )
    q = path_query(2)
    c = Counters()
    out = yannakakis_join(db, q, counters=c)
    # After full reduction every produced tuple extends to an answer;
    # with two atoms intermediates equal outputs exactly.
    assert c.intermediate_tuples == 0
    assert c.output_tuples == len(out)
    # A single atom runs no join: its output is no negative intermediate.
    c = Counters()
    out = yannakakis_join(db, path_query(1), counters=c)
    assert (c.intermediate_tuples, c.output_tuples) == (0, len(out)) == (0, 9)


def test_yannakakis_boolean_fast_path():
    db = dangling_path_database(3, 20)
    assert yk_boolean(db, path_query(3)) is False
    db2 = Database(
        [
            Relation("R1", ("A1", "A2"), [(0, 1)]),
            Relation("R2", ("A2", "A3"), [(1, 2)]),
        ]
    )
    assert yk_boolean(db2, path_query(2)) is True


def test_weight_combination_through_the_tree():
    db = Database(
        [
            Relation("R1", ("A1", "A2"), [(0, 1)], [0.25]),
            Relation("R2", ("A2", "A3"), [(1, 2)], [0.5]),
        ]
    )
    out = yannakakis_join(db, path_query(2))
    assert out.weights == [0.75]
    out_max = yannakakis_join(db, path_query(2), combine=max)
    assert out_max.weights == [0.5]
