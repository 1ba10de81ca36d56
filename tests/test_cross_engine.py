"""Cross-engine agreement properties — the suite's strongest invariant.

Every join engine must compute the same weighted result multiset, and every
any-k method must enumerate exactly that multiset in ranking order, for
random databases and all the query families of the tutorial.
"""

import pytest
from hypothesis import given, settings

from repro import METHODS, rank_enumerate
from repro.joins.base import multiset
from repro.joins.binary_plan import evaluate_left_deep
from repro.anyk.api import has_any_result
from repro.joins.generic_join import evaluate as generic_join
from repro.joins.leapfrog import evaluate as leapfrog_join
from repro.joins.naive import evaluate as naive_join
from repro.joins.yannakakis import evaluate as yannakakis_join
from repro.query.cq import cycle_query, path_graph_query, path_query, star_query, triangle_query
from repro.util.counters import Counters

from conftest import graph_db_strategy, path_db_strategy, ranked_weights, star_db_strategy

ACYCLIC_ENGINES = [
    naive_join,
    evaluate_left_deep,
    yannakakis_join,
    generic_join,
    leapfrog_join,
]
CYCLIC_ENGINES = [naive_join, evaluate_left_deep, generic_join, leapfrog_join]


@settings(max_examples=40, deadline=None)
@given(db_and_length=path_db_strategy())
def test_all_engines_agree_on_paths(db_and_length):
    db, length = db_and_length
    q = path_query(length)
    reference = multiset(ACYCLIC_ENGINES[0](db, q))
    for engine in ACYCLIC_ENGINES[1:]:
        assert multiset(engine(db, q)) == reference


@settings(max_examples=30, deadline=None)
@given(db_and_arms=star_db_strategy())
def test_all_engines_agree_on_stars(db_and_arms):
    db, arms = db_and_arms
    q = star_query(arms)
    reference = multiset(ACYCLIC_ENGINES[0](db, q))
    for engine in ACYCLIC_ENGINES[1:]:
        assert multiset(engine(db, q)) == reference


@settings(max_examples=25, deadline=None)
@given(db=graph_db_strategy())
def test_all_engines_agree_on_graph_patterns(db):
    for q in (
        triangle_query(("E", "E", "E")),
        cycle_query(4),
        path_graph_query(2),
    ):
        reference = multiset(CYCLIC_ENGINES[0](db, q, max_combinations=10**7))
        for engine in CYCLIC_ENGINES[1:]:
            assert multiset(engine(db, q)) == reference


@settings(max_examples=20, deadline=None)
@given(db_and_length=path_db_strategy(max_length=2, max_size=8))
def test_every_anyk_method_equals_sorted_join(db_and_length):
    db, length = db_and_length
    q = path_query(length)
    expected = sorted(round(w, 9) for w in naive_join(db, q).weights)
    for method in METHODS:
        got = ranked_weights(rank_enumerate(db, q, method=method))
        assert got == expected, method


@settings(max_examples=20, deadline=None)
@given(db=graph_db_strategy(max_edges=10))
def test_anyk_methods_agree_on_fourcycle(db):
    q = cycle_query(4)
    expected = sorted(round(w, 9) for w in generic_join(db, q).weights)
    for method in ("part:lazy", "part:take2", "rec", "batch"):
        got = ranked_weights(rank_enumerate(db, q, method=method))
        assert got == expected, method


@settings(max_examples=25, deadline=None)
@given(db=graph_db_strategy())
def test_boolean_consistent_with_output_size(db):
    for q in (triangle_query(("E", "E", "E")), cycle_query(4)):
        assert has_any_result(db, q) == (len(generic_join(db, q)) > 0)


@settings(max_examples=20, deadline=None)
@given(db_and_length=path_db_strategy())
def test_boolean_consistent_on_acyclic(db_and_length):
    db, length = db_and_length
    q = path_query(length)
    assert has_any_result(db, q) == (len(naive_join(db, q)) > 0)
