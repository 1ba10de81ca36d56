"""Tests for ANYK-PART and its successor strategies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anyk.part import STRATEGIES, anyk_part, naive_lawler
from repro.anyk.ranking import LEX, MAX, SUM
from repro.anyk.tdp import TDP
from repro.data.generators import path_database, star_database
from repro.joins.generic_join import evaluate as generic_join
from repro.joins.naive import evaluate as naive_join
from repro.query.cq import path_query, star_query
from repro.util.counters import Counters

from conftest import multiset_of, path_db_strategy, ranked_weights, star_db_strategy

ALL_STRATEGIES = sorted(STRATEGIES)


def _oracle_weights(db, query, combine=lambda a, b: a + b):
    return sorted(round(w, 9) for w in naive_join(db, query, combine=combine).weights)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
@settings(max_examples=25, deadline=None)
@given(db_and_length=path_db_strategy())
def test_part_enumerates_exact_ranking_on_paths(strategy, db_and_length):
    db, length = db_and_length
    q = path_query(length)
    got = ranked_weights(anyk_part(TDP(db, q), strategy=strategy))
    assert got == _oracle_weights(db, q)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
@settings(max_examples=20, deadline=None)
@given(db_and_arms=star_db_strategy())
def test_part_enumerates_exact_ranking_on_stars(strategy, db_and_arms):
    db, arms = db_and_arms
    q = star_query(arms)
    got = ranked_weights(anyk_part(TDP(db, q), strategy=strategy))
    assert got == _oracle_weights(db, q)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_part_rows_match_naive_multiset(strategy):
    db = path_database(3, 20, 4, seed=8)
    q = path_query(3)
    got = list(anyk_part(TDP(db, q), strategy=strategy))
    expected = naive_join(db, q)
    assert multiset_of(got) == multiset_of(zip(expected.rows, expected.weights))


def test_unknown_strategy_rejected():
    db = path_database(2, 5, 3, seed=0)
    with pytest.raises(ValueError, match="unknown"):
        list(anyk_part(TDP(db, path_query(2)), strategy="bogus"))


def test_strategies_agree_pairwise_on_order():
    db = star_database(3, 15, 4, seed=3)
    q = star_query(3)
    streams = {
        s: ranked_weights(anyk_part(TDP(db, q), strategy=s))
        for s in ALL_STRATEGIES
    }
    reference = streams[ALL_STRATEGIES[0]]
    for s, weights in streams.items():
        assert weights == reference, s


def test_no_duplicate_solutions():
    db = path_database(3, 15, 3, seed=5)  # heavy key collisions
    q = path_query(3)
    rows = [row for row, _ in anyk_part(TDP(db, q), strategy="lazy")]
    expected = naive_join(db, q)
    assert len(rows) == len(expected)


def test_empty_result_stream():
    from repro.data.database import Database
    from repro.data.relation import Relation

    db = Database(
        [Relation("R1", ("A1", "A2"), [(0, 1)]), Relation("R2", ("A2", "A3"))]
    )
    assert list(anyk_part(TDP(db, path_query(2)))) == []


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_max_ranking_order(strategy):
    db = path_database(2, 25, 5, seed=7)
    q = path_query(2)
    got = ranked_weights(anyk_part(TDP(db, q, ranking=MAX), strategy=strategy))
    assert got == _oracle_weights(db, q, combine=max)


def test_lex_ranking_order():
    db = path_database(2, 12, 3, seed=11)
    q = path_query(2)
    got = [w for _, w in anyk_part(TDP(db, q, ranking=LEX), strategy="lazy")]
    assert all(got[i] <= got[i + 1] for i in range(len(got) - 1))
    # LEX refines SUM-compatible order only positionally; check count.
    assert len(got) == len(naive_join(db, q))


def test_first_result_is_global_minimum_immediately():
    db = path_database(4, 40, 6, seed=2)
    q = path_query(4)
    stream = anyk_part(TDP(db, q), strategy="lazy")
    first = next(stream)
    assert round(float(first[1]), 9) == _oracle_weights(db, q)[0]


def test_naive_lawler_same_results_but_more_work():
    db = path_database(3, 12, 3, seed=4)
    q = path_query(3)
    c_fast, c_slow = Counters(), Counters()
    fast = ranked_weights(anyk_part(TDP(db, q, counters=c_fast), strategy="eager"))
    slow = ranked_weights(naive_lawler(TDP(db, q, counters=c_slow)))
    assert fast == slow
    assert c_slow.extras.get("naive_dp_work", 0) > 0
    assert c_slow.total_work() > c_fast.total_work()


def test_take2_heap_growth_bounded():
    """Take2 inserts at most 2 + (m - L) candidates per pop; with huge
    buckets the global queue stays far smaller than under All."""
    import itertools

    db = path_database(2, 40, 2, seed=1)  # few keys -> huge buckets
    q = path_query(2)
    c_take2, c_all = Counters(), Counters()
    tdp2 = TDP(db, q, counters=c_take2)
    list(itertools.islice(anyk_part(tdp2, strategy="take2"), 25))
    tdpa = TDP(db, q, counters=c_all)
    list(itertools.islice(anyk_part(tdpa, strategy="all"), 25))
    assert c_take2.heap_ops < c_all.heap_ops


def test_tdp_counters_accumulate_during_enumeration():
    db = path_database(2, 20, 3, seed=8)
    c = Counters()
    tdp = TDP(db, path_query(2), counters=c)
    preprocessing = c.total_work()
    assert preprocessing > 0
    list(anyk_part(tdp, strategy="lazy"))
    assert c.total_work() > preprocessing
    assert c.output_tuples == len(generic_join(db, path_query(2)))
