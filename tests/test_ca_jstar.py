"""Tests for the Combined Algorithm (CA) and the J* rank join."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.generators import path_database, rank_join_database, scored_lists
from repro.joins.naive import evaluate as naive_join
from repro.query.cq import path_query, star_query
from repro.topk.access import VerticalSource
from repro.topk.ca import combined_algorithm
from repro.topk.jstar import jstar_stream, jstar_topk
from repro.topk.rank_join import rank_join_stream
from repro.util.counters import Counters

from conftest import (
    path_db_strategy,
    ranked_weights,
    scored_lists_strategy,
    star_db_strategy,
)


# ----------------------------------------------------------------------
# CA
# ----------------------------------------------------------------------
def _true_scores(lists, objects):
    index = [{o: s for o, s in column} for column in lists]
    return sorted(
        (round(sum(m[o] for m in index), 9) for o in objects), reverse=True
    )


@settings(max_examples=40, deadline=None)
@given(
    scored_lists_strategy(),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=8),
)
def test_ca_correct_for_any_ratio(lists, k, ratio):
    k = min(k, len(lists[0]))
    got = combined_algorithm(VerticalSource(lists), k, ratio=ratio)
    assert len(got) == k
    index = [{o: s for o, s in column} for column in lists]
    oracle = sorted(
        (round(sum(m[o] for m in index), 9) for o in index[0]), reverse=True
    )[:k]
    assert _true_scores(lists, [o for o, _ in got]) == oracle


def test_ca_parameter_validation():
    lists = scored_lists(10, 2, seed=0)
    with pytest.raises(ValueError):
        combined_algorithm(VerticalSource(lists), 0)
    with pytest.raises(ValueError):
        combined_algorithm(VerticalSource(lists), 1, ratio=0)


def test_ca_interpolates_random_access_volume():
    """Larger cost ratios => fewer random accesses (toward NRA)."""
    lists = scored_lists(800, 3, "independent", seed=1)
    randoms = {}
    for ratio in (1, 20):
        c = Counters()
        combined_algorithm(VerticalSource(lists, c), 5, ratio=ratio)
        randoms[ratio] = c.random_accesses
    assert randoms[20] < randoms[1]


def test_ca_uses_fewer_random_accesses_than_ta():
    from repro.topk.threshold import threshold_algorithm

    lists = scored_lists(800, 3, "independent", seed=2)
    c_ta, c_ca = Counters(), Counters()
    threshold_algorithm(VerticalSource(lists, c_ta), 5)
    combined_algorithm(VerticalSource(lists, c_ca), 5, ratio=10)
    assert c_ca.random_accesses < c_ta.random_accesses


# ----------------------------------------------------------------------
# J*
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(db_and_length=path_db_strategy(max_length=3))
def test_jstar_full_ranking_matches_naive(db_and_length):
    db, length = db_and_length
    q = path_query(length)
    expected = sorted(round(w, 9) for w in naive_join(db, q).weights)
    assert ranked_weights(jstar_stream(db, q)) == expected


@settings(max_examples=20, deadline=None)
@given(db_and_arms=star_db_strategy(max_arms=3, max_size=6))
def test_jstar_on_star_queries(db_and_arms):
    db, arms = db_and_arms
    q = star_query(arms)
    expected = sorted(round(w, 9) for w in naive_join(db, q).weights)
    assert ranked_weights(jstar_stream(db, q)) == expected


@settings(max_examples=15, deadline=None)
@given(db_and_length=path_db_strategy(max_length=2))
def test_jstar_agrees_with_hrjn(db_and_length):
    db, length = db_and_length
    q = path_query(length)
    assert ranked_weights(jstar_stream(db, q)) == ranked_weights(
        rank_join_stream(db, q)
    )


def test_jstar_topk_prefix_and_validation():
    db = rank_join_database(80, 10, seed=3)
    q = path_query(2)
    full = ranked_weights(jstar_stream(db, q))
    assert ranked_weights(jstar_topk(db, q, 3)) == full[:3]
    with pytest.raises(ValueError):
        jstar_topk(db, q, 0)


def test_jstar_respects_custom_order():
    db = path_database(2, 25, 4, seed=7)
    q = path_query(2)
    default = ranked_weights(jstar_stream(db, q))
    reordered = ranked_weights(jstar_stream(db, q, order=[1, 0]))
    assert default == reordered


def test_jstar_with_max_combine():
    db = rank_join_database(40, 5, seed=4)
    q = path_query(2)
    expected = sorted(round(w, 9) for w in naive_join(db, q, combine=max).weights)
    assert ranked_weights(jstar_stream(db, q, combine=max)) == expected


def test_jstar_empty_stream():
    from repro.data.database import Database
    from repro.data.relation import Relation

    db = Database(
        [Relation("R1", ("A1", "A2")), Relation("R2", ("A2", "A3"), [(1, 2)])]
    )
    assert list(jstar_stream(db, path_query(2))) == []


def test_jstar_early_termination_work_scales_with_depth():
    shallow = rank_join_database(600, 5, seed=5)
    deep = rank_join_database(600, 400, seed=5)
    c_shallow, c_deep = Counters(), Counters()
    jstar_topk(shallow, path_query(2), 1, counters=c_shallow)
    jstar_topk(deep, path_query(2), 1, counters=c_deep)
    assert c_deep.tuples_read > 2 * c_shallow.tuples_read
