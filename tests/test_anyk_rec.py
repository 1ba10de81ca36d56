"""Tests for ANYK-REC (recursive enumeration with memoized streams)."""

import pytest
from hypothesis import given, settings

from repro.anyk.part import anyk_part
from repro.anyk.ranking import LEX, MAX
from repro.anyk.rec import anyk_rec, stream_for
from repro.anyk.tdp import TDP
from repro.data.database import Database
from repro.data.generators import path_database, star_database
from repro.data.relation import Relation
from repro.joins.naive import evaluate as naive_join
from repro.query.cq import path_query, star_query

from conftest import multiset_of, path_db_strategy, ranked_weights, star_db_strategy


def _oracle_weights(db, query, combine=lambda a, b: a + b):
    return sorted(round(w, 9) for w in naive_join(db, query, combine=combine).weights)


@settings(max_examples=30, deadline=None)
@given(db_and_length=path_db_strategy())
def test_rec_exact_ranking_on_paths(db_and_length):
    db, length = db_and_length
    q = path_query(length)
    assert ranked_weights(anyk_rec(TDP(db, q))) == _oracle_weights(db, q)


@settings(max_examples=20, deadline=None)
@given(db_and_arms=star_db_strategy())
def test_rec_exact_ranking_on_stars(db_and_arms):
    db, arms = db_and_arms
    q = star_query(arms)
    assert ranked_weights(anyk_rec(TDP(db, q))) == _oracle_weights(db, q)


def test_rec_rows_match_naive():
    db = path_database(3, 18, 4, seed=6)
    q = path_query(3)
    got = list(anyk_rec(TDP(db, q)))
    expected = naive_join(db, q)
    assert multiset_of(got) == multiset_of(zip(expected.rows, expected.weights))


def test_rec_agrees_with_part_on_weight_sequence():
    db = star_database(3, 20, 4, seed=9)
    q = star_query(3)
    rec_w = ranked_weights(anyk_rec(TDP(db, q)))
    part_w = ranked_weights(anyk_part(TDP(db, q), strategy="lazy"))
    assert rec_w == part_w


def test_rec_empty_stream():
    db = Database(
        [Relation("R1", ("A1", "A2"), [(0, 1)]), Relation("R2", ("A2", "A3"))]
    )
    assert list(anyk_rec(TDP(db, path_query(2)))) == []


def test_rec_max_and_lex_rankings():
    db = path_database(2, 20, 4, seed=10)
    q = path_query(2)
    assert ranked_weights(anyk_rec(TDP(db, q, ranking=MAX))) == _oracle_weights(
        db, q, combine=max
    )
    lex = [w for _, w in anyk_rec(TDP(db, q, ranking=LEX))]
    assert all(lex[i] <= lex[i + 1] for i in range(len(lex) - 1))


def test_streams_are_memoized_and_shared():
    """All parent tuples with the same join key share one stream object —
    the suffix-sharing that distinguishes REC from PART."""
    db = Database(
        [
            # Two R1 tuples share A2=1, so they share R2's bucket for key 1.
            Relation("R1", ("A1", "A2"), [(0, 1), (9, 1)], [0.1, 0.2]),
            Relation("R2", ("A2", "A3"), [(1, 5), (1, 6)], [0.3, 0.4]),
        ]
    )
    tdp = TDP(db, path_query(2))
    list(anyk_rec(tdp))
    bucket = tdp.buckets[1][1]
    assert bucket.stream is not None
    assert stream_for(tdp, 1, bucket) is bucket.stream
    # The shared stream produced both suffixes exactly once.
    assert len(bucket.stream.solutions) == 2


def test_rec_is_lazy_prefix_cheap():
    """Asking for one result must not force the whole output."""
    db = path_database(3, 30, 5, seed=12)
    q = path_query(3)
    tdp = TDP(db, q)
    stream = anyk_rec(tdp)
    next(stream)
    root_stream = tdp.root_bucket().stream
    total = len(naive_join(db, q))
    assert len(root_stream.solutions) == 1 < total
