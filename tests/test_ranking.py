"""Tests for ranking functions (selective dioids)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.anyk.ranking import ALL_RANKINGS, FLOAT_RANKINGS, LEX, MAX, PRODUCT, SUM

positive = st.integers(min_value=1, max_value=1000).map(lambda i: i / 16.0)
anyfloat = st.integers(min_value=-1000, max_value=1000).map(lambda i: i / 16.0)


def test_identities():
    assert SUM.combine(SUM.identity, 3.0) == 3.0
    assert MAX.combine(MAX.identity, 3.0) == 3.0
    assert PRODUCT.combine(PRODUCT.identity, 3.0) == 3.0
    assert LEX.combine(LEX.identity, (3.0,)) == (3.0,)


@given(anyfloat, anyfloat, anyfloat)
def test_sum_max_monotone(a, b, c):
    for ranking in (SUM, MAX):
        la, lb, lc = ranking.lift(a), ranking.lift(b), ranking.lift(c)
        if la <= lb:
            assert ranking.combine(lc, la) <= ranking.combine(lc, lb)
            assert ranking.combine(la, lc) <= ranking.combine(lb, lc)


@given(positive, positive)
def test_product_raw_combine_consistent_with_lift(a, b):
    lifted = PRODUCT.combine(PRODUCT.lift(a), PRODUCT.lift(b))
    raw = PRODUCT.lift(PRODUCT.float_combine()(a, b))
    assert lifted == pytest.approx(raw)


@given(anyfloat, anyfloat)
def test_sum_max_raw_combine_consistent(a, b):
    for ranking in (SUM, MAX):
        lifted = ranking.combine(ranking.lift(a), ranking.lift(b))
        raw = ranking.lift(ranking.float_combine()(a, b))
        assert lifted == pytest.approx(raw)


def test_product_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        PRODUCT.lift(0.0)
    with pytest.raises(ValueError):
        PRODUCT.lift(-1.0)


def test_lex_is_not_float_based():
    assert not LEX.float_based
    with pytest.raises(TypeError):
        LEX.float_combine()


@given(
    st.lists(anyfloat, min_size=1, max_size=4),
    st.lists(anyfloat, min_size=1, max_size=4),
)
def test_lex_concatenation_and_order(xs, ys):
    wx = LEX.combine_many(LEX.lift(x) for x in xs)
    wy = LEX.combine_many(LEX.lift(y) for y in ys)
    assert LEX.combine(wx, wy) == tuple(xs) + tuple(ys)
    # Total order: any two equal-length vectors compare.
    if len(wx) == len(wy):
        assert (wx < wy) or (wy < wx) or (wx == wy)


def test_combine_many_orders_left_to_right():
    assert SUM.combine_many([1.0, 2.0, 3.0]) == 6.0
    assert LEX.combine_many([(1.0,), (2.0,)]) == (1.0, 2.0)
    assert SUM.combine_many([]) == SUM.identity


def test_float_rankings_listed():
    assert SUM in FLOAT_RANKINGS
    assert LEX not in FLOAT_RANKINGS
    assert set(FLOAT_RANKINGS) <= set(ALL_RANKINGS)


def test_repr_contains_name():
    assert "sum" in repr(SUM)


# ----------------------------------------------------------------------
# Deterministic tie-breaking (tuple identity, never insertion order)
# ----------------------------------------------------------------------
def test_ranking_registry_round_trip():
    from repro.anyk.ranking import RANKINGS_BY_NAME, ranking_by_name

    for ranking in ALL_RANKINGS:
        assert ranking_by_name(ranking.name) is ranking
    assert set(RANKINGS_BY_NAME) == {r.name for r in ALL_RANKINGS}
    with pytest.raises(ValueError):
        ranking_by_name("nope")


def test_solution_tie_key_orders_mixed_types():
    from repro.anyk.ranking import solution_tie_key

    rows = [(1, "b"), ("a", 2), (1, "a"), (0, "z")]
    ordered = sorted(rows, key=solution_tie_key)
    # Total order, deterministic, no int<str TypeError.
    assert ordered == sorted(ordered, key=solution_tie_key)
    assert ordered[0] == (0, "z")  # ints before strs, then by value


def test_stabilize_ties_sorts_equal_weight_groups():
    from repro.anyk.ranking import stabilize_ties

    stream = [((2,), 0.5), ((9, 1), 1.0), ((1, 2), 1.0), ((1, 1), 1.0), ((3,), 2.0)]
    out = list(stabilize_ties(stream))
    assert out == [
        ((2,), 0.5),
        ((1, 1), 1.0),
        ((1, 2), 1.0),
        ((9, 1), 1.0),
        ((3,), 2.0),
    ]
    assert list(stabilize_ties([])) == []


@pytest.mark.parametrize("middle", [(0, 1, 2), (0, "hub", 2)])
def test_all_equal_weights_enumerate_in_row_order(middle):
    """Regression: with every weight equal, the whole output is one tie
    group and must come out ordered by tuple identity — for every engine,
    so shard merges (and cross-engine diffs) are deterministic.  The
    mixed ``int``/``str`` join column is the hub-graph shape: the tie
    key must order it without ever comparing ``int < str``."""
    from repro.anyk.api import rank_enumerate
    from repro.anyk.ranking import solution_tie_key
    from repro.data.database import Database
    from repro.data.relation import Relation
    from repro.query.cq import path_query

    rows1 = [(i, j) for i in range(3) for j in middle]
    rows2 = [(j, m) for j in middle for m in range(3)]
    db = Database(
        [
            Relation("R1", ("A1", "A2"), rows1, [1.0] * len(rows1)),
            Relation("R2", ("A2", "A3"), rows2, [1.0] * len(rows2)),
        ]
    )
    query = path_query(2)
    expected = None
    for method in ("part:lazy", "part:eager", "part:all", "rec", "batch"):
        got = list(rank_enumerate(db, query, method=method))
        assert got == sorted(got, key=lambda pair: solution_tie_key(pair[0]))
        if expected is None:
            expected = got
        else:
            assert got == expected, method
