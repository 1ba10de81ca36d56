"""Tests for the heap structures backing the ANYK-PART variants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.counters import Counters
from repro.util.heaps import (
    BinaryHeap,
    IncrementalQuickSelect,
    LazySortedList,
    TournamentBucket,
)

float_lists = st.lists(
    st.integers(min_value=-100, max_value=100).map(float), max_size=60
)


# ----------------------------------------------------------------------
# BinaryHeap
# ----------------------------------------------------------------------
def test_binary_heap_orders_by_key():
    h = BinaryHeap()
    for key, item in [(3, "c"), (1, "a"), (2, "b")]:
        h.push(key, item)
    assert [h.pop() for _ in range(3)] == [(1, "a"), (2, "b"), (3, "c")]


def test_binary_heap_ties_broken_by_insertion_order():
    h = BinaryHeap()
    h.push(1, "first")
    h.push(1, "second")
    assert h.pop()[1] == "first"
    assert h.pop()[1] == "second"


def test_binary_heap_never_compares_items():
    class Opaque:
        def __lt__(self, other):  # pragma: no cover
            raise AssertionError("payload comparison attempted")

    h = BinaryHeap()
    h.push(1, Opaque())
    h.push(1, Opaque())
    h.pop()
    h.pop()


def test_binary_heap_counts_operations():
    c = Counters()
    h = BinaryHeap(c)
    h.push(1, None)
    h.pop()
    assert c.heap_ops == 2


def test_binary_heap_empty_errors():
    h = BinaryHeap()
    with pytest.raises(IndexError):
        h.pop()
    with pytest.raises(IndexError):
        h.peek()


def test_binary_heap_peek_does_not_remove():
    h = BinaryHeap()
    h.push(5, "x")
    assert h.peek() == (5, "x")
    assert len(h) == 1


# ----------------------------------------------------------------------
# LazySortedList
# ----------------------------------------------------------------------
@given(float_lists)
def test_lazy_sorted_list_agrees_with_sorted(values):
    lazy = LazySortedList(zip(values, range(len(values))))
    expected = sorted(values)
    assert [lazy.get(i)[0] for i in range(len(values))] == expected


def test_lazy_sorted_list_is_incremental():
    c = Counters()
    lazy = LazySortedList(((-v, v) for v in range(100)), counters=c)
    baseline = c.heap_ops
    lazy.get(0)
    # One element must not cost a full sort's worth of heap operations.
    assert c.heap_ops - baseline <= 2


def test_lazy_sorted_list_out_of_range():
    lazy = LazySortedList([(1, 0), (2, 1)])
    with pytest.raises(IndexError):
        lazy.get(2)
    with pytest.raises(IndexError):
        lazy.get(-1)


def test_lazy_sorted_list_materialized_prefix():
    lazy = LazySortedList([(3, 0), (1, 1), (2, 2)])
    lazy.get(1)
    assert lazy.materialized() == ((1, 1), (2, 2))


# ----------------------------------------------------------------------
# IncrementalQuickSelect
# ----------------------------------------------------------------------
@given(float_lists)
def test_quickselect_agrees_with_sorted(values):
    qs = IncrementalQuickSelect(zip(values, range(len(values))))
    expected = sorted(values)
    assert [qs.get(i)[0] for i in range(len(values))] == expected


@given(float_lists.filter(lambda v: len(v) >= 3))
def test_quickselect_random_order_access(values):
    qs = IncrementalQuickSelect(zip(values, range(len(values))))
    expected = sorted(values)
    # Nondecreasing access with repeats (the PART access pattern).
    for i in (0, 0, 1, len(values) - 1, 1):
        assert qs.get(i)[0] == expected[i]


def test_quickselect_out_of_range():
    qs = IncrementalQuickSelect([(1.0, 0)])
    with pytest.raises(IndexError):
        qs.get(1)
    with pytest.raises(IndexError):
        qs.get(-1)


# ----------------------------------------------------------------------
# TournamentBucket
# ----------------------------------------------------------------------
@given(float_lists.filter(bool))
def test_tournament_root_is_minimum(values):
    bucket = TournamentBucket(zip(values, range(len(values))))
    assert bucket.root()[0] == min(values)


@given(float_lists.filter(bool))
def test_tournament_children_never_smaller(values):
    bucket = TournamentBucket(zip(values, range(len(values))))
    for position in range(len(bucket)):
        for child in bucket.children(position):
            assert bucket.item_at(child) >= bucket.item_at(position)


@given(float_lists.filter(bool))
def test_tournament_children_cover_everything(values):
    bucket = TournamentBucket(zip(values, range(len(values))))
    reached = set()
    frontier = [0]
    while frontier:
        p = frontier.pop()
        reached.add(p)
        frontier.extend(bucket.children(p))
    assert reached == set(range(len(bucket)))


def test_tournament_empty_root_errors():
    with pytest.raises(IndexError):
        TournamentBucket([]).root()
