"""Tests for the compile seam, the rank_enumerate façade over it, the
batch baseline, and the cyclic routes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import METHODS, rank_enumerate, top_k
from repro.anyk.api import compile_program, has_any_result, query_shape
from repro.anyk.batch import batch_enumerate
from repro.anyk.cyclic import is_fourcycle
from repro.anyk.part import anyk_part
from repro.anyk.ranking import LEX, MAX, PRODUCT, SUM
from repro.anyk.rec import anyk_rec
from repro.data.database import Database
from repro.data.relation import Relation
from repro.data.generators import (
    fourcycle_hub_database,
    path_database,
    random_graph_database,
)
from repro.joins.generic_join import boolean as generic_join_boolean
from repro.joins.generic_join import evaluate as generic_join
from repro.joins.heavylight import fourcycle_union_of_trees
from repro.joins.naive import evaluate as naive_join
from repro.joins.yannakakis import boolean as yannakakis_boolean
from repro.query.cq import (
    Atom,
    ConjunctiveQuery,
    QueryError,
    cycle_query,
    path_query,
    triangle_query,
)
from repro.util.counters import Counters

from conftest import graph_db_strategy, multiset_of, path_db_strategy, ranked_weights


def _oracle(db, q, combine=lambda a, b: a + b):
    out = generic_join(db, q, combine=combine)
    return sorted(round(w, 9) for w in out.weights)


def test_methods_constant_lists_everything():
    assert "part:lazy" in METHODS
    assert "rec" in METHODS
    assert "batch" in METHODS
    assert "lawler" in METHODS
    assert len([m for m in METHODS if m.startswith("part:")]) == 5


@pytest.mark.parametrize("method", METHODS)
def test_every_method_on_acyclic(method):
    db = path_database(3, 15, 4, seed=1)
    q = path_query(3)
    got = ranked_weights(rank_enumerate(db, q, method=method))
    assert got == _oracle(db, q)


@pytest.mark.parametrize("method", ["part:lazy", "part:all", "rec", "batch"])
def test_every_method_on_fourcycle(method):
    db = random_graph_database(70, 14, seed=2)
    q = cycle_query(4)
    got = ranked_weights(rank_enumerate(db, q, method=method))
    assert got == _oracle(db, q)


@pytest.mark.parametrize("method", ["part:eager", "rec", "batch"])
def test_every_method_on_triangle_ghd_route(method):
    db = random_graph_database(60, 12, seed=3)
    q = triangle_query(("E", "E", "E"))
    got = ranked_weights(rank_enumerate(db, q, method=method))
    assert got == _oracle(db, q)


def test_k_truncates_stream():
    db = path_database(3, 20, 4, seed=4)
    q = path_query(3)
    full = _oracle(db, q)
    assert ranked_weights(rank_enumerate(db, q, k=5)) == full[:5]
    assert [round(float(w), 9) for _, w in top_k(db, q, 3)] == full[:3]


def test_k_validation():
    db = path_database(2, 5, 3, seed=0)
    with pytest.raises(ValueError):
        list(rank_enumerate(db, path_query(2), k=0))


def test_unknown_method_rejected():
    db = path_database(2, 5, 3, seed=0)
    with pytest.raises(ValueError, match="unknown any-k method"):
        list(rank_enumerate(db, path_query(2), method="bogus"))


def test_lawler_rejected_on_cyclic():
    db = random_graph_database(20, 8, seed=1)
    with pytest.raises(QueryError):
        list(rank_enumerate(db, cycle_query(4), method="lawler"))


def test_lex_rejected_on_cyclic():
    db = random_graph_database(20, 8, seed=1)
    with pytest.raises(TypeError):
        list(rank_enumerate(db, cycle_query(4), ranking=LEX))


def test_rankings_on_cyclic_queries():
    db = random_graph_database(
        50, 10, seed=5, weight_range=(0.1, 1.0)
    )  # positive weights for PRODUCT
    q = cycle_query(4)
    assert ranked_weights(rank_enumerate(db, q, ranking=MAX)) == _oracle(
        db, q, combine=max
    )
    got = [w for _, w in rank_enumerate(db, q, ranking=PRODUCT)]
    assert all(got[i] <= got[i + 1] + 1e-12 for i in range(len(got) - 1))


def test_is_fourcycle_detector():
    assert is_fourcycle(cycle_query(4))
    assert not is_fourcycle(cycle_query(3))
    assert not is_fourcycle(path_query(4))


def test_batch_rejects_lex():
    db = path_database(2, 5, 3, seed=0)
    with pytest.raises(TypeError):
        list(batch_enumerate(db, path_query(2), ranking=LEX))


@settings(max_examples=20, deadline=None)
@given(db=graph_db_strategy(), k=st.integers(min_value=1, max_value=8))
def test_topk_prefix_property_fourcycle(db, k):
    """Any-k top-k is always a prefix of the full ranking (hypothesis)."""
    q = cycle_query(4)
    full = _oracle(db, q)
    got = ranked_weights(rank_enumerate(db, q, k=k))
    assert got == full[: min(k, len(full))]


def test_rows_reordered_to_query_variables():
    db = random_graph_database(40, 8, seed=6)
    q = cycle_query(4)
    for row, _ in rank_enumerate(db, q, k=10):
        assert len(row) == 4  # x1..x4, in query order
    # Verify against generic join rows.
    expected_rows = set(generic_join(db, q).rows)
    for row, _ in rank_enumerate(db, q, k=10):
        assert row in expected_rows


def test_counters_flow_through():
    """Preprocessing is counted at the call, enumeration as it drains."""
    db = path_database(2, 10, 3, seed=7)
    c = Counters()
    stream = rank_enumerate(db, path_query(2), counters=c)
    preprocessing = c.total_work()
    assert preprocessing > 0
    results = list(stream)
    assert c.total_work() > preprocessing
    assert c.heap_ops > 0
    assert c.output_tuples == len(results) == len(generic_join(db, path_query(2)))


# ----------------------------------------------------------------------
# The compile seam
# ----------------------------------------------------------------------
def _distinct_fourcycle():
    """A 4-cycle over four distinct relations (copies of one graph)."""
    graph = random_graph_database(40, 8, seed=9)["E"]
    db = Database([graph.copy(f"S{i}") for i in range(4)])
    pairs = [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x1")]
    query = ConjunctiveQuery(
        [Atom(f"S{i}", pair) for i, pair in enumerate(pairs)], name="C4distinct"
    )
    return db, query


def _path_without_answers():
    full = path_database(2, 10, 3, seed=1)
    db = Database([full["R1"], Relation("R2", full["R2"].schema)])
    return db, path_query(2)


#: name -> (instance factory, shape kind).  The 4-cycle cases cover one
#: light tree, the hub graph's several heavy trees plus the light one,
#: atoms out of chain order, and four distinct relations; the GHD cases
#: a triangle and a 5-cycle, whose rewrite reorders the output columns.
SEAM_INPUTS = {
    "path": (lambda: (path_database(3, 30, 5, seed=1), path_query(3)), "acyclic"),
    "path_empty": (_path_without_answers, "acyclic"),
    "fourcycle": (
        lambda: (random_graph_database(60, 10, seed=5), cycle_query(4)),
        "4-cycle",
    ),
    "fourcycle_hub": (
        lambda: (fourcycle_hub_database(64, seed=2), cycle_query(4)),
        "4-cycle",
    ),
    "fourcycle_permuted": (
        lambda: (
            random_graph_database(60, 10, seed=5),
            ConjunctiveQuery(
                [
                    Atom("E", pair)
                    for pair in [("x1", "x2"), ("x3", "x4"), ("x2", "x3"), ("x4", "x1")]
                ]
            ),
        ),
        "4-cycle",
    ),
    "fourcycle_distinct": (_distinct_fourcycle, "4-cycle"),
    "triangle": (
        lambda: (random_graph_database(30, 8, seed=2), triangle_query(("E", "E", "E"))),
        "ghd",
    ),
    "fivecycle": (
        lambda: (random_graph_database(50, 9, seed=6), cycle_query(5)),
        "ghd",
    ),
}


@pytest.mark.parametrize("name", sorted(SEAM_INPUTS))
def test_query_shape_classifies_without_data(name):
    make, kind = SEAM_INPUTS[name]
    _, query = make()
    shape = query_shape(query)
    assert shape.kind == kind
    assert (shape.tree is not None) == (kind == "acyclic")
    assert (shape.pattern is not None) == (kind == "4-cycle")
    assert is_fourcycle(query) == (kind == "4-cycle")


@pytest.mark.parametrize("method", ["part:lazy", "rec"])
@pytest.mark.parametrize("name", sorted(SEAM_INPUTS))
def test_program_enumerates_every_answer_in_order(name, method):
    """Every shape's program yields the full join in ranked order, rows in
    the query's variable order.  A lone acyclic part hands its engine's
    stream through as it is; a 4-cycle has one part per union tree."""
    make, kind = SEAM_INPUTS[name]
    db, query = make()
    program = compile_program(db, query, SUM)
    assert program.shape.kind == kind
    if kind == "4-cycle":
        trees = fourcycle_union_of_trees(db, query)
        assert len(program.parts) == len(trees)
    else:
        assert len(program.parts) == 1
    stream = program.enumerate(method)
    if kind == "acyclic":
        assert program.parts[0][1] is None
        engine = anyk_rec if method == "rec" else anyk_part
        assert stream.gi_code is engine.__code__
    got = list(stream)
    weights = [w for _, w in got]
    assert weights == sorted(weights)
    expected = generic_join(db, query)
    assert multiset_of(got) == multiset_of(zip(expected.rows, expected.weights))


def _boolean_by_hand(db, query, kind, counters):
    if kind == "acyclic":
        return yannakakis_boolean(db, query, counters=counters)
    if kind == "4-cycle":
        return any(
            yannakakis_boolean(tree.database, tree.query, counters=counters)
            for tree in fourcycle_union_of_trees(db, query, counters=counters)
        )
    return generic_join_boolean(db, query, counters=counters)


@pytest.mark.parametrize("name", sorted(SEAM_INPUTS))
def test_has_any_result_reads_the_shape(name):
    """The Boolean query answers like the full join and takes its shape's
    strategy — semijoins, one semijoin pass per union tree, or
    Generic-Join — with exactly that strategy's counted work."""
    make, kind = SEAM_INPUTS[name]
    db, query = make()
    counted, by_hand = Counters(), Counters()
    answer = has_any_result(db, query, counters=counted)
    assert answer == _boolean_by_hand(db, query, kind, by_hand)
    assert answer == (len(generic_join(db, query)) > 0)
    assert counted.snapshot() == by_hand.snapshot()
    assert counted.total_work() > 0


@pytest.mark.parametrize("length", [4, 5])
def test_cyclic_refusals_raise_at_call(length):
    """Compilation is eager, so a refused cyclic query raises when
    rank_enumerate is called, not at the first pull — for the 4-cycle's
    union of trees and for the 5-cycle's GHD rewrite alike."""
    db = random_graph_database(20, 8, seed=1)
    with pytest.raises(TypeError):
        rank_enumerate(db, cycle_query(length), ranking=LEX)
    with pytest.raises(QueryError):
        rank_enumerate(db, cycle_query(length), method="lawler")
