"""Executable versions of the tutorial's headline claims.

Each test pins one sentence of the paper to a concrete, fast check; the
benchmark harness (EXPERIMENTS.md) measures the full series, these tests
guard the claims' validity at unit scale.
"""

import math

import pytest

from repro.anyk.api import has_any_result, rank_enumerate
from repro.data.generators import (
    fourcycle_hub_database,
    random_graph_database,
    triangle_worstcase_database,
)
from repro.joins.binary_plan import best_left_deep
from repro.joins.generic_join import evaluate as generic_join
from repro.joins.heavylight import fourcycle_union_of_trees
from repro.query.agm import agm_bound, fractional_cover_number
from repro.query.cq import cycle_query, triangle_query
from repro.query.decomposition import best_decomposition
from repro.query.hypergraph import is_acyclic
from repro.util.counters import Counters


def test_claim_triangle_output_bounded_by_n_to_1_5():
    """§3: 'the AGM bound shows that final output size cannot exceed
    n^1.5' — and ρ*(triangle) = 3/2."""
    assert fractional_cover_number(triangle_query()) == pytest.approx(1.5)
    db = triangle_worstcase_database(60)
    n = len(db["R"])
    assert agm_bound(db, triangle_query()) == pytest.approx(n**1.5, rel=1e-9)
    assert len(generic_join(db, triangle_query())) <= n**1.5


def test_claim_no_binary_plan_escapes_the_triangle_blowup():
    """§3: 'No matter the join order for a binary join plan, the first
    binary join produces O(n²) intermediate results.'"""
    n = 30
    db = triangle_worstcase_database(n)
    _, best_cost = best_left_deep(db, triangle_query())
    assert best_cost >= (n // 2 - 1) ** 2


def test_claim_fourcycle_worst_case_output_is_quadratic():
    """§1: 'In a graph with n edges, there can be O(n²) 4-cycles' — and
    the hub instance realizes Θ(n²)."""
    db = fourcycle_hub_database(64, seed=1)
    n = len(db["E"])
    out = generic_join(db, cycle_query(4))
    assert len(out) >= (n / 8) ** 2


def test_claim_fourcycle_single_tree_width_2_union_reaches_1_5():
    """§3: fractional hypertree width of the 4-cycle is 2 (single tree),
    'In contrast, submodular width is 1.5' — realized by the union of
    trees, whose total materialization stays within O(n^1.5)."""
    td = best_decomposition(cycle_query(4))
    assert td.fractional_hypertree_width() == pytest.approx(2.0)

    db = random_graph_database(400, 51, seed=9)
    n = len(db["E"])
    trees = fourcycle_union_of_trees(db, cycle_query(4))
    derived = sum(len(rel) for tree in trees for rel in tree.database)
    # Up to 4 copies of base relations per tree plus wedges: c · n^1.5.
    assert derived <= 10 * n**1.5
    for tree in trees:
        assert is_acyclic(tree.query)


def test_claim_boolean_fourcycle_subquadratic():
    """§1: 'the corresponding Boolean query can be answered in O(n^1.5)'
    — detection work grows strictly slower than full enumeration."""
    work = {}
    for n in (200, 800):
        db = random_graph_database(n, max(8, int((8 * n) ** 0.5)), seed=13)
        c_bool, c_full = Counters(), Counters()
        has_any_result(db, cycle_query(4), counters=c_bool)
        generic_join(db, cycle_query(4), counters=c_full)
        work[n] = (c_bool.total_work(), c_full.total_work())
    bool_growth = work[800][0] / work[200][0]
    full_growth = work[800][1] / work[200][1]
    assert bool_growth < full_growth


def test_claim_topk_cost_close_to_boolean():
    """§1: 'for small k, finding the k lightest cycles will have
    complexity close to the Boolean query ... this turns out to be
    correct' — top-10 work within a constant of detection work."""
    db = random_graph_database(800, int((8 * 800) ** 0.5), seed=17)
    c_topk, c_bool = Counters(), Counters()
    list(rank_enumerate(db, cycle_query(4), k=10, counters=c_topk))
    has_any_result(db, cycle_query(4), counters=c_bool)
    assert c_topk.total_work() < 5 * c_bool.total_work()


def test_claim_anyk_first_result_needs_no_full_output():
    """§4: a ranked-enumeration algorithm 'must return query results
    one-by-one in ranking order without knowing k in advance' — and the
    first result must not cost the full output."""
    from repro.data.generators import path_database
    from repro.query.cq import path_query

    db = path_database(4, 200, 10, seed=19)
    q = path_query(4)
    c_first, c_all = Counters(), Counters()
    next(iter(rank_enumerate(db, q, counters=c_first)))
    total = sum(1 for _ in rank_enumerate(db, q, counters=c_all))
    assert total > 1000
    assert c_first.total_work() < c_all.total_work() / 10


def test_claim_delay_logarithmic_not_polynomial():
    """§4: 'by exploiting the inherent structure of the join problem, the
    delay can be reduced to O(log k)' — per-result work must not scale
    with input size (contrast: the naive Lawler baseline does; E10)."""
    from repro.data.generators import path_database
    from repro.query.cq import path_query

    per_result = {}
    for n in (100, 400):
        db = path_database(3, n, n // 10, seed=23)
        c = Counters()
        stream = rank_enumerate(db, path_query(3), counters=c)
        next(stream)
        start = c.total_work()
        for count, _ in enumerate(stream, start=2):
            if count >= 100:
                break
        per_result[n] = (c.total_work() - start) / 99
    assert per_result[400] < 2.5 * per_result[100]
