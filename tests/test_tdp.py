"""Tests for the T-DP construction (stages, buckets, priorities)."""

import pytest

from repro.anyk.ranking import LEX, MAX, SUM
from repro.anyk.tdp import TDP
from repro.data.database import Database
from repro.data.generators import path_database, star_database
from repro.data.relation import Relation
from repro.joins.naive import evaluate as naive_join
from repro.query.cq import QueryError, path_query, star_query, triangle_query


def _tiny_path_db():
    return Database(
        [
            Relation("R1", ("A1", "A2"), [(0, 1), (2, 1), (0, 3)], [0.1, 0.2, 0.3]),
            Relation("R2", ("A2", "A3"), [(1, 5), (1, 6), (3, 7)], [0.4, 0.05, 0.6]),
        ]
    )


def test_stages_are_dfs_preorder():
    db = star_database(3, 10, 3, seed=1)
    tdp = TDP(db, star_query(3))
    assert tdp.stages[0].parent is None
    for stage in tdp.stages[1:]:
        assert stage.parent is not None
        assert stage.parent < stage.position  # pre-order property
    # Subtree sizes sum correctly at the root.
    assert tdp.stages[0].subtree_size == tdp.num_stages


def test_cyclic_query_rejected():
    db = Database(
        [
            Relation("R", ("A", "B"), [(1, 2)]),
            Relation("S", ("B", "C"), [(2, 3)]),
            Relation("T", ("C", "A"), [(3, 1)]),
        ]
    )
    with pytest.raises(QueryError, match="cyclic"):
        TDP(db, triangle_query())


def test_bucket_minima_and_subtree_weights():
    tdp = TDP(_tiny_path_db(), path_query(2))
    root = tdp.root_bucket()
    # Best full solution: R1(0,1)=0.1 with R2(1,6)=0.05 → 0.15.
    assert root.best_weight == pytest.approx(0.15)


def test_prefix_priority_matches_solution_weight():
    tdp = TDP(_tiny_path_db(), path_query(2))
    root = tdp.root_bucket()
    for position in range(len(root)):
        choices = tdp.expand_best([root.tuple_ids[position]])
        assert tdp.prefix_priority(
            choices[:1]
        ) <= tdp.solution_weight(choices) + 1e-12
        # A full prefix's priority equals its exact weight.
        assert tdp.prefix_priority(choices) == pytest.approx(
            tdp.solution_weight(choices)
        )


def test_expand_best_produces_global_optimum():
    tdp = TDP(_tiny_path_db(), path_query(2))
    root = tdp.root_bucket()
    best = tdp.expand_best([root.best_tuple])
    assert tdp.solution_weight(best) == pytest.approx(0.15)


def test_solution_row_assembles_all_variables():
    tdp = TDP(_tiny_path_db(), path_query(2))
    best = tdp.expand_best([tdp.root_bucket().best_tuple])
    row = tdp.solution_row(best)
    assert row == (0, 1, 6)  # (A1, A2, A3) of the lightest path


def test_is_empty_on_dangling_database():
    db = Database(
        [
            Relation("R1", ("A1", "A2"), [(0, 1)]),
            Relation("R2", ("A2", "A3"), [(9, 9)]),
        ]
    )
    assert TDP(db, path_query(2)).is_empty()


def test_empty_relation_gives_empty_tdp():
    db = Database(
        [Relation("R1", ("A1", "A2")), Relation("R2", ("A2", "A3"), [(1, 2)])]
    )
    assert TDP(db, path_query(2)).is_empty()


def test_solution_weight_requires_full_assignment():
    tdp = TDP(_tiny_path_db(), path_query(2))
    with pytest.raises(ValueError):
        tdp.solution_weight([0])


def test_max_ranking_bucket_minima():
    tdp = TDP(_tiny_path_db(), path_query(2), ranking=MAX)
    # Bottleneck-best: R1(0,1)=0.1 with R2(1,6)=0.05 → max = 0.1.
    assert tdp.root_bucket().best_weight == pytest.approx(0.1)


def test_lex_ranking_carrier_is_tuple():
    tdp = TDP(_tiny_path_db(), path_query(2), ranking=LEX)
    best = tdp.root_bucket().best_weight
    # One coordinate per stage (DFS join-tree order, an implementation
    # detail); the lex-minimal solution combines weights 0.05 and 0.1.
    assert isinstance(best, tuple) and len(best) == 2
    assert sorted(best) == [0.05, 0.1]


def test_total_tuples_counts_survivors():
    db = _tiny_path_db()
    tdp = TDP(db, path_query(2))
    # R1(2,1), R1(0,3) join partners: (2,1)→(1,*) survives; (0,3)→(3,7)
    # survives; everything here survives reduction.
    assert tdp.total_tuples() == 6


def test_buckets_keyed_by_parent_join_value():
    tdp = TDP(_tiny_path_db(), path_query(2))
    child_position = 1
    keys = set(tdp.buckets[child_position].keys())
    assert keys == {1, 3}  # bare values: one join attribute
