"""The index-based reducer against its oracle.

:func:`repro.joins.semijoin.reduce_stages` replaced the ``semijoin``-
composed full reducer and the T-DP's separate bottom-up pass.  The old
tuple-at-a-time code is kept *here*, as the reference: on the 50 seeded
random acyclic CQs of the differential suite and on hand-built corner
cases, the reducer's surviving ids, the T-DP's buckets (ids, subtree
weights, first-minimum positions) and the ranked streams of every engine
must match it exactly — same rows, same floats, same tie order.
"""

from __future__ import annotations

import pytest

from repro.anyk.api import rank_enumerate
from repro.anyk.ranking import ALL_RANKINGS, LEX, PRODUCT, solution_tie_key
from repro.anyk.tdp import TDP
from repro.data.database import Database
from repro.data.relation import Relation
from repro.factorized.frep import FactorizedRepresentation
from repro.joins.naive import evaluate as naive_join
from repro.joins.semijoin import (
    full_reducer,
    is_globally_consistent,
    reduce_stages,
    stage_layout,
)
from repro.query.cq import Atom, ConjunctiveQuery
from repro.query.hypergraph import join_tree_or_raise

from test_differential import NUM_INSTANCES, _positive_weights, random_acyclic_instance


# ----------------------------------------------------------------------
# The reference: the pre-reducer code, row by row
# ----------------------------------------------------------------------
def reference_atom_rows(db, query, atom_index):
    """(schema, [(row, weight)]) of one atom, repeated variables enforced."""
    atom = query.atoms[atom_index]
    schema = tuple(dict.fromkeys(atom.variables))
    first = {v: atom.variables.index(v) for v in schema}
    source = db[atom.relation]
    pairs = [
        (tuple(row[first[v]] for v in schema), weight)
        for row, weight in zip(source.rows, source.weights)
        if all(row[p] == row[first[v]] for p, v in enumerate(atom.variables))
    ]
    return schema, pairs


def reference_semijoin(left, right):
    (left_schema, left_pairs), (right_schema, right_pairs) = left, right
    shared = [a for a in left_schema if a in right_schema]
    keys = {
        tuple(row[right_schema.index(a)] for a in shared) for row, _ in right_pairs
    }
    return left_schema, [
        (row, weight)
        for row, weight in left_pairs
        if tuple(row[left_schema.index(a)] for a in shared) in keys
    ]


def reference_full_reducer(db, query, tree):
    relations = {
        i: reference_atom_rows(db, query, i) for i in range(len(query.atoms))
    }
    for node in reversed(tree.order):
        for child in tree.children[node]:
            relations[node] = reference_semijoin(relations[node], relations[child])
    for node in tree.order:
        for child in tree.children[node]:
            relations[child] = reference_semijoin(relations[child], relations[node])
    return relations


def reference_buckets(tdp: TDP, reduced) -> list[dict]:
    """The old ``TDP._compute_bottom_up`` over the reference relations:
    per stage ``{key: (tuple_ids, subtree_weights, best_position)}``."""
    lift, combine = tdp.ranking.lift, tdp.ranking.combine
    buckets: list[dict] = [{} for _ in tdp.stages]
    for stage in reversed(tdp.stages):
        for tuple_id, (row, weight) in enumerate(reduced[stage.atom_index][1]):
            subtree = lift(weight)
            for child in stage.children:
                key = tuple(row[p] for p in tdp.stages[child].parent_key_positions)
                ids, weights, best = buckets[child][key]
                subtree = combine(subtree, weights[best])
            key = tuple(row[p] for p in stage.own_key_positions)
            ids, weights, _ = buckets[stage.position].setdefault(key, ([], [], 0))
            ids.append(tuple_id)
            weights.append(subtree)
        for key, (ids, weights, _) in buckets[stage.position].items():
            best = 0
            for i in range(1, len(weights)):
                if weights[i] < weights[best]:
                    best = i
            buckets[stage.position][key] = (ids, weights, best)
    return buckets


def oracle_key(stage, key):
    """A reducer bucket key as the reference spells it: the reference keys
    every bucket by a tuple, the reducer by the bare value when the stage
    joins its parent on a single attribute."""
    return (key,) if len(stage.own_key_positions) == 1 else key


def check_against_reference(db, query):
    tree = join_tree_or_raise(query)
    reference = reference_full_reducer(db, query, tree)

    # -- the ids, and the relations full_reducer materializes from them --
    stages = stage_layout(db, query, tree)
    for stage, alive in zip(stages, reduce_stages(stages)):
        _, pairs = reference[stage.atom_index]
        source = stage.relation
        assert list(alive.ids) == sorted(set(alive.ids))
        assert [(source.rows[i], source.weights[i]) for i in alive.ids] == pairs
        assert alive.rows == [row for row, _ in pairs]
        assert alive.subtree is None
    reduced = full_reducer(db, query, tree=tree)
    assert list(reduced) == list(range(len(query.atoms)))
    for atom_index, (schema, pairs) in reference.items():
        relation = reduced[atom_index]
        assert relation.schema == schema
        assert list(zip(relation.rows, relation.weights)) == pairs
        assert relation.rows is not db[query.atoms[atom_index].relation].rows
    assert is_globally_consistent(reduced, tree)

    # -- the factorized representation's unions ---------------------------
    frep = FactorizedRepresentation(db, query, tree=tree)
    assert frep.size() == sum(len(pairs) for _, pairs in reference.values())

    # -- the T-DP, bit for bit, under every ranking -----------------------
    for ranking in ALL_RANKINGS:
        instance = _positive_weights(db) if ranking is PRODUCT else db
        expected = reference_full_reducer(instance, query, tree)
        tdp = TDP(instance, query, ranking=ranking, tree=tree)
        assert tdp.total_tuples() == sum(len(p) for _, p in expected.values())
        for stage, lifted in zip(tdp.stages, tdp.lifted):
            _, pairs = expected[stage.atom_index]
            assert list(zip(stage.relation.rows, stage.relation.weights)) == pairs
            assert lifted == [ranking.lift(w) for _, w in pairs]
        # Every recorded key, forced through the lazy dict's subscript.
        got = [
            {
                oracle_key(stage, key): (
                    stage_buckets[key].tuple_ids,
                    stage_buckets[key].subtree_weights,
                    stage_buckets[key].best_position,
                )
                for key in stage_buckets.groups
            }
            for stage, stage_buckets in zip(tdp.stages, tdp.buckets)
        ]
        for stage_buckets in tdp.buckets:
            assert list(stage_buckets) == list(stage_buckets.groups)
            for bucket in stage_buckets.values():
                position = bucket.best_position
                assert bucket.best_weight is bucket.subtree_weights[position]
                assert bucket.best_tuple == bucket.tuple_ids[position]
        wanted = reference_buckets(tdp, expected)
        assert got == wanted
        # bucket order too: first appearance in relation order
        assert [list(b) for b in got] == [list(b) for b in wanted]
        assert [
            {oracle_key(stage, key): list(ids) for key, ids in stage_buckets.items()}
            for stage, stage_buckets in zip(frep.stages, frep.buckets)
        ] == [{key: b[0] for key, b in stage.items()} for stage in got]

        # -- and the streams every engine draws from it -------------------
        streams = {
            (method, kernels): list(
                rank_enumerate(
                    instance, query, ranking=ranking, method=method,
                    compile_kernels=kernels,
                )
            )
            for method in ("part:lazy", "rec")
            for kernels in (True, False)
        }
        for method in ("part:lazy", "rec"):
            assert streams[method, True] == streams[method, False]
        if ranking is PRODUCT:
            continue  # log-space folds differ across engines in the last ulp
        first = streams["part:lazy", False]
        assert streams["rec", False] == first
        if ranking is LEX:
            continue  # LEX has no pre-combined form: no batch, no flat join
        assert first == list(
            rank_enumerate(instance, query, ranking=ranking, method="batch")
        )
        flat = naive_join(instance, query, combine=ranking.float_combine())
        assert first == sorted(
            zip(flat.rows, flat.weights),
            key=lambda pair: (pair[1], solution_tie_key(pair[0])),
        )


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(NUM_INSTANCES))
def test_reducer_matches_reference_on_random_acyclic_queries(seed):
    db, query, _ = random_acyclic_instance(seed)
    check_against_reference(db, query)


def _relation(name, schema, rows):
    """Rows with grid weights (i/8) so every fold order is exact."""
    return Relation(name, schema, rows, [((7 * i) % 11) / 8 for i in range(len(rows))])


EDGES = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 1), (3, 4), (4, 4), (5, 6), (2, 1)]

HAND_CASES = {
    "repeated-variable atom E(x,x)": (
        [_relation("E", ("s", "d"), EDGES)],
        [Atom("E", ("x", "x")), Atom("E", ("x", "y"))],
    ),
    "self-join path": (
        [_relation("E", ("s", "d"), EDGES)],
        [Atom("E", ("a", "b")), Atom("E", ("b", "c")), Atom("E", ("c", "d"))],
    ),
    "dangling on both passes": (
        # R2's (9, 9) has no partner below (bottom-up); R3's (7, 0) joins
        # nothing above it, R1's (0, 8) nothing below (top-down through R2).
        [
            _relation("R1", ("a", "b"), [(0, 1), (0, 8), (1, 1), (2, 2)]),
            _relation("R2", ("b", "c"), [(1, 5), (2, 6), (9, 9), (1, 6)]),
            _relation("R3", ("c", "d"), [(5, 0), (6, 0), (7, 0), (5, 1)]),
        ],
        [Atom("R1", ("a", "b")), Atom("R2", ("b", "c")), Atom("R3", ("c", "d"))],
    ),
    "empty result": (
        [
            _relation("R1", ("a", "b"), [(0, 1), (1, 2)]),
            _relation("R2", ("b", "c"), [(3, 4), (5, 6)]),
        ],
        [Atom("R1", ("a", "b")), Atom("R2", ("b", "c"))],
    ),
    "empty relation": (
        [
            _relation("R1", ("a", "b"), [(0, 1), (1, 2)]),
            _relation("R2", ("b", "c"), []),
        ],
        [Atom("R1", ("a", "b")), Atom("R2", ("b", "c"))],
    ),
    "atoms sharing no variable": (
        [
            _relation("R1", ("a",), [(0,), (1,), (2,)]),
            _relation("R2", ("b",), [(5,), (6,)]),
        ],
        [Atom("R1", ("a",)), Atom("R2", ("b",))],
    ),
    "no shared variable, one side empty": (
        [_relation("R1", ("a",), [(0,), (1,)]), _relation("R2", ("b",), [])],
        [Atom("R1", ("a",)), Atom("R2", ("b",))],
    ),
    "multi-attribute keys": (
        [
            _relation("R1", ("a", "b", "c"), [(0, 1, 2), (0, 1, 3), (1, 1, 2), (2, 2, 2)]),
            _relation("R2", ("b", "c", "d"), [(1, 2, 0), (1, 2, 1), (2, 2, 5), (1, 4, 0)]),
        ],
        [Atom("R1", ("a", "b", "c")), Atom("R2", ("c", "b", "d"))],
    ),
    "3-child star": (
        [
            _relation("C", ("x", "y", "z"), [(0, 0, 0), (0, 1, 0), (1, 1, 1), (2, 0, 1)]),
            _relation("A1", ("x", "p"), [(0, 1), (0, 2), (1, 3)]),
            _relation("A2", ("y", "q"), [(0, 1), (1, 2), (1, 3), (3, 3)]),
            _relation("A3", ("z", "r"), [(0, 5), (0, 6), (1, 7)]),
        ],
        [
            Atom("C", ("x", "y", "z")),
            Atom("A1", ("x", "p")),
            Atom("A2", ("y", "q")),
            Atom("A3", ("z", "r")),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(HAND_CASES))
def test_reducer_matches_reference_on_hand_cases(case):
    relations, atoms = HAND_CASES[case]
    check_against_reference(Database(relations), ConjunctiveQuery(atoms, name="Q"))


def test_dangling_case_really_prunes_on_both_passes():
    relations, atoms = HAND_CASES["dangling on both passes"]
    db, query = Database(relations), ConjunctiveQuery(atoms)
    stages = stage_layout(db, query, join_tree_or_raise(query))
    survivors = {
        stage.relation.name: list(alive.ids)
        for stage, alive in zip(stages, reduce_stages(stages))
    }
    assert survivors == {"R1#0": [0, 2, 3], "R2#1": [0, 1, 3], "R3#2": [0, 1, 3]}


def test_unreduced_stages_are_views_and_reduction_shares_untouched_relations():
    """Where nothing dangles the T-DP's stage relation *is* the O(1) atom
    view (base row list, no copy), and SUM's lifted weights are the stored
    weights themselves."""
    relations, atoms = HAND_CASES["self-join path"]
    db = Database(relations)
    query = ConjunctiveQuery([Atom("E", ("a", "b"))])
    tdp = TDP(db, query)
    assert tdp.stages[0].relation.rows is db["E"].rows
    assert tdp.lifted[0] is db["E"].weights
    assert LEX.lift is not float and TDP(db, query, ranking=LEX).lifted[0] == [
        (w,) for w in db["E"].weights
    ]
    pruned = TDP(db, ConjunctiveQuery(atoms))
    assert all(
        stage.relation.rows is not db["E"].rows for stage in pruned.stages
    )  # (5, 6) dangles in every atom
