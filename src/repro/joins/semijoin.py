"""Semijoins and the full reducer (§3).

Yannakakis' "secret of success": after a full-reducer pass — semijoin
reductions along the join tree, leaves-to-root then root-to-leaves — the
database is *globally consistent*: every tuple that survives participates in
at least one query answer, so no later join step can blow up on dangling
tuples.

The reduction itself is :func:`reduce_stages`: set-at-a-time and
index-based.  It works on the join tree serialized as :class:`Stage`\\ s
(:func:`stage_layout`, DFS pre-order over O(1) atom views) and computes per
stage the surviving *row ids* in two passes, with position-resolved join
keys and no intermediate relation.  Its three consumers differ only in
what they build from the ids: :func:`full_reducer` materializes relations
(Yannakakis joins them),
:class:`repro.factorized.frep.FactorizedRepresentation` buckets them in a
pass of its own (:meth:`Survivors.buckets`), and :class:`repro.anyk.tdp.TDP`
has the bottom-up pass fold its subtree weights and group its tuples by
key (``Survivors.groups``), a T-DP bucket being built on its first probe.

One key convention everywhere: a join key is what :func:`key_getter`
reads off a row — the *bare value* for a single join attribute, a tuple
for several, ``()`` for none.  The reducer's summaries and groups,
:meth:`Survivors.buckets`, ``TDP.buckets`` and the factorized unions are
all keyed by it, and ``Stage.parent_key`` is the resolver that reads a
stage's bucket key off a parent row, so no lookup allocates or re-wraps
a key and there is one dict per stage.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.data.database import Database
from repro.data.relation import Relation
from repro.joins.base import atom_relation
from repro.query.cq import ConjunctiveQuery
from repro.query.hypergraph import JoinTree, join_tree_or_raise
from repro.util.counters import Counters


def key_getter(positions: Sequence[int]) -> Callable[[tuple], Any]:
    """``row -> join key`` at ``positions``: the bare value for a single
    attribute (no tuple per lookup), a tuple otherwise, ``()`` for none."""
    if not positions:
        return lambda row: ()
    return operator.itemgetter(*positions)


def join_keys(positions: Sequence[int], rows: list[tuple]) -> list:
    """The join key (:func:`key_getter`) of every row at ``positions``."""
    if not positions:
        return [()] * len(rows)
    return list(map(key_getter(positions), rows))


def _pick(values: Optional[Sequence], keep: list[int]) -> Optional[list]:
    return None if values is None else [values[j] for j in keep]


def semijoin(
    left: Relation, right: Relation, counters: Optional[Counters] = None
) -> Relation:
    """left ⋉ right: keep left tuples with a join partner in right.

    The join condition is equality on shared attribute names.  With no
    shared attributes the semijoin only checks non-emptiness of ``right``
    (a degenerate cross-product guard), matching relational semantics.
    """
    shared = tuple(a for a in left.schema if a in right.schema)
    if not shared:
        return left.restrict(range(len(left)) if len(right) else ())
    right_keys = set(join_keys(right.positions(shared), right.rows))
    left_keys = join_keys(left.positions(shared), left.rows)
    if counters is not None:
        counters.tuples_read += len(right) + len(left)
        counters.hash_probes += len(left)
    return left.restrict(
        [i for i, key in enumerate(left_keys) if key in right_keys]
    )


# ----------------------------------------------------------------------
# The join tree as stages, and the index-based reducer over them
# ----------------------------------------------------------------------
@dataclass
class Stage:
    """One join-tree node in DFS pre-order (a T-DP stage)."""

    position: int
    atom_index: int
    relation: Relation
    parent: Optional[int]  # stage position of the parent
    #: positions (in this relation's schema) of the join vars with parent
    own_key_positions: tuple[int, ...]
    #: positions (in the parent relation's schema) of the same join vars
    parent_key_positions: tuple[int, ...]
    #: parent row -> key of this stage's bucket (:func:`key_getter` over
    #: ``parent_key_positions``), resolved once per stage
    parent_key: Callable[[tuple], Any]
    children: list[int] = field(default_factory=list)
    subtree_size: int = 1


def stage_layout(
    db: Database,
    query: ConjunctiveQuery,
    tree: JoinTree,
    counters: Optional[Counters] = None,
) -> list[Stage]:
    """DFS pre-order serialization of the join tree over the (unreduced)
    variable-schema relations of the atoms.

    An explicit stack, not a self-recursive closure: a closure that calls
    itself is a function <-> cell reference cycle, which would hold every
    stage (and ``db``, ``query``, ``counters``) until a full collection.
    """
    stages: list[Stage] = []
    pending: list[tuple[int, Optional[int]]] = [(tree.root, None)]
    while pending:
        atom_index, parent_position = pending.pop()
        relation = atom_relation(db, query, atom_index, counters=counters)
        own_key: tuple[int, ...] = ()
        parent_key: tuple[int, ...] = ()
        if parent_position is not None:
            parent_relation = stages[parent_position].relation
            join_vars = sorted(set(relation.schema) & set(parent_relation.schema))
            own_key = relation.positions(join_vars)
            parent_key = parent_relation.positions(join_vars)
            stages[parent_position].children.append(len(stages))
        position = len(stages)
        stages.append(
            Stage(
                position=position,
                atom_index=atom_index,
                relation=relation,
                parent=parent_position,
                own_key_positions=own_key,
                parent_key_positions=parent_key,
                parent_key=key_getter(parent_key),
            )
        )
        # Reversed, so the first child is popped (and numbered) first.
        pending.extend(
            (child_atom, position)
            for child_atom in reversed(tree.children[atom_index])
        )
    # Pre-order numbers every subtree contiguously after its root, so
    # children (higher positions) are complete before their parent.
    for stage in reversed(stages[1:]):
        stages[stage.parent].subtree_size += stage.subtree_size
    return stages


def output_writers(
    stages: list[Stage], variables: Sequence[str]
) -> list[list[tuple[int, int]]]:
    """Output assembly: per stage, the ``(schema position, output
    position)`` pairs of the variables first bound at that stage."""
    out_position = {v: i for i, v in enumerate(variables)}
    seen: set[str] = set()
    writers = []
    for stage in stages:
        fresh = [v for v in stage.relation.schema if v not in seen]
        seen.update(fresh)
        writers.append(
            [(stage.relation.schema.index(v), out_position[v]) for v in fresh]
        )
    return writers


class Survivors(NamedTuple):
    """What the reducer leaves of one stage (parallel lists, in relation
    order; list index = the dense tuple id of the reduced relation)."""

    ids: Sequence[int]  # row ids in the unreduced relation
    rows: list[tuple]
    keys: list  # join key with the parent (see join_keys)
    subtree: Optional[list]  # subtree weights, when lifted weights were given
    #: with ``subtree``: join key -> ``[minimum subtree weight, position
    #: of its first occurrence in the group, dense tuple ids in order]``
    groups: Optional[dict]

    def relation(self, source: Relation) -> Relation:
        """The reduced relation — ``source`` itself when nothing dangled."""
        if len(self.ids) == len(source):
            return source
        weights = source.weights
        return source.derive(self.rows, [weights[i] for i in self.ids])

    def buckets(self, counters: Optional[Counters] = None) -> dict[Any, list[int]]:
        """Dense tuple ids grouped by parent join key, keyed as ``keys``
        is (what ``Stage.parent_key`` reads off a parent row)."""
        if counters is not None:
            counters.tuples_read += len(self.keys)
        groups: dict = defaultdict(list)
        for tuple_id, key in enumerate(self.keys):
            groups[key].append(tuple_id)
        return dict(groups)


def reduce_stages(
    stages: list[Stage],
    counters: Optional[Counters] = None,
    lifted: Optional[list[list]] = None,
    combine: Optional[Callable[[Any, Any], Any]] = None,
) -> list[Survivors]:
    """The full reducer on row ids: two passes, O(1) touches per tuple.

    Bottom-up (children before parents), a stage keeps the rows that find
    a surviving join partner in every child; top-down, the rows whose key
    a surviving parent row carries.  Each pass is a handful of
    comprehensions per tree edge over position-resolved keys.

    With ``lifted`` (per stage, weights parallel to the unreduced rows)
    the bottom-up pass is the T-DP's: what a row looks up per child is
    that child bucket's *minimum subtree weight*, folded with ``combine``
    in ``stage.children`` order — a row with no child bucket *is* a
    dangling row, so the semijoin costs nothing extra.  The top-down pass
    drops whole buckets only, so subtree weights and bucket minima stand.
    The visit that finds a key's minimum records the key's group (its
    tuple ids and where the minimum sits); top-down, kept ids renumber.
    """
    reads = probes = 0
    #: per stage: parent join key -> bucket minimum (True when unweighted)
    summary: list[dict] = [{} for _ in stages]
    alive: list[Any] = [None] * len(stages)
    for stage in reversed(stages):
        rows = stage.relation.rows
        ids: Sequence[int] = range(len(rows))
        weights = lifted[stage.position] if lifted is not None else None
        reads += len(rows)
        for child in stage.children:
            keys = join_keys(stages[child].parent_key_positions, rows)
            found = list(map(summary[child].get, keys))
            probes += len(found)
            if None in found:
                keep = [j for j, best in enumerate(found) if best is not None]
                ids, rows, found, weights = (
                    _pick(values, keep) for values in (ids, rows, found, weights)
                )
            if weights is not None:
                weights = list(map(combine, weights, found))
        keys = join_keys(stage.own_key_positions, rows)
        groups = None
        if weights is None:
            summary[stage.position] = dict.fromkeys(keys, True)
        else:
            groups = {}
            for tuple_id, key, weight in zip(count(), keys, weights):
                group = groups.get(key)
                if group is None:
                    groups[key] = [weight, 0, [tuple_id]]
                else:
                    if weight < group[0]:
                        group[0], group[1] = weight, len(group[2])
                    group[2].append(tuple_id)
            summary[stage.position] = {key: low for key, (low, _, _) in groups.items()}
        alive[stage.position] = Survivors(ids, rows, keys, weights, groups)

    for stage in stages[1:]:
        parent_rows = alive[stage.parent].rows
        parent_keys = set(join_keys(stage.parent_key_positions, parent_rows))
        reads += len(parent_rows)
        # Every surviving parent row found its bucket here bottom-up, so
        # the parent's keys are a subset of this stage's bucket keys.
        if len(parent_keys) == len(summary[stage.position]):
            continue
        *columns, groups = alive[stage.position]
        keys = columns[2]
        reads += len(keys)
        probes += len(keys)
        keep = [j for j, key in enumerate(keys) if key in parent_keys]
        if groups is not None:
            renumber = dict(zip(keep, count()))
            groups = {
                key: [low, best, [renumber[j] for j in group]]
                for key, (low, best, group) in groups.items()
                if key in parent_keys
            }
        alive[stage.position] = Survivors(
            *(_pick(values, keep) for values in columns), groups
        )
    if counters is not None:
        counters.tuples_read += reads
        counters.hash_probes += probes
    return alive


def full_reducer(
    db: Database,
    query: ConjunctiveQuery,
    tree: Optional[JoinTree] = None,
    counters: Optional[Counters] = None,
) -> dict[int, Relation]:
    """The reduced relations keyed by atom index (fresh row lists).

    Leaves-to-root, each parent loses the tuples with no extension below;
    root-to-leaves, each child those with no extension above.  Afterwards
    the database is globally consistent.
    """
    query.validate(db)
    if tree is None:
        tree = join_tree_or_raise(query)
    stages = stage_layout(db, query, tree, counters=counters)
    survivors = reduce_stages(stages, counters)
    return {
        stage.atom_index: stage.relation.restrict(alive.ids)
        for stage, alive in sorted(
            zip(stages, survivors), key=lambda pair: pair[0].atom_index
        )
    }


def is_globally_consistent(
    relations: dict[int, Relation], tree: JoinTree
) -> bool:
    """Test oracle: every relation is already semijoin-reduced w.r.t. every
    tree neighbour (the fixpoint the full reducer guarantees)."""
    for node, parent in tree.parent.items():
        if parent is None:
            continue
        for a, b in ((node, parent), (parent, node)):
            reduced = semijoin(relations[a], relations[b])
            if len(reduced) != len(relations[a]):
                return False
    return True
