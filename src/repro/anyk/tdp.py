"""Tree-based dynamic programming over a join tree (tutorial Part 3).

The companion paper's central construction: after a full-reducer pass, an
acyclic full conjunctive query becomes a *non-serial dynamic program* whose
stages are the join-tree nodes (here serialized in DFS pre-order), whose
states are the surviving input tuples, and whose solutions — one tuple per
stage, consistent along tree edges — are exactly the query answers.

Key objects:

- :class:`Stage` — one join-tree node: its reduced relation, the join-key
  positions linking it to its parent, and its DFS subtree extent (defined
  next to the reducer, :mod:`repro.joins.semijoin`).
- :class:`Bucket` — the tuples of a stage sharing one parent join-key
  value, with their *subtree weights* (the tuple's lifted weight ⊗ the best
  achievable completion of its whole subtree) and the bucket minimum
  (weight and tuple, stored).  Buckets are the unit on which the ANYK-PART
  successor strategies operate.
- :class:`TDP` — builds stages in O(n) inside the reducer's two passes
  (:func:`repro.joins.semijoin.reduce_stages` folds the subtree weights
  and groups the tuples by key bottom-up while it drops dangling tuples),
  and provides the weight/row algebra shared by ANYK-PART and ANYK-REC:
  canonical solution weights fold in DFS pre-order, so partial (prefix)
  priorities and full solution weights are always comparable — this is
  what makes non-float rankings such as LEX safe on trees.

``TDP.buckets`` is one lazy :class:`Buckets` dict per stage, keyed by the
reducer's join key (:func:`repro.joins.semijoin.key_getter`: the bare value
for a single join attribute, a tuple otherwise, ``()`` at the root): only
a subscript builds a bucket, from the reducer's group of its key (``get``,
``in``, ``len`` and iteration see the built ones), and
``TDP.resolvers`` holds per stage what finding a bucket from a chosen
parent tuple takes — parent position, parent rows, ``Stage.parent_key``
and that dict — so the enumeration loops resolve a bucket lazily with two
index operations, one C-level key read and one dict probe.

A *solution prefix* is a choice of tuples for stages ``0..L-1`` (DFS order
guarantees each stage's parent is chosen before it).  Its *priority* — the
exact weight of the best full solution extending it — folds assigned lifts
and, for each frontier subtree, the corresponding bucket minimum.
:meth:`TDP.prefix_priority`, :meth:`TDP.expand_best` and
:meth:`TDP.bucket_for` spell that definition out one prefix at a time; they
are the *reference* accessors (tests, the naive-Lawler strawman) — the
any-k loops carry prefix weights and walked buckets instead of calling them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.data.database import Database
from repro.anyk.ranking import RankingFunction, SUM
from repro.joins.semijoin import (
    Stage,
    output_writers,
    reduce_stages,
    stage_layout,
)
from repro.obs.memory import tdp_bucket_bytes, tdp_tuple_bytes, tracker_of
from repro.query.cq import ConjunctiveQuery
from repro.query.hypergraph import JoinTree, join_tree_or_raise
from repro.util.counters import Counters


@dataclass(slots=True)
class Bucket:
    """Tuples of one stage sharing a parent join-key value.

    ``tuple_ids`` index into the stage relation; ``subtree_weights`` is
    parallel.  ``best_position`` points at the (first) minimum, whose
    weight and tuple id are stored as ``best_weight`` / ``best_tuple``
    (the loops read them once per walked stage).
    ``structure`` is a per-strategy successor structure attached lazily by
    ANYK-PART; ``stream`` is the memoized solution stream attached lazily
    by ANYK-REC.
    """

    tuple_ids: list[int]
    subtree_weights: list[Any]
    best_position: int
    best_weight: Any
    best_tuple: int
    structure: Any = None
    stream: Any = None

    def __len__(self) -> int:
        return len(self.tuple_ids)


class Buckets(dict):
    """Parent join key -> :class:`Bucket`, built on the key's first
    subscript from the reducer's ``groups`` (``Survivors.groups``, every
    key); ``get``, ``in``, ``len`` and iteration build no bucket."""

    __slots__ = ("groups", "subtree")

    def __init__(self, groups: dict, subtree: list) -> None:
        self.groups, self.subtree = groups, subtree

    def __missing__(self, key: Any) -> Bucket:
        best, position, ids = self.groups[key]
        subtree = self.subtree
        # A lone tuple's subtree weight is the minimum: no lookup to copy.
        weights = [subtree[i] for i in ids] if len(ids) > 1 else [best]
        self[key] = bucket = Bucket(ids, weights, position, best, ids[position])
        return bucket


class TDP:
    """The compiled dynamic program for one acyclic full CQ.

    Construction performs the full-reducer pass and the bottom-up subtree-
    weight computation — one fused pass, O~(n) total — after which every
    any-k algorithm enumerates without touching the base database again.
    Weights are lifted before the reduction, so a ranking's domain check
    (PRODUCT: strictly positive weights) covers dangling tuples too.
    """

    def __init__(
        self,
        db: Database,
        query: ConjunctiveQuery,
        ranking: RankingFunction = SUM,
        tree: Optional[JoinTree] = None,
        counters: Optional[Counters] = None,
    ) -> None:
        query.validate(db)
        self.query = query
        self.ranking = ranking
        self.counters = counters
        self.tree = tree if tree is not None else join_tree_or_raise(query)
        self.stages: list[Stage] = stage_layout(
            db, query, self.tree, counters=counters
        )
        self.num_stages = len(self.stages)

        # One reducer run leaves, per stage, the surviving tuples with
        # their subtree weights; what remains is to bucket them.  A lift
        # that is ``float`` is the identity on stored weights, so those
        # rankings share the relations' weight lists.
        lift = ranking.lift
        lifted = [
            stage.relation.weights
            if lift is float
            else list(map(lift, stage.relation.weights))
            for stage in self.stages
        ]
        survivors = reduce_stages(
            self.stages, counters, lifted, ranking.combine
        )
        #: Lifted tuple weights per stage (parallel to relation rows).
        self.lifted: list[list[Any]] = []
        #: per stage: parent join key (``Stage.parent_key``) -> Bucket
        self.buckets: list[Buckets] = []
        for stage, alive, weights in zip(self.stages, survivors, lifted):
            if len(alive.ids) != len(weights):
                weights = [weights[i] for i in alive.ids]
            self.lifted.append(weights)
            stage.relation = alive.relation(stage.relation)
            self.buckets.append(Buckets(alive.groups, alive.subtree))
        #: per non-root stage ``(parent position, parent rows, parent row
        #: -> key, bucket dict)``: the stage's bucket for a solution is
        #: ``buckets[key(rows[solution[parent]])]``
        self.resolvers: list[Optional[tuple]] = [None] + [
            (
                stage.parent,
                self.stages[stage.parent].relation.rows,
                stage.parent_key,
                self.buckets[stage.position],
            )
            for stage in self.stages[1:]
        ]
        num_buckets = sum(len(stage.groups) for stage in self.buckets)
        if counters is not None:
            # One comparison per non-first tuple of a bucket for its minimum.
            counters.comparisons += self.total_tuples() - num_buckets

        self._writers = output_writers(self.stages, query.variables)

        # Static footprint: the compiled program holds every surviving
        # tuple's bucket/weight state for its whole lifetime, so account
        # for it once here rather than on any hot path.
        space = tracker_of(counters)
        if space is not None:
            space.gauge("tdp.tuples", tdp_tuple_bytes()).add(
                self.total_tuples()
            )
            space.gauge("tdp.buckets", tdp_bucket_bytes()).add(num_buckets)

    # ------------------------------------------------------------------
    # Accessors used by the enumeration algorithms
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """True iff the query has no answers (no root bucket)."""
        return () not in self.buckets[0].groups

    def root_bucket(self) -> Optional[Bucket]:
        """The single bucket of the root stage (key ``()``), or None."""
        return None if self.is_empty() else self.buckets[0][()]

    def bucket_for(self, position: int, choices: Sequence[int]) -> Bucket:
        """The stage's bucket selected by the parent's chosen tuple.

        ``choices[stage.parent]`` must be assigned.  After the full
        reducer, the bucket always exists.
        """
        if position == 0:
            return self.buckets[0][()]
        parent, rows, key_of, buckets = self.resolvers[position]
        return buckets[key_of(rows[choices[parent]])]

    def prefix_priority(self, choices: Sequence[int]) -> Any:
        """Exact weight of the best full solution extending ``choices``.

        Folds, in DFS pre-order: the lifted weight of each assigned stage,
        and for each frontier stage (unassigned, parent assigned) its
        bucket minimum — then skips that stage's whole DFS subtree, which
        the bucket minimum already accounts for.
        """
        length = len(choices)
        combine = self.ranking.combine
        total = self.ranking.identity
        first = True
        position = 0
        while position < self.num_stages:
            if position < length:
                contribution = self.lifted[position][choices[position]]
                step = 1
            else:
                bucket = self.bucket_for(position, choices)
                contribution = bucket.best_weight
                step = self.stages[position].subtree_size
            total = contribution if first else combine(total, contribution)
            first = False
            position += step
        return total

    def solution_weight(self, choices: Sequence[int]) -> Any:
        """Weight of a full solution (DFS-order fold of lifted weights)."""
        if len(choices) != self.num_stages:
            raise ValueError("solution must assign every stage")
        return self.prefix_priority(choices)

    def expand_best(self, choices: list[int]) -> list[int]:
        """Extend a prefix to the best full solution, in place (greedy:
        each remaining stage takes its bucket minimum)."""
        for position in range(len(choices), self.num_stages):
            bucket = self.bucket_for(position, choices)
            choices.append(bucket.best_tuple)
        return choices

    def solution_row(self, choices: Sequence[int]) -> tuple:
        """Assemble the output row of a full solution."""
        out: list = [None] * len(self.query.variables)
        for position, stage in enumerate(self.stages):
            row = stage.relation.rows[choices[position]]
            for schema_position, out_position in self._writers[position]:
                out[out_position] = row[schema_position]
        return tuple(out)

    def total_tuples(self) -> int:
        """Total surviving tuples across stages (the naive-Lawler cost)."""
        return sum(len(stage.relation) for stage in self.stages)
