"""Building factorized representations over join trees.

A factorized representation (f-representation in Olteanu–Závodný terms) of
an acyclic full CQ's result is a DAG-shaped circuit of unions (the tuples
of a bucket) and products (a tuple combined with one bucket per child
join-tree node).  This module compiles a reduced database into that
structure — deliberately mirroring the T-DP of :mod:`repro.anyk.tdp`, since
the tutorial's Part 3 point is precisely that ranked enumeration, (unranked)
constant-delay enumeration, and factorized aggregates all stand on the same
join-tree foundation.

The headline property (§3): ``size()`` is O~(n) for any acyclic query,
while the flat result can be as large as Θ(n^|Q|) — the compression the
benchmarks of E14 measure.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.data.database import Database
from repro.joins.semijoin import (
    Stage,
    output_writers,
    reduce_stages,
    stage_layout,
)
from repro.query.cq import ConjunctiveQuery
from repro.query.hypergraph import JoinTree, join_tree_or_raise
from repro.util.counters import Counters


class FactorizedRepresentation:
    """The compiled factorization of one acyclic full CQ over a database.

    Construction runs the full reducer (so the circuit contains no dead
    branches — the property that later makes enumeration constant-delay)
    and buckets each stage's tuples by their parent join-key value.
    """

    def __init__(
        self,
        db: Database,
        query: ConjunctiveQuery,
        tree: Optional[JoinTree] = None,
        counters: Optional[Counters] = None,
    ) -> None:
        query.validate(db)
        self.query = query
        self.counters = counters
        self.tree = tree if tree is not None else join_tree_or_raise(query)
        #: The T-DP's stage layout (:func:`stage_layout`), relations reduced.
        self.stages: list[Stage] = stage_layout(
            db, query, self.tree, counters=counters
        )
        self.num_stages = len(self.stages)

        #: per stage: parent join key (``Stage.parent_key``) -> list of
        #: tuple ids (a union node)
        self.buckets: list[dict[Any, list[int]]] = []
        for stage, alive in zip(
            self.stages, reduce_stages(self.stages, counters)
        ):
            stage.relation = alive.relation(stage.relation)
            self.buckets.append(alive.buckets(counters))

        self._writers = output_writers(self.stages, query.variables)

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    def root_bucket(self) -> list[int]:
        """Tuple ids of the root union (empty when the result is empty)."""
        return self.buckets[0].get((), [])

    def child_bucket(
        self, child_position: int, parent_position: int, parent_tuple: int
    ) -> list[int]:
        """The child union selected by a parent tuple's join-key value."""
        row = self.stages[parent_position].relation.rows[parent_tuple]
        return self.buckets[child_position][
            self.stages[child_position].parent_key(row)
        ]

    def is_empty(self) -> bool:
        """True iff the query has no answers."""
        return not self.root_bucket()

    # ------------------------------------------------------------------
    # Size measures (the §3 story)
    # ------------------------------------------------------------------
    def size(self) -> int:
        """Number of singleton (tuple) nodes in the circuit — O~(n)."""
        return sum(len(stage.relation) for stage in self.stages)

    def flat_size(self) -> int:
        """Number of flat result tuples (computed on the circuit, without
        materializing them)."""
        from repro.factorized.aggregates import COUNT, aggregate

        return aggregate(self, COUNT)

    def compression_ratio(self) -> float:
        """flat size / factorized size (≥ huge on high-arity outputs)."""
        size = self.size()
        return self.flat_size() / size if size else 0.0

    def assemble_row(self, choices: list[int]) -> tuple:
        """Output row of one choice-per-stage combination."""
        out: list = [None] * len(self.query.variables)
        for position, stage in enumerate(self.stages):
            row = stage.relation.rows[choices[position]]
            for schema_position, out_position in self._writers[position]:
                out[out_position] = row[schema_position]
        return tuple(out)
