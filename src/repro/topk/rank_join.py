"""Rank joins: HRJN and HRJN* (tutorial Part 1).

The rank-join family (J*, RankJoin/HRJN, LARA-J*, …) extends TA's idea to
real joins: inputs arrive sorted by weight, the operator joins incrementally
and uses a *corner bound* to decide when the best buffered result can be
emitted.  In this library's min-weight convention, after pulling prefixes of
the two inputs with first/last weights (L₁, lℓ) and (R₁, rℓ), any result
involving an unseen tuple weighs at least

    τ = min(lℓ + R₁, L₁ + rℓ)

so every buffered result with weight ≤ τ is safe to emit.  The operator
produces its own output in nondecreasing weight order, hence HRJN operators
compose into left-deep trees (:func:`rank_join_topk`).

When the constituent tuples of the top results sit deep in the inputs, the
bound stays loose and rank joins degrade toward full materialization — the
behaviour experiments E6/E7 measure (and the intermediate-result blowup on
cyclic queries that motivates the any-k algorithms of Part 3).
"""

from __future__ import annotations

import operator
from typing import Callable, Iterator, Optional, Protocol

from repro.data.database import Database
from repro.data.relation import Relation
from repro.joins.base import atom_relation
from repro.query.cq import ConjunctiveQuery
from repro.util.counters import Counters
from repro.util.heaps import BinaryHeap


class RankedInput(Protocol):
    """Pull-based stream of (row, weight) in nondecreasing weight order."""

    schema: tuple[str, ...]

    def pull(self) -> Optional[tuple[tuple, float]]:
        """Next item, or None when exhausted."""


class RelationScan:
    """Sorted scan of a relation — the leaf of a rank-join plan.

    Sorting happens at construction (query time, per the tutorial's no
    precomputation assumption); every pull counts as a sorted access.
    """

    def __init__(
        self, relation: Relation, counters: Optional[Counters] = None
    ) -> None:
        self.schema = tuple(relation.schema)
        self._sorted = relation.sorted_by_weight()
        self._cursor = 0
        self._counters = counters
        self.name = relation.name

    def pull(self) -> Optional[tuple[tuple, float]]:
        if self._cursor >= len(self._sorted):
            return None
        if self._counters is not None:
            self._counters.sorted_accesses += 1
        row = self._sorted.rows[self._cursor]
        weight = self._sorted.weights[self._cursor]
        self._cursor += 1
        return row, weight

    @property
    def depth(self) -> int:
        """Tuples consumed so far."""
        return self._cursor


class HRJN:
    """Hash Rank Join of two ranked inputs (natural join on shared names).

    ``strategy='alternate'`` pulls inputs round-robin (HRJN); ``'corner'``
    pulls the input whose corner term currently equals the bound, tightening
    it fastest (HRJN*).
    """

    def __init__(
        self,
        left: RankedInput,
        right: RankedInput,
        counters: Optional[Counters] = None,
        combine: Callable[[float, float], float] = operator.add,
        strategy: str = "alternate",
    ) -> None:
        if strategy not in ("alternate", "corner"):
            raise ValueError(f"unknown pull strategy {strategy!r}")
        self._left = left
        self._right = right
        self._counters = counters
        self._combine = combine
        self._strategy = strategy
        self.schema = tuple(left.schema) + tuple(
            a for a in right.schema if a not in left.schema
        )
        self._shared = tuple(a for a in left.schema if a in right.schema)
        self._left_key = tuple(left.schema.index(a) for a in self._shared)
        self._right_key = tuple(right.schema.index(a) for a in self._shared)
        self._right_extra = [
            right.schema.index(a) for a in self.schema if a not in left.schema
        ]
        self._seen_left: dict[tuple, list[tuple[tuple, float]]] = {}
        self._seen_right: dict[tuple, list[tuple[tuple, float]]] = {}
        self._first: list[Optional[float]] = [None, None]
        self._last: list[float] = [float("-inf"), float("-inf")]
        self._done = [False, False]
        self._buffer = BinaryHeap(counters)
        self._turn = 0

    # -- bound bookkeeping -------------------------------------------------
    def _corner_terms(self) -> tuple[float, float]:
        """(bound from unseen-left results, bound from unseen-right)."""
        inf = float("inf")
        if self._done[0] or self._first[1] is None:
            unseen_left = inf if self._done[0] else -inf
        else:
            unseen_left = self._combine(self._last[0], self._first[1])
        if self._done[1] or self._first[0] is None:
            unseen_right = inf if self._done[1] else -inf
        else:
            unseen_right = self._combine(self._first[0], self._last[1])
        return unseen_left, unseen_right

    def threshold(self) -> float:
        """Lower bound on the weight of any not-yet-buffered result."""
        return min(self._corner_terms())

    # -- pulling -----------------------------------------------------------
    def _pull_side(self, side: int) -> bool:
        """Pull one tuple from a side; join it against the other side's
        seen tuples; buffer the results.  Returns False on exhaustion."""
        source = self._left if side == 0 else self._right
        item = source.pull()
        if item is None:
            self._done[side] = True
            return False
        row, weight = item
        if self._first[side] is None:
            self._first[side] = weight
        self._last[side] = weight

        if side == 0:
            key = tuple(row[p] for p in self._left_key)
            self._seen_left.setdefault(key, []).append((row, weight))
            partners = self._seen_right.get(key, ())
        else:
            key = tuple(row[p] for p in self._right_key)
            self._seen_right.setdefault(key, []).append((row, weight))
            partners = self._seen_left.get(key, ())
        if self._counters is not None:
            self._counters.hash_probes += 1
        for other_row, other_weight in partners:
            if side == 0:
                left_row, right_row = row, other_row
                total = self._combine(weight, other_weight)
            else:
                left_row, right_row = other_row, row
                total = self._combine(other_weight, weight)
            out = tuple(left_row) + tuple(right_row[p] for p in self._right_extra)
            self._buffer.push(total, out)
            if self._counters is not None:
                self._counters.intermediate_tuples += 1
        return True

    def _choose_side(self) -> int:
        if self._done[0]:
            return 1
        if self._done[1]:
            return 0
        if (
            self._strategy == "alternate"
            or self._first[0] is None
            or self._first[1] is None
        ):
            side = self._turn
            self._turn = 1 - self._turn
            return side
        # HRJN*: pull the side whose corner term is the current minimum —
        # the one holding the bound down.
        unseen_left, unseen_right = self._corner_terms()
        return 0 if unseen_left <= unseen_right else 1

    def pull(self) -> Optional[tuple[tuple, float]]:
        """Next join result in nondecreasing weight order."""
        while True:
            if self._buffer:
                weight, row = self._buffer.peek()
                if weight <= self.threshold():
                    self._buffer.pop()
                    if self._counters is not None:
                        self._counters.output_tuples += 1
                    return row, weight
            if self._done[0] and self._done[1]:
                if not self._buffer:
                    return None
                weight, row = self._buffer.pop()
                if self._counters is not None:
                    self._counters.output_tuples += 1
                return row, weight
            self._pull_side(self._choose_side())


def rank_join_topk(
    db: Database,
    query: ConjunctiveQuery,
    k: int,
    counters: Optional[Counters] = None,
    combine: Callable[[float, float], float] = operator.add,
    strategy: str = "alternate",
    order: Optional[list[int]] = None,
) -> list[tuple[tuple, float]]:
    """Top-k lightest query results via a left-deep HRJN plan.

    Atoms are joined in ``order`` (default: query order); the result rows
    follow the plan's schema, reordered to the query's variable order.
    Returns at most k ``(row, weight)`` pairs, lightest first.
    """
    query.validate(db)
    if k < 1:
        raise ValueError("k must be >= 1")
    order = list(order) if order is not None else list(range(len(query.atoms)))

    plan: RankedInput = RelationScan(
        atom_relation(db, query, order[0]), counters=counters
    )
    for atom_index in order[1:]:
        scan = RelationScan(
            atom_relation(db, query, atom_index), counters=counters
        )
        plan = HRJN(plan, scan, counters=counters, combine=combine, strategy=strategy)

    positions = [plan.schema.index(v) for v in query.variables]
    results: list[tuple[tuple, float]] = []
    while len(results) < k:
        item = plan.pull()
        if item is None:
            break
        row, weight = item
        results.append((tuple(row[p] for p in positions), weight))
    return results


def rank_join_stream(
    db: Database,
    query: ConjunctiveQuery,
    counters: Optional[Counters] = None,
    combine: Callable[[float, float], float] = operator.add,
    strategy: str = "alternate",
) -> Iterator[tuple[tuple, float]]:
    """Unbounded ranked enumeration through the HRJN plan (anytime use)."""
    query.validate(db)
    plan: RankedInput = RelationScan(
        atom_relation(db, query, 0), counters=counters
    )
    for atom_index in range(1, len(query.atoms)):
        scan = RelationScan(
            atom_relation(db, query, atom_index), counters=counters
        )
        plan = HRJN(plan, scan, counters=counters, combine=combine, strategy=strategy)
    positions = [plan.schema.index(v) for v in query.variables]
    while True:
        item = plan.pull()
        if item is None:
            return
        row, weight = item
        yield tuple(row[p] for p in positions), weight
