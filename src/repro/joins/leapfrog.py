"""Leapfrog Triejoin — a worst-case-optimal join algorithm (§3).

Veldhuizen's LFTJ computes a multiway join "holistically": one variable at a
time in a global order, intersecting — by leapfrogging seeks — the sorted
value lists of all atoms containing the current variable.  Its running time
matches the AGM bound (up to log factors), so on the adversarial triangle
instance it does O~(n^1.5) work while every binary plan does Θ(n²)
(experiment E1).

Bag semantics: the tries keep per-tuple weight lists, and a fully bound
variable assignment emits one result per combination of duplicate input
tuples, with weights combined by the ranking operator.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Optional, Sequence

from repro.data.database import Database
from repro.data.relation import Relation
from repro.joins.base import atom_relation, output_relation
from repro.joins.trie import Trie, TrieIterator, ordkey
from repro.query.cq import ConjunctiveQuery
from repro.util.counters import Counters


def evaluate(
    db: Database,
    query: ConjunctiveQuery,
    var_order: Optional[Sequence[str]] = None,
    counters: Optional[Counters] = None,
    combine: Callable[[float, float], float] = operator.add,
) -> Relation:
    """Evaluate ``query`` with Leapfrog Triejoin.

    ``var_order`` defaults to the query's variable order; any permutation is
    correct (order affects constants, not worst-case optimality).
    """
    query.validate(db)
    var_order = tuple(var_order or query.variables)
    if sorted(var_order) != sorted(query.variables):
        raise ValueError("var_order must be a permutation of the query variables")

    # Per atom: variable-schema relation, trie ordered by global position.
    iterators: list[TrieIterator] = []
    atom_vars: list[tuple[str, ...]] = []
    for i in range(len(query.atoms)):
        rel = atom_relation(db, query, i, counters=counters)
        order = tuple(sorted(rel.schema, key=var_order.index))
        trie = Trie(rel, order, counters=counters)
        iterators.append(trie.iterator(counters=counters))
        atom_vars.append(order)

    # For each variable level, the atoms participating there.
    participants: list[list[int]] = [
        [i for i, order in enumerate(atom_vars) if variable in order]
        for variable in var_order
    ]
    result = output_relation(query)
    out_rows: list[tuple] = []
    out_weights: list[float] = []
    out_positions = [var_order.index(v) for v in query.variables]
    binding: list = [None] * len(var_order)

    def emit() -> None:
        weight_lists = [iterators[i].weights() for i in range(len(iterators))]
        row = tuple(binding[p] for p in out_positions)
        for combo in itertools.product(*weight_lists):
            weight = combo[0]
            for w in combo[1:]:
                weight = combine(weight, w)
            out_rows.append(row)
            out_weights.append(weight)
            if counters is not None:
                counters.output_tuples += 1

    def recurse(depth: int) -> None:
        if depth == len(var_order):
            emit()
            return
        active = [iterators[i] for i in participants[depth]]
        for it in active:
            it.open()
        try:
            for value in _leapfrog(active, counters):
                binding[depth] = value
                recurse(depth + 1)
        finally:
            for it in active:
                it.up()

    recurse(0)
    result.bulk_load(out_rows, out_weights)
    return result


def _leapfrog(active: list[TrieIterator], counters: Optional[Counters]):
    """Yield values on which all active iterators agree, in sorted order.

    The classic leapfrog intersection: repeatedly seek the iterator with the
    smallest key to the current maximum key; when all keys coincide the
    value is a match.  Iterators are left positioned on the match when
    yielding, so callers can descend into them.
    """
    if any(it.at_end() for it in active):
        return
    if len(active) == 1:
        it = active[0]
        while not it.at_end():
            yield it.key()
            it.next()
        return

    active = sorted(active, key=lambda it: ordkey(it.key()))
    p = 0
    max_key = active[-1].key()
    while True:
        it = active[p]
        if counters is not None:
            counters.comparisons += 1
        if ordkey(it.key()) == ordkey(max_key):
            # All iterators agree.
            yield max_key
            it.next()
            if it.at_end():
                return
            max_key = it.key()
            p = (p + 1) % len(active)
        else:
            it.seek(max_key)
            if it.at_end():
                return
            max_key = it.key()
            p = (p + 1) % len(active)


def boolean(
    db: Database,
    query: ConjunctiveQuery,
    var_order: Optional[Sequence[str]] = None,
    counters: Optional[Counters] = None,
) -> bool:
    """Does the query have any answer?  LFTJ with early exit."""
    query.validate(db)
    var_order = tuple(var_order or query.variables)

    iterators: list[TrieIterator] = []
    atom_vars: list[tuple[str, ...]] = []
    for i in range(len(query.atoms)):
        rel = atom_relation(db, query, i, counters=counters)
        order = tuple(sorted(rel.schema, key=var_order.index))
        iterators.append(Trie(rel, order, counters=counters).iterator(counters))
        atom_vars.append(order)
    participants = [
        [i for i, order in enumerate(atom_vars) if variable in order]
        for variable in var_order
    ]

    def recurse(depth: int) -> bool:
        if depth == len(var_order):
            return True
        active = [iterators[i] for i in participants[depth]]
        for it in active:
            it.open()
        try:
            for _ in _leapfrog(active, counters):
                if recurse(depth + 1):
                    return True
            return False
        finally:
            for it in active:
                it.up()

    return recurse(0)
