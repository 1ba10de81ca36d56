"""Generic-Join — worst-case-optimal multiway join (§3).

The NPRR / Generic-Join insight: process one variable at a time and, at each
step, iterate over the *smallest* candidate set among the atoms containing
that variable while probing the others by hash — the "intersect, don't
enumerate" principle.  A short argument via the query decomposition lemma
shows total running time O~(AGM bound), i.e. worst-case optimality.

This implementation uses nested hash indexes (value -> child index) per
atom, built at query time (the tutorial's cost model allows no precomputed
structures).  Bag semantics and weight combination are handled exactly as in
:mod:`repro.joins.leapfrog`.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Optional, Sequence

from repro.data.database import Database
from repro.data.relation import Relation
from repro.joins.base import atom_relation, output_relation
from repro.query.cq import ConjunctiveQuery
from repro.util.counters import Counters


def _build_nested_index(
    rel: Relation, order: Sequence[str], counters: Optional[Counters]
) -> dict:
    """Nested dicts level-per-attribute; last level maps to weight lists."""
    positions = rel.positions(order)
    root: dict = {}
    for row, weight in zip(rel.rows, rel.weights):
        if counters is not None:
            counters.tuples_read += 1
        node = root
        for p in positions[:-1]:
            node = node.setdefault(row[p], {})
        node.setdefault(row[positions[-1]], []).append(weight)
    return root


def evaluate(
    db: Database,
    query: ConjunctiveQuery,
    var_order: Optional[Sequence[str]] = None,
    counters: Optional[Counters] = None,
    combine: Callable[[float, float], float] = operator.add,
) -> Relation:
    """Evaluate ``query`` with Generic-Join over hash tries."""
    query.validate(db)
    var_order = tuple(var_order or query.variables)
    if sorted(var_order) != sorted(query.variables):
        raise ValueError("var_order must be a permutation of the query variables")

    atom_orders: list[tuple[str, ...]] = []
    roots: list[dict] = []
    for i in range(len(query.atoms)):
        rel = atom_relation(db, query, i, counters=counters)
        order = tuple(sorted(rel.schema, key=var_order.index))
        atom_orders.append(order)
        roots.append(_build_nested_index(rel, order, counters))

    participants: list[list[int]] = [
        [i for i, order in enumerate(atom_orders) if variable in order]
        for variable in var_order
    ]

    result = output_relation(query)
    out_rows: list[tuple] = []
    out_weights: list[float] = []
    out_positions = [var_order.index(v) for v in query.variables]
    binding: list = [None] * len(var_order)
    # Current node per atom (descends as its variables get bound).  The
    # leaf "node" is the weight list itself.
    node_stack: list = [[root] for root in roots]

    def emit() -> None:
        weight_lists = [node_stack[i][-1] for i in range(len(roots))]
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
        active = participants[depth]
        # Generic-Join's key step: iterate the smallest candidate set.
        proposer = min(active, key=lambda i: len(node_stack[i][-1]))
        others = [i for i in active if i != proposer]
        for value in node_stack[proposer][-1]:
            if counters is not None:
                counters.hash_probes += len(others)
            children = []
            ok = True
            for i in others:
                child = node_stack[i][-1].get(value)
                if child is None:
                    ok = False
                    break
                children.append((i, child))
            if not ok:
                continue
            binding[depth] = value
            node_stack[proposer].append(node_stack[proposer][-1][value])
            for i, child in children:
                node_stack[i].append(child)
            recurse(depth + 1)
            node_stack[proposer].pop()
            for i, _ in children:
                node_stack[i].pop()

    try:
        recurse(0)
    finally:
        # ``recurse`` calls itself through its closure cell, a function
        # <-> cell cycle that would hold every index until a full
        # collection; clearing the cell leaves them to reference counting.
        del recurse
    result.bulk_load(out_rows, out_weights)
    return result


def boolean(
    db: Database,
    query: ConjunctiveQuery,
    var_order: Optional[Sequence[str]] = None,
    counters: Optional[Counters] = None,
) -> bool:
    """Any answers?  Generic-Join with early exit."""
    query.validate(db)
    var_order = tuple(var_order or query.variables)

    atom_orders: list[tuple[str, ...]] = []
    roots: list[dict] = []
    for i in range(len(query.atoms)):
        rel = atom_relation(db, query, i, counters=counters)
        order = tuple(sorted(rel.schema, key=var_order.index))
        atom_orders.append(order)
        roots.append(_build_nested_index(rel, order, counters))
    participants = [
        [i for i, order in enumerate(atom_orders) if variable in order]
        for variable in var_order
    ]
    node_stack: list = [[root] for root in roots]

    def recurse(depth: int) -> bool:
        if depth == len(var_order):
            return True
        active = participants[depth]
        proposer = min(active, key=lambda i: len(node_stack[i][-1]))
        others = [i for i in active if i != proposer]
        for value in node_stack[proposer][-1]:
            if counters is not None:
                counters.hash_probes += len(others)
            children = []
            ok = True
            for i in others:
                child = node_stack[i][-1].get(value)
                if child is None:
                    ok = False
                    break
                children.append((i, child))
            if not ok:
                continue
            node_stack[proposer].append(node_stack[proposer][-1][value])
            for i, child in children:
                node_stack[i].append(child)
            found = recurse(depth + 1)
            node_stack[proposer].pop()
            for i, _ in children:
                node_stack[i].pop()
            if found:
                return True
        return False

    try:
        return recurse(0)
    finally:
        del recurse  # the closure cycle, as in evaluate
