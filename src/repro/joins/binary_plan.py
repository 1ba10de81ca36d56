"""Left-deep binary join plans with intermediate-result accounting.

This is the strawman of the tutorial's Part 2: treating a multiway join as a
sequence of pairwise joins.  On acyclic queries with a good order this is
fine; on cyclic queries *every* order can be forced to materialize
intermediate results asymptotically larger than the output (the adversarial
triangle instance — experiment E1).

Provided here:

- :func:`evaluate_left_deep` — evaluate a given atom order;
- :func:`all_left_deep_orders` — enumerate connected ("no cross product")
  orders, used by benches to show that *no* binary plan escapes the blowup;
- :func:`greedy_plan` — a textbook optimizer stand-in that always joins the
  pair with the smallest estimated output next;
- :func:`best_left_deep` / :func:`worst_left_deep` — exact best/worst order
  by measured intermediate size (exhaustive; for constant-size queries).
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterable, Optional, Sequence

from repro.data.database import Database
from repro.data.relation import Relation
from repro.joins.base import atom_relation, reorder_to_query_schema
from repro.joins.hash_join import hash_join
from repro.query.cq import ConjunctiveQuery, QueryError
from repro.util.counters import Counters


def evaluate_left_deep(
    db: Database,
    query: ConjunctiveQuery,
    order: Optional[Sequence[int]] = None,
    counters: Optional[Counters] = None,
    combine: Callable[[float, float], float] = operator.add,
) -> Relation:
    """Evaluate ``query`` with a left-deep plan over ``order`` (atom ids).

    Defaults to :func:`greedy_plan`'s order.  The result schema is the
    query's variable order.
    """
    query.validate(db)
    if order is None:
        order = greedy_plan(db, query)
    order = list(order)
    if sorted(order) != list(range(len(query.atoms))):
        raise QueryError(f"order {order} is not a permutation of atom ids")

    current = atom_relation(db, query, order[0], counters=counters)
    if len(order) == 1:
        # The atom view shares the base relation's storage; a result is
        # the caller's to keep.
        current = current.copy()
    for atom_index in order[1:]:
        right = atom_relation(db, query, atom_index, counters=counters)
        current = hash_join(current, right, counters=counters, combine=combine)
    result = reorder_to_query_schema(current, query)
    if counters is not None:
        counters.output_tuples += len(result)
        if len(order) > 1:
            # The final join's tuples are outputs, not intermediates.
            counters.intermediate_tuples -= len(result)
    return result


def all_left_deep_orders(
    query: ConjunctiveQuery, connected_only: bool = True
) -> Iterable[tuple[int, ...]]:
    """All left-deep atom orders; by default only cross-product-free ones.

    An order is *connected* if every atom after the first shares a variable
    with the union of the preceding atoms — the space real optimizers
    search.
    """
    indexes = range(len(query.atoms))
    for order in itertools.permutations(indexes):
        if not connected_only or _is_connected_order(query, order):
            yield order


def _is_connected_order(query: ConjunctiveQuery, order: Sequence[int]) -> bool:
    seen = set(query.atoms[order[0]].variable_set)
    for atom_index in order[1:]:
        atom_vars = query.atoms[atom_index].variable_set
        if not (atom_vars & seen):
            return False
        seen |= atom_vars
    return True


def greedy_plan(db: Database, query: ConjunctiveQuery) -> list[int]:
    """Greedy order: start from the smallest atom, repeatedly add the
    connected atom minimizing an independence-assumption size estimate.

    A stand-in for a textbook cost-based optimizer — deliberately simple,
    since the tutorial's point is that *no* binary order can win on the
    adversarial cyclic instances.
    """
    query.validate(db)
    sizes = [len(db[atom.relation]) for atom in query.atoms]
    remaining = set(range(len(query.atoms)))
    first = min(remaining, key=lambda i: (sizes[i], i))
    order = [first]
    remaining.remove(first)
    bound = set(query.atoms[first].variable_set)
    estimate = float(sizes[first])
    while remaining:
        connected = [i for i in remaining if query.atoms[i].variable_set & bound]
        candidates = connected or sorted(remaining)

        def estimated_growth(i: int) -> float:
            shared = len(query.atoms[i].variable_set & bound)
            # Each shared variable is assumed to filter by one "average
            # fanout" factor; a crude System-R style estimate.
            selectivity = (1.0 / max(2.0, sizes[i] ** 0.5)) ** shared
            return estimate * sizes[i] * selectivity

        best = min(candidates, key=lambda i: (estimated_growth(i), i))
        estimate = max(1.0, estimated_growth(best))
        order.append(best)
        bound |= query.atoms[best].variable_set
        remaining.remove(best)
    return order


def _measure_order(
    db: Database,
    query: ConjunctiveQuery,
    order: Sequence[int],
    combine: Callable[[float, float], float],
) -> int:
    counters = Counters()
    evaluate_left_deep(db, query, order, counters=counters, combine=combine)
    return counters.intermediate_tuples


def best_left_deep(
    db: Database,
    query: ConjunctiveQuery,
    combine: Callable[[float, float], float] = operator.add,
) -> tuple[tuple[int, ...], int]:
    """(order, intermediate tuples) of the best connected left-deep plan."""
    measured = [
        (order, _measure_order(db, query, order, combine))
        for order in all_left_deep_orders(query)
    ]
    if not measured:
        raise QueryError("query has no connected left-deep order")
    return min(measured, key=lambda pair: pair[1])


def worst_left_deep(
    db: Database,
    query: ConjunctiveQuery,
    combine: Callable[[float, float], float] = operator.add,
) -> tuple[tuple[int, ...], int]:
    """(order, intermediate tuples) of the worst connected left-deep plan."""
    measured = [
        (order, _measure_order(db, query, order, combine))
        for order in all_left_deep_orders(query)
    ]
    if not measured:
        raise QueryError("query has no connected left-deep order")
    return max(measured, key=lambda pair: pair[1])
