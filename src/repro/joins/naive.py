"""Naive join: cartesian product plus filtering.

The ground-truth oracle for every other engine in the test suite.  It
enumerates the full cross product of the atoms' relations and keeps the
combinations on which shared variables agree — O(n^m) for m atoms, so it is
guarded by an explicit size limit and only used on small instances.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

from repro.data.database import Database
from repro.data.relation import Relation
from repro.joins.base import atom_relation, output_relation
from repro.query.cq import ConjunctiveQuery, QueryError
from repro.util.counters import Counters


def evaluate(
    db: Database,
    query: ConjunctiveQuery,
    counters: Optional[Counters] = None,
    combine: Callable[[float, float], float] = operator.add,
    max_combinations: int = 50_000_000,
) -> Relation:
    """Evaluate by exhaustive search over tuple combinations.

    Raises :class:`QueryError` when the cross-product size exceeds
    ``max_combinations`` — the caller should use a real engine instead.
    """
    query.validate(db)
    relations = [
        atom_relation(db, query, i, counters=counters)
        for i in range(len(query.atoms))
    ]
    size = 1
    for relation in relations:
        size *= max(1, len(relation))
        if size > max_combinations:
            raise QueryError(
                f"naive join would enumerate more than {max_combinations} "
                "combinations; use a real engine"
            )

    result = output_relation(query)
    out_rows: list[tuple] = []
    out_weights: list[float] = []
    binding: dict[str, object] = {}

    def recurse(depth: int, weight_so_far: float) -> None:
        if depth == len(relations):
            row = tuple(binding[v] for v in query.variables)
            out_rows.append(row)
            out_weights.append(weight_so_far)
            if counters is not None:
                counters.output_tuples += 1
            return
        relation = relations[depth]
        for row, weight in zip(relation.rows, relation.weights):
            if counters is not None:
                counters.intermediate_tuples += 1
            bound: list[str] = []
            ok = True
            for variable, value in zip(relation.schema, row):
                if variable in binding:
                    if counters is not None:
                        counters.comparisons += 1
                    if binding[variable] != value:
                        ok = False
                        break
                else:
                    binding[variable] = value
                    bound.append(variable)
            if ok:
                combined = (
                    weight if depth == 0 else combine(weight_so_far, weight)
                )
                recurse(depth + 1, combined)
            for variable in bound:
                del binding[variable]

    recurse(0, 0.0)
    result.bulk_load(out_rows, out_weights)
    return result
