"""Shared helpers for the join engines.

The central convenience is :func:`atom_relation`: engines work on
*variable-schema* relations — the atom's relation re-keyed to the atom's
query variables, with intra-atom repeated-variable equalities already
enforced and repeated columns dropped.  After this normalization step every
join in the library is a plain natural join on attribute names.
"""

from __future__ import annotations

from collections import Counter as Multiset
from typing import Optional

from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.cq import ConjunctiveQuery
from repro.util.counters import Counters


def atom_relation(
    db: Database,
    query: ConjunctiveQuery,
    atom_index: int,
    counters: Optional[Counters] = None,
    name: Optional[str] = None,
) -> Relation:
    """The atom's relation with query variables as its schema.

    Repeated variables inside the atom (e.g. ``E(x, x)``) become equality
    selections; only the first occurrence of each variable is kept as a
    column.  Weights are preserved per tuple.

    An atom without repeated variables — the common case — is an O(1)
    *read-only view*: the source's row and weight lists under the atom's
    variable names (see :meth:`Relation.derive`), not a per-row copy.
    """
    atom = query.atoms[atom_index]
    source = db[atom.relation]
    name = name or f"{atom.relation}#{atom_index}"
    first: dict[str, int] = {}
    for position, variable in enumerate(atom.variables):
        first.setdefault(variable, position)
    if len(first) == len(atom.variables):
        return source.derive(source.rows, source.weights, name, atom.variables)

    repeats = [
        (position, first[variable])
        for position, variable in enumerate(atom.variables)
        if first[variable] != position
    ]
    if counters is not None:
        counters.tuples_read += len(source)
    consistent = source.select(
        lambda row: all(row[p] == row[q] for p, q in repeats)
    )
    keep = tuple(first.values())
    return consistent.derive(
        [tuple(row[p] for p in keep) for row in consistent.rows],
        consistent.weights,
        name,
        tuple(first),
    )


def multiset(relation: Relation, round_digits: int = 9) -> Multiset:
    """Multiset of ``(row, rounded_weight)`` — the cross-engine test oracle.

    Weights are rounded so engines that combine weights in different orders
    (floating-point non-associativity) still compare equal.
    """
    return Multiset(
        (row, round(weight, round_digits))
        for row, weight in zip(relation.rows, relation.weights)
    )


def output_relation(query: ConjunctiveQuery, name: Optional[str] = None) -> Relation:
    """Empty result relation with the query's output schema."""
    return Relation(name or f"{query.name}_result", query.variables)


def reorder_to_query_schema(
    relation: Relation, query: ConjunctiveQuery, counters: Optional[Counters] = None
) -> Relation:
    """Reorder a result relation's columns into the query's variable order."""
    if relation.schema == query.variables:
        return relation
    return relation.project(query.variables, relation.name)
