"""The Yannakakis algorithm: O~(n + r) evaluation of acyclic queries (§3).

After the full reducer leaves the database globally consistent, joins are
performed bottom-up along the join tree.  For *full* conjunctive queries
(our setting) every intermediate tuple produced after reduction extends to
at least one query answer and is a restriction of it, so intermediate sizes
never exceed the output size — the algorithm "essentially matches the
Ω(n + r) lower bound", which experiment E3 demonstrates against binary
plans on a dangling-tuple instance.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

from repro.data.database import Database
from repro.data.relation import Relation
from repro.joins.base import reorder_to_query_schema
from repro.joins.hash_join import hash_join
from repro.joins.semijoin import full_reducer
from repro.query.cq import ConjunctiveQuery
from repro.query.hypergraph import JoinTree, join_tree_or_raise
from repro.util.counters import Counters


def evaluate(
    db: Database,
    query: ConjunctiveQuery,
    counters: Optional[Counters] = None,
    combine: Callable[[float, float], float] = operator.add,
    tree: Optional[JoinTree] = None,
) -> Relation:
    """Full reducer, then joins up the tree (children into parents)."""
    query.validate(db)
    if tree is None:
        tree = join_tree_or_raise(query)
    relations = full_reducer(db, query, tree=tree, counters=counters)

    # Join children into parents, deepest nodes first: when a node is
    # processed, each of its children already holds the join of its whole
    # subtree.
    joined = dict(relations)
    for node in reversed(tree.order):
        for child in tree.children[node]:
            joined[node] = hash_join(
                joined[node], joined[child], counters=counters, combine=combine
            )
    result = reorder_to_query_schema(joined[tree.root], query)
    if counters is not None:
        counters.output_tuples += len(result)
        if len(tree.order) > 1:
            # The final join's tuples are outputs, not intermediates.
            counters.intermediate_tuples -= len(result)
    return result


def boolean(
    db: Database,
    query: ConjunctiveQuery,
    counters: Optional[Counters] = None,
    tree: Optional[JoinTree] = None,
) -> bool:
    """The Boolean acyclic query: any answers at all?

    Only needs the bottom-up half of the full reducer — the query is
    non-empty iff the root relation survives it non-empty.  O~(n).
    """
    query.validate(db)
    if tree is None:
        tree = join_tree_or_raise(query)
    from repro.joins.base import atom_relation
    from repro.joins.semijoin import semijoin

    relations = {
        i: atom_relation(db, query, i, counters=counters)
        for i in range(len(query.atoms))
    }
    for node in reversed(tree.order):
        for child in tree.children[node]:
            relations[node] = semijoin(
                relations[node], relations[child], counters=counters
            )
            if node == tree.root and len(relations[node]) == 0:
                return False
    return len(relations[tree.root]) > 0
