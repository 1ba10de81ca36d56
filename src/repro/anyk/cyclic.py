"""Ranked enumeration for cyclic queries (tutorial Parts 3 + 2 combined).

Cyclic queries are handled the way the tutorial describes for optimal join
processing, lifted to ranked enumeration:

- the **4-cycle** (atoms in any order and orientation) uses the heavy/light
  *union of trees* (:mod:`repro.joins.heavylight`): O(n^1.5) wedge pairs
  visited, but only the wedge rows that close a cycle materialised, then
  one T-DP per tree and a global merge heap over the per-tree any-k
  streams.  The trees partition the answer space, so the merge needs no
  deduplication, and the pipeline achieves the submodular-width-style
  O~(n^1.5 + k) the tutorial highlights for "top-k lightest 4-cycles";
- **other cyclic queries** fall back to a single (fractional-hypertree)
  decomposition: materialize one derived relation per bag
  (:func:`repro.query.decomposition.decompose_to_acyclic`, O~(n^fhw)) and
  run any acyclic any-k algorithm on the rewrite.

Weight bookkeeping: derived relations store *raw pre-combined* weights
(each original atom contributing exactly once), so enumeration over the
rewrite ranks identically to the original query.  Only float-carrier
rankings are supported here (see :meth:`RankingFunction.float_combine`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from repro.anyk.ranking import RankingFunction, SUM
from repro.anyk.tdp import TDP
from repro.data.database import Database
from repro.joins.heavylight import UnionTree, fourcycle_pattern, fourcycle_union_of_trees
from repro.query.cq import ConjunctiveQuery, QueryError
from repro.query.decomposition import decompose_to_acyclic
from repro.util.counters import Counters
from repro.util.heaps import BinaryHeap

#: Type of per-tree enumerator factories: TDP -> iterator of (row, weight).
EnumeratorFactory = Callable[[TDP], Iterator[tuple[tuple, Any]]]


def is_fourcycle(query: ConjunctiveQuery) -> bool:
    """True if the query is a 4-cycle (:func:`fourcycle_pattern`)."""
    try:
        fourcycle_pattern(query)
    except QueryError:
        return False
    return True


def enumerate_union_of_trees(
    trees: list[UnionTree],
    output_variables: tuple[str, ...],
    ranking: RankingFunction,
    enumerator: EnumeratorFactory,
    counters: Optional[Counters] = None,
) -> Iterator[tuple[tuple, Any]]:
    """Merge per-tree any-k streams into one globally ranked stream.

    Each tree's stream is nondecreasing, and trees are answer-disjoint, so
    a heap holding one head element per stream yields the global order.
    Fixed variables (heavy values bound inside a tree) are re-attached to
    every emitted row.
    """
    streams: list[Iterator[tuple[tuple, Any]]] = []
    assemblers: list[Callable[[tuple], tuple]] = []
    for tree in trees:
        tdp = TDP(tree.database, tree.query, ranking=ranking, counters=counters)
        streams.append(enumerator(tdp))
        tree_vars = tree.query.variables
        fixed = dict(tree.fixed)
        positions: list[tuple[str, Optional[int]]] = [
            (v, tree_vars.index(v) if v in tree_vars else None)
            for v in output_variables
        ]

        def assemble(
            row: tuple, positions=positions, fixed=fixed
        ) -> tuple:
            return tuple(
                row[p] if p is not None else fixed[v] for v, p in positions
            )

        assemblers.append(assemble)

    heap = BinaryHeap(counters)
    for index, stream in enumerate(streams):
        head = next(stream, None)
        if head is not None:
            row, weight = head
            heap.push((weight, index), (index, row))
    while heap:
        (weight, _), (index, row) = heap.pop()
        yield assemblers[index](row), weight
        head = next(streams[index], None)
        if head is not None:
            next_row, next_weight = head
            heap.push((next_weight, index), (index, next_row))


def rank_enumerate_fourcycle(
    db: Database,
    query: ConjunctiveQuery,
    ranking: RankingFunction,
    enumerator: EnumeratorFactory,
    counters: Optional[Counters] = None,
    threshold: Optional[float] = None,
) -> Iterator[tuple[tuple, Any]]:
    """Any-k over the 4-cycle through the heavy/light union of trees."""
    trees = fourcycle_union_of_trees(
        db,
        query,
        combine=ranking.float_combine(),
        threshold=threshold,
        counters=counters,
    )
    return enumerate_union_of_trees(
        trees, query.variables, ranking, enumerator, counters=counters
    )


def rank_enumerate_ghd(
    db: Database,
    query: ConjunctiveQuery,
    ranking: RankingFunction,
    enumerator: EnumeratorFactory,
    counters: Optional[Counters] = None,
) -> Iterator[tuple[tuple, Any]]:
    """Any-k over an arbitrary cyclic query via a single GHD rewrite."""
    rewrite = decompose_to_acyclic(db, query, combine=ranking.float_combine())
    tdp = TDP(rewrite.database, rewrite.query, ranking=ranking, counters=counters)
    rewrite_vars = rewrite.query.variables
    positions = [rewrite_vars.index(v) for v in query.variables]
    for row, weight in enumerator(tdp):
        yield tuple(row[p] for p in positions), weight
