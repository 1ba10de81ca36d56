"""Two names over the compile seam (:mod:`repro.anyk.api`) for callers
that build the 4-cycle's union of trees themselves, such as the
step-by-step replay in ``bench/engine.py``."""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.anyk.api import EnumeratorFactory, merge_parts, query_shape, tree_parts
from repro.anyk.ranking import RankingFunction
from repro.joins.heavylight import UnionTree
from repro.query.cq import ConjunctiveQuery
from repro.util.counters import Counters


def is_fourcycle(query: ConjunctiveQuery) -> bool:
    """True if the query is a 4-cycle in any atom order and orientation."""
    return query_shape(query).kind == "4-cycle"


def enumerate_union_of_trees(
    trees: list[UnionTree],
    output_variables: tuple[str, ...],
    ranking: RankingFunction,
    enumerator: EnumeratorFactory,
    counters: Optional[Counters] = None,
) -> Iterator[tuple[tuple, Any]]:
    """The trees' merged ranked stream, rows over ``output_variables``;
    the T-DPs are built at the first pull."""
    parts = tree_parts(trees, output_variables, ranking, counters)
    yield from merge_parts(parts, enumerator, counters)
