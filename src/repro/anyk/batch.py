"""Batch baseline: materialize the full join, sort, then emit (Part 3).

The natural competitor of any-k algorithms: compute all r results with a
(worst-case-)optimal join algorithm, sort them by the ranking function, and
return them one by one.  Its time-to-first-result equals the full join plus
an O(r log r) sort — the gap any-k algorithms close — while its time-to-last
is hard to beat, which is exactly the trade-off experiment E8/E9 charts.

The join engines pre-combine raw weights tuple-by-tuple
(:meth:`RankingFunction.float_combine`), and the sort lifts the result, so
every ranking with a raw fold runs here, order duals included.  LEX has
none: its vectors follow the T-DP's stage order.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.anyk.ranking import RankingFunction, SUM
from repro.data.database import Database
from repro.joins.generic_join import evaluate as generic_join
from repro.joins.yannakakis import evaluate as yannakakis_join
from repro.obs.memory import tracker_of
from repro.query.cq import ConjunctiveQuery
from repro.query.hypergraph import gyo_reduction
from repro.util.counters import Counters


def batch_enumerate(
    db: Database,
    query: ConjunctiveQuery,
    ranking: RankingFunction = SUM,
    counters: Optional[Counters] = None,
) -> Iterator[tuple[tuple, Any]]:
    """Full join (Yannakakis if acyclic, else Generic-Join), then sort.

    Yields ``(row, lifted_weight)`` in nondecreasing ranking order; equal
    weights keep the join's order (the sort is stable), so
    :func:`~repro.anyk.rank_enumerate` orders ties as for every engine.
    """
    combine = ranking.float_combine()  # raises for LEX, by design
    tree = gyo_reduction(query)
    if tree is not None:
        result = yannakakis_join(db, query, counters=counters, combine=combine, tree=tree)
    else:
        result = generic_join(db, query, counters=counters, combine=combine)
    # Lifted weights (not raw) key the sort so tie groups form in the
    # ranking carrier, exactly as the any-k engines see them.
    rows = result.rows
    lifted = [ranking.lift(w) for w in result.weights]
    order = sorted(range(len(rows)), key=lifted.__getitem__)
    if counters is not None:
        counters.comparisons += max(0, len(order) - 1)
    space = tracker_of(counters)
    if space is not None:
        space.gauge("batch.sort").add(len(order))
        # The materialized join stays alive for the whole emission: the
        # joined row tuples and the raw weight vector they carry.
        space.gauge("batch.rows").add(len(rows))
    for i in order:
        yield rows[i], lifted[i]
