"""The paper's linear-preprocessing guarantee, on RAM-model counters.

"TTF = O(n) preprocessing, then logarithmic delay" is a claim about
operation counts, so it is pinned on :class:`~repro.util.counters.Counters`
rather than on a clock: ``tuples_read + hash_probes`` of the
preprocessing step, over a doubling series of seeded instances, must grow
with the exponent the paper states (fitted by
:func:`repro.util.growth_exponent`) *and* stay inside an absolute
per-tuple budget.  The counts are exact per seed, so a reintroduced copy
pass (budget) or an accidental quadratic (exponent) fails here, in
tier-1 — not in a benchmark nobody reruns.
"""

from __future__ import annotations

import math

from repro.anyk.cyclic import enumerate_union_of_trees
from repro.anyk.part import anyk_part
from repro.anyk.ranking import SUM
from repro.anyk.tdp import TDP
from repro.data.generators import (
    fourcycle_hub_database,
    path_database,
    random_graph_database,
)
from repro.joins.heavylight import fourcycle_union_of_trees
from repro.query.cq import cycle_query, path_query
from repro.util import Counters, growth_exponent


def _accesses(counters: Counters) -> int:
    return counters.tuples_read + counters.hash_probes


def test_tdp_preprocessing_is_linear_with_a_small_constant():
    """T-DP construction on a 4-path: exponent <= 1.1 and <= 5 accesses
    per input tuple.  Per tuple the reducer reads once and probes once
    bottom-up, reads once for its parent's key set top-down, and the
    bucketing pass reads once (3.5 on a path; the tuple-at-a-time code it
    replaced — four copies, six semijoins, a separate DP pass — took 6.5).
    """
    sizes = (500, 1000, 2000, 4000, 8000)
    costs = []
    for n in sizes:
        db = path_database(length=4, size=n, domain=n // 20, seed=11)
        counters = Counters()
        tdp = TDP(db, path_query(4), counters=counters)
        assert tdp.total_tuples() > 3.9 * n  # nearly nothing dangles
        costs.append(_accesses(counters))
        assert costs[-1] <= 5 * db.total_tuples()
    assert growth_exponent(sizes, costs) <= 1.1


def _fourcycle_first_result_cost(db) -> int:
    query = cycle_query(4)
    counters = Counters()
    trees = fourcycle_union_of_trees(db, query, counters=counters)
    stream = enumerate_union_of_trees(
        trees,
        query.variables,
        SUM,
        lambda tdp: anyk_part(tdp, strategy="lazy"),
        counters=counters,
    )
    assert next(stream, None) is not None
    return _accesses(counters)


def test_fourcycle_preprocessing_stays_at_n_to_the_one_and_a_half():
    """Heavy/light build + one T-DP per tree + the first result on dense
    random graphs (n edges on 2·sqrt(n) nodes: every value light, wedges
    of ~n^1.5/2 tuples): exponent <= 1.6, and <= 4.5·n^1.5 accesses at
    the largest size (one more pass over the wedges costs ~1·n^1.5)."""
    sizes = (250, 500, 1000, 2000, 4000)
    costs = [
        _fourcycle_first_result_cost(
            random_graph_database(
                num_edges=n, num_nodes=int(2 * math.sqrt(n)), seed=11
            )
        )
        for n in sizes
    ]
    assert growth_exponent(sizes, costs) <= 1.6
    assert costs[-1] <= 4.5 * sizes[-1] ** 1.5


def test_heavy_value_trees_share_their_relations():
    """On the hub graph every 4-cycle runs through a heavy value: four
    heavy trees plus the light one, each an O(n) T-DP over the *same*
    R3/R4 (resp. R1L/R2L) objects.  Linear, and <= 45 accesses per edge
    (36.5 measured; the per-tree copies it replaced cost 58.5)."""
    sizes = (250, 500, 1000, 2000, 4000)
    costs = []
    for n in sizes:
        db = fourcycle_hub_database(n, seed=11)
        costs.append(_fourcycle_first_result_cost(db))
        assert costs[-1] <= 45 * len(db["E"])
    assert growth_exponent(sizes, costs) <= 1.1
    trees = fourcycle_union_of_trees(db, cycle_query(4))
    heavy = [tree for tree in trees if tree.fixed]
    assert len(heavy) == 4
    for name in ("R3", "R4", "R1L", "R2L"):
        shared = {id(tree.database[name]) for tree in heavy if name in tree.database}
        assert len(shared) == 1
