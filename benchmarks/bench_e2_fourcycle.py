"""E2 — §1 claim: the Boolean 4-cycle query is answerable in O~(n^1.5)
while WCO full evaluation is Θ(n²) in the worst case, and finding the
top-k lightest 4-cycles costs close to the Boolean query.

Series: per n (edges), work of (a) WCO full enumeration, (b) heavy/light
Boolean detection, (c) any-k top-10 through the union of trees, on random
graphs whose 4-cycle count grows super-linearly.  (b) and (c) both go
through the compile seam in :mod:`repro.anyk.api`: ``has_any_result`` runs
one Yannakakis emptiness test per union tree of a 4-cycle, and
``rank_enumerate`` merges the trees' any-k streams.
"""

from repro.anyk.api import has_any_result, rank_enumerate
from repro.data.generators import random_graph_database
from repro.joins.generic_join import evaluate as generic_join
from repro.query.cq import cycle_query
from repro.util.counters import Counters, growth_exponent

from common import print_table

SIZES = (200, 400, 800, 1600)


def _graph(n):
    # Dense-ish regime: nodes ~ sqrt(8 n) keeps plenty of 4-cycles.
    nodes = max(8, int((8 * n) ** 0.5))
    return random_graph_database(n, nodes, seed=17)


def _series():
    query = cycle_query(4)
    rows, full_costs, bool_costs, topk_costs = [], [], [], []
    for n in SIZES:
        db = _graph(n)
        c_full, c_bool, c_topk = Counters(), Counters(), Counters()
        out = generic_join(db, query, counters=c_full)
        exists = has_any_result(db, query, counters=c_bool)
        top = list(rank_enumerate(db, query, k=10, counters=c_topk))
        rows.append(
            (
                n,
                len(out),
                c_full.total_work(),
                c_bool.total_work(),
                c_topk.total_work(),
                exists and bool(top),
            )
        )
        full_costs.append(c_full.total_work())
        bool_costs.append(c_bool.total_work())
        topk_costs.append(c_topk.total_work())
    return rows, full_costs, bool_costs, topk_costs


def bench_e2_fourcycle_exists_and_topk(benchmark):
    rows, full_costs, bool_costs, topk_costs = _series()
    print_table(
        "E2: 4-cycle — WCO full output vs Boolean vs top-10 (operation counts)",
        ["edges n", "4-cycles", "wco full", "boolean h/l", "any-k top-10", "found"],
        rows,
    )
    e_full = growth_exponent(SIZES, full_costs)
    e_bool = growth_exponent(SIZES, bool_costs)
    e_topk = growth_exponent(SIZES, topk_costs)
    print(
        f"growth exponents: wco-full={e_full:.2f}, boolean={e_bool:.2f} "
        f"(paper: <=1.5), top-10={e_topk:.2f} (paper: close to Boolean)"
    )
    # Shape: Boolean and top-k stay well below full enumeration's growth,
    # and top-k work tracks the Boolean query rather than the output size.
    assert e_bool < e_full
    assert e_topk < e_full
    assert topk_costs[-1] < full_costs[-1]

    db = _graph(SIZES[-1])
    benchmark.pedantic(
        lambda: has_any_result(db, cycle_query(4)), rounds=3, iterations=1
    )
