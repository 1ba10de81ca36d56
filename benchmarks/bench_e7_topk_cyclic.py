"""E7 — §2/§4 claim: top-k join algorithms analyzed in the RAM model suffer
from large intermediate results on cyclic joins — "we are particularly
interested in their worst-case behavior when some of the input tuples
contributing to the top-ranked result are at the bottom of an individual
input relation".

The adversarial instance (``fourcycle_decoy_database``) floods a left-deep
rank join's interior operator with Θ(n²) light 2-paths that never close a
cycle, while the genuine cycles are heavy.  The any-k route's full reducer
deletes the decoys in linear time per union tree.

Series: per n, RAM-model work to the top-1 lightest 4-cycle for the rank
join vs any-k; plus the easy regime (random graph) where the rank join is
competitive — the two sides of "neither framework subsumes the other".
"""

import itertools

from repro.anyk.api import rank_enumerate
from repro.data.generators import fourcycle_decoy_database, random_graph_database
from repro.query.cq import cycle_query
from repro.topk.rank_join import rank_join_stream
from repro.util.counters import Counters, growth_exponent

from common import print_table

SIZES = (100, 200, 400, 800)


def _top1_work(db, query):
    c_rj, c_anyk = Counters(), Counters()
    rj = list(itertools.islice(rank_join_stream(db, query, counters=c_rj), 1))
    ak = list(rank_enumerate(db, query, k=1, counters=c_anyk))
    assert rj and ak
    assert round(rj[0][1], 9) == round(float(ak[0][1]), 9), "engines disagree"
    return c_rj, c_anyk


def _series():
    query = cycle_query(4)
    rows, rj_costs, anyk_costs = [], [], []
    for n in SIZES:
        db = fourcycle_decoy_database(n, seed=37)
        c_rj, c_anyk = _top1_work(db, query)
        rows.append(
            (
                n,
                c_rj.intermediate_tuples,
                c_rj.total_work(),
                c_anyk.intermediate_tuples,
                c_anyk.total_work(),
            )
        )
        rj_costs.append(c_rj.total_work())
        anyk_costs.append(c_anyk.total_work())
    return rows, rj_costs, anyk_costs


def bench_e7_topk_on_cyclic_joins(benchmark):
    rows, rj_costs, anyk_costs = _series()
    print_table(
        "E7: top-1 lightest 4-cycle on the decoy instance — rank join vs any-k",
        ["edges n", "rj intermediates", "rj work", "anyk intermediates", "anyk work"],
        rows,
    )
    e_rj = growth_exponent(SIZES, rj_costs)
    e_anyk = growth_exponent(SIZES, anyk_costs)
    print(
        f"growth exponents: rank-join={e_rj:.2f} (paper: ~2), "
        f"any-k={e_anyk:.2f} (paper: <=1.5)"
    )
    assert e_rj > 1.6
    assert e_anyk < 1.5
    assert anyk_costs[-1] < rj_costs[-1]

    # The easy regime for contrast: random graph with light genuine cycles;
    # there the rank join's early termination is competitive (not asserted
    # beyond agreement — the tutorial's "neither dominates" message).
    easy = random_graph_database(400, 57, seed=37)
    c_rj, c_anyk = _top1_work(easy, cycle_query(4))
    print(
        f"easy regime (random graph, 400 edges): rank-join work="
        f"{c_rj.total_work()}, any-k work={c_anyk.total_work()}"
    )

    db = fourcycle_decoy_database(SIZES[-1], seed=37)
    benchmark.pedantic(
        lambda: list(rank_enumerate(db, cycle_query(4), k=1)),
        rounds=3,
        iterations=1,
    )
