"""E1 — §3 claim: on the adversarial triangle instance every binary join
plan does Θ(n²) work while WCO joins do O~(n^1.5) (here ~linear, since the
instance's actual output is linear).

Series: per n, intermediate tuples of the best/worst binary plan vs total
work of Generic-Join and Leapfrog, plus empirical growth exponents.
"""

from repro.data.generators import triangle_worstcase_database
from repro.joins.binary_plan import best_left_deep, worst_left_deep
from repro.joins.generic_join import evaluate as generic_join
from repro.joins.leapfrog import evaluate as leapfrog_join
from repro.query.agm import agm_bound
from repro.query.cq import triangle_query
from repro.util.counters import Counters, growth_exponent

from common import print_table

SIZES = (40, 80, 160, 320)


def _series():
    query = triangle_query()
    rows = []
    binary_costs, gj_costs, lftj_costs = [], [], []
    for n in SIZES:
        db = triangle_worstcase_database(n)
        _, best_binary = best_left_deep(db, query)
        _, worst_binary = worst_left_deep(db, query)
        c_gj, c_lftj = Counters(), Counters()
        out = generic_join(db, query, counters=c_gj)
        leapfrog_join(db, query, counters=c_lftj)
        rows.append(
            (
                n,
                len(out),
                int(agm_bound(db, query)),
                best_binary,
                worst_binary,
                c_gj.total_work(),
                c_lftj.total_work(),
            )
        )
        binary_costs.append(best_binary)
        gj_costs.append(c_gj.total_work())
        lftj_costs.append(c_lftj.total_work())
    return rows, binary_costs, gj_costs, lftj_costs


def bench_e1_triangle_binary_vs_wco(benchmark):
    rows, binary_costs, gj_costs, lftj_costs = _series()
    print_table(
        "E1: adversarial triangle — binary plans vs WCO (operation counts)",
        ["n", "output", "AGM", "best binary", "worst binary", "generic-join", "leapfrog"],
        rows,
    )
    print(
        f"growth exponents: best-binary={growth_exponent(SIZES, binary_costs):.2f} "
        f"(paper: 2), generic-join={growth_exponent(SIZES, gj_costs):.2f}, "
        f"leapfrog={growth_exponent(SIZES, lftj_costs):.2f} (paper: ~1 on this "
        "instance; <= 1.5 in general)"
    )
    # Shape assertions: binary is quadratic-ish, WCO clearly subquadratic.
    assert growth_exponent(SIZES, binary_costs) > 1.7
    assert growth_exponent(SIZES, gj_costs) < 1.4
    assert binary_costs[-1] > 5 * gj_costs[-1]

    db = triangle_worstcase_database(SIZES[-1])
    benchmark.pedantic(
        lambda: generic_join(db, triangle_query()), rounds=3, iterations=1
    )
