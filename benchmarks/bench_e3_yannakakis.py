"""E3 — §3 claim: Yannakakis evaluates acyclic queries in O~(n + r); binary
plans are not output-sensitive and blow up on dangling tuples.

Series: per n, intermediate tuples of the natural binary plan vs Yannakakis
on the dangling-path instance (output empty, binary intermediate quadratic),
plus both engines on a benign skewed instance for context.
"""

from repro.data.generators import dangling_path_database, path_database
from repro.joins.binary_plan import evaluate_left_deep
from repro.joins.yannakakis import evaluate as yannakakis_join
from repro.query.cq import path_query
from repro.util.counters import Counters, growth_exponent

from common import print_table

SIZES = (50, 100, 200, 400)


def _series():
    query = path_query(3)
    rows, binary_costs, yann_costs = [], [], []
    for n in SIZES:
        db = dangling_path_database(3, n)
        c_binary, c_yann = Counters(), Counters()
        evaluate_left_deep(db, query, order=[0, 1, 2], counters=c_binary)
        yannakakis_join(db, query, counters=c_yann)
        rows.append(
            (n, 0, c_binary.intermediate_tuples, c_yann.intermediate_tuples,
             c_yann.total_work())
        )
        binary_costs.append(max(1, c_binary.intermediate_tuples))
        yann_costs.append(max(1, c_yann.total_work()))
    return rows, binary_costs, yann_costs


def bench_e3_yannakakis_output_sensitivity(benchmark):
    rows, binary_costs, yann_costs = _series()
    print_table(
        "E3: dangling path query — binary plan vs Yannakakis",
        ["n", "output", "binary intermediates", "yann intermediates", "yann total work"],
        rows,
    )
    e_binary = growth_exponent(SIZES, binary_costs)
    e_yann = growth_exponent(SIZES, yann_costs)
    print(
        f"growth exponents: binary={e_binary:.2f} (paper: 2), "
        f"yannakakis={e_yann:.2f} (paper: 1)"
    )
    assert e_binary > 1.8
    assert e_yann < 1.3
    assert all(row[3] == 0 for row in rows)  # zero intermediates, r = 0

    # Context: on a benign skewed instance both are fine (not asserted).
    db = path_database(3, 400, 40, seed=5, zipf_skew=1.2)
    c_b, c_y = Counters(), Counters()
    out = evaluate_left_deep(db, path_query(3), counters=c_b)
    yannakakis_join(db, path_query(3), counters=c_y)
    print(
        f"benign skewed instance (r={len(out)}): binary intermediates="
        f"{c_b.intermediate_tuples}, yannakakis intermediates="
        f"{c_y.intermediate_tuples}"
    )

    db_big = dangling_path_database(3, SIZES[-1])
    benchmark.pedantic(
        lambda: yannakakis_join(db_big, path_query(3)), rounds=3, iterations=1
    )
