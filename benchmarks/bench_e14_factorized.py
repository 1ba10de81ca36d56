"""E14 — §3 claim (factorised databases): representing the result in
factorized form reduces its size from Θ(n^|Q|) to O~(n) for acyclic
queries, and aggregates evaluate on the circuit in O~(n) regardless of the
flat output size.

Series: per path length ℓ (fixed n), flat output size vs factorized size,
compression ratio, and the O~(n) work of count/min/sum aggregates.
"""

from repro.data.generators import path_database
from repro.factorized import (
    COUNT,
    MIN_WEIGHT,
    SUM_WEIGHT,
    FactorizedRepresentation,
    aggregate,
)
from repro.query.cq import path_query
from repro.util.counters import Counters, growth_exponent

from common import print_table

SIZE, DOMAIN = 120, 4  # tiny domain: flat output explodes with length
LENGTHS = (2, 3, 4, 5)


def _series():
    rows = []
    flat_sizes, frep_sizes, agg_work = [], [], []
    for length in LENGTHS:
        db = path_database(length, SIZE, DOMAIN, seed=67)
        query = path_query(length)
        counters = Counters()
        frep = FactorizedRepresentation(db, query, counters=counters)
        build_work = counters.total_work()
        flat = aggregate(frep, COUNT)
        best = aggregate(frep, MIN_WEIGHT)
        total = aggregate(frep, SUM_WEIGHT)
        agg = counters.total_work() - build_work
        rows.append(
            (
                length,
                frep.size(),
                flat,
                round(flat / max(1, frep.size()), 1),
                agg,
                round(best, 3),
                round(total, 1),
            )
        )
        flat_sizes.append(max(1, flat))
        frep_sizes.append(frep.size())
        agg_work.append(agg)
    return rows, flat_sizes, frep_sizes, agg_work


def bench_e14_factorized_size_and_aggregates(benchmark):
    rows, flat_sizes, frep_sizes, agg_work = _series()
    print_table(
        f"E14: factorized vs flat result size (path queries, n={SIZE}, "
        f"domain={DOMAIN})",
        ["len", "frep size", "flat size", "ratio", "aggregate work", "min w", "sum w"],
        rows,
    )
    e_flat = growth_exponent(LENGTHS, flat_sizes)
    e_frep = growth_exponent(LENGTHS, frep_sizes)
    print(
        f"growth with query length: flat={e_flat:.2f} (exponential in ℓ), "
        f"factorized={e_frep:.2f} (paper: linear in n, ~flat in ℓ)"
    )
    # Shapes: flat explodes with length, frep stays ~n per stage, aggregate
    # work never looks like the flat size.
    assert flat_sizes[-1] > 100 * frep_sizes[-1]
    assert frep_sizes[-1] <= LENGTHS[-1] * SIZE
    assert agg_work[-1] < flat_sizes[-1] / 10

    db = path_database(LENGTHS[-1], SIZE, DOMAIN, seed=67)
    query = path_query(LENGTHS[-1])
    benchmark.pedantic(
        lambda: aggregate(FactorizedRepresentation(db, query), COUNT),
        rounds=3,
        iterations=1,
    )
