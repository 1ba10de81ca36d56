"""E10 — §4 claim: a direct application of Lawler–Murty that solves each
partition from scratch has delay *polynomial in the input size*, while
exploiting the join structure brings the delay down to O(log k) = O~(1).

Series: per input size n, the average per-result work (delay) of the
naive Lawler baseline vs ANYK-PART for the first 200 results — the former
grows linearly with n, the latter stays flat.
"""

from repro.anyk.api import rank_enumerate
from repro.data.generators import path_database
from repro.query.cq import path_query
from repro.util.counters import Counters, growth_exponent

from common import print_table

SIZES = (50, 100, 200, 400)
K = 200
LENGTH = 3


def _avg_delay(db, query, method):
    counters = Counters()
    stream = rank_enumerate(db, query, method=method, counters=counters)
    start = None
    produced = 0
    for produced, _ in enumerate(stream, start=1):
        if produced == 1:
            start = counters.total_work()
        if produced == K:
            break
    if produced < 2:
        return 0.0
    return (counters.total_work() - start) / (produced - 1)


def _series():
    query = path_query(LENGTH)
    rows, naive_delays, part_delays = [], [], []
    for n in SIZES:
        db = path_database(LENGTH, n, max(4, n // 10), seed=47)
        naive_delay = _avg_delay(db, query, "lawler")
        part_delay = _avg_delay(db, query, "part:lazy")
        rows.append((n, round(naive_delay, 1), round(part_delay, 1)))
        naive_delays.append(naive_delay)
        part_delays.append(part_delay)
    return rows, naive_delays, part_delays


def bench_e10_delay_naive_vs_structured(benchmark):
    rows, naive_delays, part_delays = _series()
    print_table(
        f"E10: average per-result work over the first {K} results",
        ["n", "naive Lawler delay", "ANYK-PART delay"],
        rows,
    )
    e_naive = growth_exponent(SIZES, naive_delays)
    e_part = growth_exponent(SIZES, [max(d, 1.0) for d in part_delays])
    print(
        f"delay growth with n: naive={e_naive:.2f} (paper: polynomial, ~1), "
        f"structured={e_part:.2f} (paper: ~0 — independent of n)"
    )
    assert e_naive > 0.7  # naive delay grows ~linearly in input size
    assert e_part < 0.4  # structured delay is input-size independent
    assert naive_delays[-1] > 10 * part_delays[-1]

    db = path_database(LENGTH, SIZES[-1], SIZES[-1] // 10, seed=47)
    benchmark.pedantic(
        lambda: list(
            rank_enumerate(db, path_query(LENGTH), method="part:lazy", k=K)
        ),
        rounds=3,
        iterations=1,
    )
