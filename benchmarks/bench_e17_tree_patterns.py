"""E17 — §4 application claim: anytime top-k tree-pattern retrieval in
labeled graphs (the Any-k / tree-matching line of work) reduces to ranked
enumeration over an acyclic join and inherits its guarantees: first
matches after linear-time preprocessing, far before batch materialization.

Series: per graph size, work to the top-10 matches of a 4-node tree
pattern via any-k vs batch, plus the factorized count of all matches.
"""

from repro.patterns.graph import random_labeled_graph
from repro.patterns.pattern import TreePattern
from repro.patterns.search import count_matches, find_patterns
from repro.util.counters import Counters, growth_exponent

from common import print_table

SIZES = (400, 800, 1600, 3200)  # edges
K = 10


def _pattern() -> TreePattern:
    # Only the root is label-constrained; the unlabeled arms make the match
    # count grow superlinearly with density, which is exactly the regime
    # where batch materialization loses to anytime retrieval.
    pattern = TreePattern("root", "A")
    pattern.add_child("root", "left")
    pattern.add_child("root", "right")
    pattern.add_child("left", "leaf")
    return pattern


def _series():
    rows = []
    anyk_costs, batch_costs = [], []
    for edges in SIZES:
        graph = random_labeled_graph(80, edges, labels=("A", "B"), seed=97)
        pattern = _pattern()
        total = count_matches(graph, pattern)

        c_anyk = Counters()
        top = list(
            find_patterns(graph, pattern, k=K, counters=c_anyk)
        )
        c_batch = Counters()
        top_batch = list(
            find_patterns(graph, pattern, k=K, method="batch", counters=c_batch)
        )
        assert [round(float(w), 9) for _, w in top] == [
            round(float(w), 9) for _, w in top_batch
        ]
        rows.append(
            (edges, total, len(top), c_anyk.total_work(), c_batch.total_work())
        )
        anyk_costs.append(max(1, c_anyk.total_work()))
        batch_costs.append(max(1, c_batch.total_work()))
    return rows, anyk_costs, batch_costs


def bench_e17_tree_pattern_retrieval(benchmark):
    rows, anyk_costs, batch_costs = _series()
    print_table(
        f"E17: top-{K} tree-pattern matches — any-k vs batch",
        ["edges", "all matches", "returned", "anyk work", "batch work"],
        rows,
    )
    e_anyk = growth_exponent(SIZES, anyk_costs)
    e_batch = growth_exponent(SIZES, batch_costs)
    print(
        f"growth exponents: any-k={e_anyk:.2f} (paper: ~1 — input-linear), "
        f"batch={e_batch:.2f} (driven by the superlinear match count)"
    )
    # Shapes: fixed node count + growing density => matches grow
    # superlinearly; batch pays for all of them, any-k does not.
    assert e_anyk < e_batch
    gap_first = batch_costs[0] / anyk_costs[0]
    gap_last = batch_costs[-1] / anyk_costs[-1]
    print(f"batch/any-k work gap: {gap_first:.1f}x -> {gap_last:.1f}x")
    assert gap_last > gap_first > 1.0

    graph = random_labeled_graph(80, SIZES[-1], labels=("A", "B"), seed=97)
    benchmark.pedantic(
        lambda: list(find_patterns(graph, _pattern(), k=K)),
        rounds=3,
        iterations=1,
    )
