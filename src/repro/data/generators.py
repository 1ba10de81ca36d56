"""Synthetic workload generators.

The tutorial's claims are about asymptotic behaviour on specific families of
instances; this module builds those families:

- uniform and Zipf-skewed random relations (generic join inputs);
- weighted random graphs as a single edge relation (graph-pattern queries
  such as triangles and 4-cycles are self-joins over it — tutorial §1);
- the adversarial triangle instance from Part 2 on which every binary join
  plan materializes Θ(n²) intermediate tuples while the output is O(n);
- hub graphs with Θ(n²) 4-cycles (the introduction's motivating example);
- a dangling-path instance on which Yannakakis is linear but binary plans
  blow up (Part 2's output-sensitivity discussion);
- vertically partitioned scored lists for the TA/FA/NRA middleware model
  (Part 1), with controllable inter-list correlation;
- rank-join inputs where the depth of the top-ranked combination is a
  parameter (Part 1's "winners deep in the lists" worst case).

All generators take an explicit ``seed`` and are deterministic given it.
"""

from __future__ import annotations

import math
import random
from typing import Literal, Optional, Sequence

from repro.data.database import Database
from repro.data.relation import Relation

Correlation = Literal["independent", "correlated", "inverse"]


# ----------------------------------------------------------------------
# Generic random relations
# ----------------------------------------------------------------------
def random_relation(
    name: str,
    schema: Sequence[str],
    size: int,
    domain: int,
    seed: int = 0,
    weight_range: tuple[float, float] = (0.0, 1.0),
    zipf_skew: float = 0.0,
) -> Relation:
    """A random relation with values drawn from ``range(domain)``.

    ``zipf_skew > 0`` draws values from a Zipf-like distribution with that
    exponent (heavier skew concentrates values on small ids), which is how
    the benchmarks create the heavy join keys that hurt binary plans.
    """
    rng = random.Random(seed)
    lo, hi = weight_range
    rows: list[tuple] = []
    weights: list[float] = []
    for _ in range(size):
        if zipf_skew > 0.0:
            rows.append(tuple(_zipf_draw(rng, domain, zipf_skew) for _ in schema))
        else:
            rows.append(tuple(rng.randrange(domain) for _ in schema))
        weights.append(rng.uniform(lo, hi))
    return Relation(name, schema, rows, weights)


def _zipf_draw(rng: random.Random, domain: int, skew: float) -> int:
    """Draw from an approximate Zipf distribution on ``range(domain)``.

    Uses the inverse-CDF power-law approximation, which is accurate enough
    for workload generation and avoids scipy's slower samplers.
    """
    u = rng.random()
    # Inverse CDF of p(x) ~ x^{-skew} on [1, domain].
    if abs(skew - 1.0) < 1e-9:
        value = math.exp(u * math.log(domain))
    else:
        power = 1.0 - skew
        value = (u * (domain**power - 1.0) + 1.0) ** (1.0 / power)
    return min(domain - 1, max(0, int(value) - 1))


# ----------------------------------------------------------------------
# Path and star databases (acyclic any-k workloads)
# ----------------------------------------------------------------------
def path_database(
    length: int,
    size: int,
    domain: int,
    seed: int = 0,
    weight_range: tuple[float, float] = (0.0, 1.0),
    zipf_skew: float = 0.0,
) -> Database:
    """Relations R1(A1,A2), ..., R_length(A_length, A_length+1).

    The standard acyclic workload of the any-k experiments: a chain join
    whose results are weighted paths.
    """
    if length < 1:
        raise ValueError("path length must be >= 1")
    db = Database()
    for i in range(1, length + 1):
        db.add(
            random_relation(
                f"R{i}",
                (f"A{i}", f"A{i + 1}"),
                size,
                domain,
                seed=seed + i,
                weight_range=weight_range,
                zipf_skew=zipf_skew,
            )
        )
    return db


def star_database(
    arms: int,
    size: int,
    domain: int,
    seed: int = 0,
    weight_range: tuple[float, float] = (0.0, 1.0),
) -> Database:
    """Relations R1(A0,A1), ..., R_arms(A0,A_arms) sharing the center A0."""
    if arms < 1:
        raise ValueError("star must have >= 1 arms")
    db = Database()
    for i in range(1, arms + 1):
        db.add(
            random_relation(
                f"R{i}",
                ("A0", f"A{i}"),
                size,
                domain,
                seed=seed + i,
                weight_range=weight_range,
            )
        )
    return db


def dangling_path_database(length: int, size: int) -> Database:
    """A path instance with empty output but Θ(n²) binary-plan work.

    R1 = {(i, 0)}, R2 = {(0, j)}: their pairwise join has size² tuples.  The
    last relation is empty, so the query output is empty — Yannakakis'
    semijoin reducer empties everything in O(n), while any binary plan that
    starts from R1 ⋈ R2 materializes the quadratic intermediate result.
    """
    if length < 3:
        raise ValueError("needs length >= 3 so a later relation can dangle")
    db = Database()
    db.add(
        Relation("R1", ("A1", "A2"), [(i, 0) for i in range(size)], [0.0] * size)
    )
    db.add(
        Relation("R2", ("A2", "A3"), [(0, j) for j in range(size)], [0.0] * size)
    )
    for i in range(3, length + 1):
        db.add(Relation(f"R{i}", (f"A{i}", f"A{i + 1}")))
    return db


# ----------------------------------------------------------------------
# Graphs and adversarial cyclic instances
# ----------------------------------------------------------------------
def random_graph_database(
    num_edges: int,
    num_nodes: int,
    seed: int = 0,
    weight_range: tuple[float, float] = (0.0, 1.0),
    relation_name: str = "E",
) -> Database:
    """A weighted directed graph as one edge relation E(src, dst).

    Duplicate edges are suppressed so pattern counts match simple-graph
    intuition; self-loops are excluded.
    """
    rng = random.Random(seed)
    seen: set[tuple[int, int]] = set()
    rows: list[tuple[int, int]] = []
    weights: list[float] = []
    lo, hi = weight_range
    attempts = 0
    max_attempts = num_edges * 50 + 1000
    while len(seen) < num_edges and attempts < max_attempts:
        attempts += 1
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        rows.append((u, v))
        weights.append(rng.uniform(lo, hi))
    return Database([Relation(relation_name, ("src", "dst"), rows, weights)])


def triangle_worstcase_database(n: int) -> Database:
    """The Part 2 adversarial triangle instance.

    R(A,B) = S(B,C) = T(C,A) = {(1,1), ..., (n/2,1)} ∪ {(1,2), ..., (1,n/2)}.
    Every pairwise join has Θ(n²) tuples while the AGM bound caps the output
    at n^1.5 (the actual output here is Θ(n)).
    """
    half = max(1, n // 2)
    rows = [(i, 1) for i in range(1, half + 1)] + [(1, j) for j in range(2, half + 1)]
    weights = [0.0] * len(rows)
    db = Database()
    db.add(Relation("R", ("A", "B"), rows, weights))
    db.add(Relation("S", ("B", "C"), rows, weights))
    db.add(Relation("T", ("C", "A"), rows, weights))
    return db


def fourcycle_hub_database(
    num_edges: int, seed: int = 0, weight_range: tuple[float, float] = (0.0, 1.0)
) -> Database:
    """An undirected-style hub graph with Θ(n²) distinct 4-cycles.

    Nodes: spokes a_1..a_m and c_1..c_m plus two hubs b and d; edges
    a_i—b, b—c_j, c_j—d, d—a_i stored in both directions in E(src, dst).
    Every pair (a_i, c_j) closes the 4-cycle a_i → b → c_j → d → a_i, giving
    m² cycles from Θ(m) edges — the introduction's point that worst-case
    output of the 4-cycle query is quadratic.
    """
    m = max(1, num_edges // 8)
    rng = random.Random(seed)
    lo, hi = weight_range
    rel = Relation("E", ("src", "dst"))
    hub_b = "b"
    hub_d = "d"
    for i in range(m):
        a = f"a{i}"
        c = f"c{i}"
        for u, v in ((a, hub_b), (hub_b, c), (c, hub_d), (hub_d, a)):
            w = rng.uniform(lo, hi)
            rel.add((u, v), w)
            rel.add((v, u), w)
    return Database([rel])


def fourcycle_decoy_database(
    num_edges: int, num_rings: int = 4, seed: int = 0
) -> Database:
    """A 4-cycle instance that is adversarial for rank joins (E7).

    Structure: a hub ``h`` with m light in-edges (a_i → h) and m light
    out-edges (h → b_j), where the b_j are sinks — so the Θ(m²) light
    2-paths through h never extend to a 4-cycle; plus ``num_rings`` genuine
    4-cycles made of *heavy* edges (weight ≈ 0.9 each).

    A left-deep rank join must drain the light decoy 2-paths (quadratic
    intermediate results in the RAM model) before its corner bound lets a
    heavy genuine cycle through.  The any-k route is immune: the hub is
    heavy, so its per-hub tree is an acyclic query whose full reducer
    deletes every dangling decoy in linear time.
    """
    rng = random.Random(seed)
    m = max(2, (num_edges - 4 * num_rings) // 2)
    rel = Relation("E", ("src", "dst"))
    for i in range(m):
        rel.add((f"a{i}", "h"), 0.001 + 0.1 * rng.random())
        rel.add(("h", f"b{i}"), 0.001 + 0.1 * rng.random())
    for ring in range(num_rings):
        nodes = [f"r{ring}_{p}" for p in range(4)]
        for p in range(4):
            rel.add(
                (nodes[p], nodes[(p + 1) % 4]),
                0.85 + 0.1 * rng.random(),
            )
    return Database([rel])


# ----------------------------------------------------------------------
# Top-k middleware inputs (Part 1)
# ----------------------------------------------------------------------
def scored_lists(
    num_objects: int,
    num_lists: int,
    correlation: Correlation = "independent",
    seed: int = 0,
) -> list[list[tuple[str, float]]]:
    """Vertically partitioned scored lists for the TA/FA/NRA model.

    Returns ``num_lists`` lists of ``(object_id, score)`` sorted by
    descending score.  ``correlation`` controls how an object's scores
    relate across lists:

    - ``independent``: i.i.d. uniform scores — TA's typical case;
    - ``correlated``: all lists share a base score plus small noise — the
      best case, where few accesses identify the winners;
    - ``inverse``: list scores are anti-correlated — the hard case in which
      top-ranked overall objects sit deep in individual lists.
    """
    rng = random.Random(seed)
    base = [rng.random() for _ in range(num_objects)]
    lists: list[list[tuple[str, float]]] = []
    for j in range(num_lists):
        column: list[tuple[str, float]] = []
        for i in range(num_objects):
            if correlation == "independent":
                score = rng.random()
            elif correlation == "correlated":
                score = min(1.0, max(0.0, base[i] + rng.uniform(-0.05, 0.05)))
            elif correlation == "inverse":
                # Alternate lists see the object near the top / near the
                # bottom, so aggregate winners hide deep in half the lists.
                score = base[i] if j % 2 == 0 else 1.0 - base[i]
                score = min(1.0, max(0.0, score + rng.uniform(-0.01, 0.01)))
            else:  # pragma: no cover - guarded by Literal type
                raise ValueError(f"unknown correlation {correlation!r}")
            column.append((f"obj{i}", score))
        column.sort(key=lambda pair: (-pair[1], pair[0]))
        lists.append(column)
    return lists


def rank_join_database(
    size: int,
    winner_depth: int,
    num_results: int = 8,
    seed: int = 0,
) -> Database:
    """Two relations R(A,B), S(B,C) for rank-join depth experiments.

    The background tuples of R and S use *disjoint* join-key ranges, so they
    never join; ``num_results`` joining pairs are planted so that the
    top-ranked pair's constituents sit at sorted-order depth
    ``winner_depth`` in each input.  A rank join must therefore descend at
    least that deep before it can emit its first result — the regime in
    which the tutorial notes TA-style early termination degrades.

    Weights ascend (lower = better) per the library convention.
    """
    if winner_depth >= size:
        raise ValueError("winner_depth must be smaller than size")
    rng = random.Random(seed)
    # Named to match repro.query.cq.path_query(2): R1(A1,A2) ⋈ R2(A2,A3).
    r = Relation("R1", ("A1", "A2"))
    s = Relation("R2", ("A2", "A3"))
    # Background tuples: disjoint key ranges, weights uniform in (0, 1).
    for i in range(size):
        r.add((f"ra{i}", ("r", i)), rng.random())
        s.add((("s", i), f"sc{i}"), rng.random())
    # Planted joining pairs at increasing depths starting at winner_depth.
    r_weights = sorted(r.weights)
    s_weights = sorted(s.weights)
    step = max(1, (size - winner_depth) // (num_results + 1))
    for j in range(num_results):
        depth = min(size - 1, winner_depth + j * step)
        key = ("join", j)
        r.add((f"ra_win{j}", key), r_weights[depth] - 1e-9 * (num_results - j))
        s.add((key, f"sc_win{j}"), s_weights[depth] - 1e-9 * (num_results - j))
    return Database([r, s])
