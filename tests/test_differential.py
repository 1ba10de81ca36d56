"""Differential property harness: every engine, one ranked stream.

The engine × shard-count × merge-policy matrix multiplies configurations
faster than hand-written expectations can cover, so this suite pits the
implementations against *each other*: on seeded random acyclic
conjunctive queries and databases, ANYK-PART, ANYK-REC, the batch
join-then-sort baseline, and (on binary joins) the HRJN rank-join
middleware must return byte-identical ranked top-k prefixes — same rows,
same weights, same deterministic tie order — serial and hash-sharded
across 4 worker processes alike.

Weights live on a 1/64 grid so float accumulation is exact regardless of
association order (different engines fold weights in different orders;
on the grid all orders agree bitwise — the same trick as conftest's
``weight_strategy``).  Every fifth seed coarsens the grid to force heavy
tie groups, exercising the tuple-identity tie order.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.anyk.api import rank_enumerate
from repro.anyk.ranking import (
    DESC_RANKINGS,
    MAX,
    PRODUCT,
    SUM,
    ranking_by_name,
    solution_tie_key,
)
from repro.data.database import Database
from repro.data.generators import path_database
from repro.data.relation import Relation
from repro.parallel import parallel_rank_enumerate, shard_stream
from repro.query.cq import Atom, ConjunctiveQuery, path_query

#: How many random (query, database) instances the suite replays.
NUM_INSTANCES = 50

#: Shard counts the parallel runs use (1 = in-process serial).
WORKER_GRID = (1, 4)

#: Any-k engines compared on every instance (batch is the reference).
ANYK_ENGINES = ("part:lazy", "part:quick", "rec")


def random_acyclic_instance(
    seed: int,
) -> tuple[Database, ConjunctiveQuery, int]:
    """A random tree-shaped full CQ over binary relations, plus data.

    Atom 0 introduces two fresh variables; every later atom shares one
    variable with a random earlier atom and introduces one fresh one —
    the join hypergraph is a tree by construction, so GYO always
    succeeds.  Variable order within an atom is randomized (parent keys
    land on either column).  Domains are tiny so joins actually hit.
    """
    rng = random.Random(20260000 + seed)
    num_atoms = rng.randint(1, 4)
    variables = ["V0", "V1"]
    atoms = [Atom("R0", ("V0", "V1"))]
    for index in range(1, num_atoms):
        shared = rng.choice(variables)
        fresh = f"V{len(variables)}"
        variables.append(fresh)
        pair = (shared, fresh) if rng.random() < 0.5 else (fresh, shared)
        atoms.append(Atom(f"R{index}", pair))
    query = ConjunctiveQuery(atoms, name=f"Rand{seed}")

    # Coarse grid every fifth seed: massive tie groups.
    grid = 4 if seed % 5 == 0 else 64
    domain = rng.randint(2, 4)
    db = Database()
    for index, atom in enumerate(atoms):
        size = rng.randint(0, 18)
        relation = Relation(f"R{index}", atom.variables)
        for _ in range(size):
            row = tuple(rng.randrange(domain) for _ in range(2))
            relation.add(row, rng.randint(0, 10 * grid) / grid)
        db.add(relation)
    k = rng.randint(5, 25)
    return db, query, k


def _run(db, query, method: str, k: int, workers: int, ranking=SUM) -> list:
    if workers == 1:
        # shard_stream is the exact code path a worker runs, in-process —
        # it also covers the HRJN middleware rank_enumerate cannot reach.
        return list(shard_stream(db, query, ranking, method=method, k=k))
    return list(
        parallel_rank_enumerate(
            db, query, ranking=ranking, method=method, k=k, workers=workers
        )
    )


@pytest.mark.parametrize("seed", range(NUM_INSTANCES))
def test_engines_agree_on_ranked_prefixes(seed):
    db, query, k = random_acyclic_instance(seed)
    reference = list(rank_enumerate(db, query, method="batch", k=k))
    configurations = [
        (method, workers)
        for method in ANYK_ENGINES + ("batch",)
        for workers in WORKER_GRID
    ]
    if len(query.atoms) == 2:
        # The HRJN middleware evaluates binary joins; include it there.
        configurations += [("rank_join", workers) for workers in WORKER_GRID]
    for method, workers in configurations:
        got = _run(db, query, method, k, workers)
        assert got == reference, (
            f"{method} with workers={workers} diverged on seed {seed}: "
            f"{got[:3]} vs {reference[:3]}"
        )


@pytest.mark.parametrize("workers", WORKER_GRID)
def test_full_stream_agreement_beyond_prefix(workers):
    """Drain one instance to exhaustion (not just top-k) per worker count."""
    db, query, _ = random_acyclic_instance(7)
    reference = list(rank_enumerate(db, query, method="batch"))
    for method in ANYK_ENGINES:
        got = _run(db, query, method, None, workers)
        assert got == reference


# ----------------------------------------------------------------------
# The PART record vs the textbook formulation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(NUM_INSTANCES))
def test_part_record_matches_textbook_lawler(seed):
    """``naive_lawler`` keeps the textbook ``(choices, anchor)`` candidate
    over the reference accessors (``TDP.prefix_priority`` / ``expand_best``
    / ``bucket_for``); ``part:eager`` runs the same partition on the O(1)
    record.  Un-stabilised, the two must emit the identical ``(row,
    weight)`` list — same floats, same tick order among ties — and the
    five successor strategies must agree once ties are stabilised."""
    from repro.anyk.part import STRATEGIES, anyk_part, naive_lawler
    from repro.anyk.tdp import TDP

    db, query, _ = random_acyclic_instance(seed)
    for ranking in (SUM, MAX, PRODUCT):
        instance = _positive_weights(db) if ranking is PRODUCT else db
        textbook = list(naive_lawler(TDP(instance, query, ranking=ranking)))
        record = list(
            anyk_part(TDP(instance, query, ranking=ranking), strategy="eager")
        )
        assert record == textbook, (seed, ranking.name)
        streams = {
            strategy: list(
                rank_enumerate(
                    instance, query, ranking=ranking, method=f"part:{strategy}"
                )
            )
            for strategy in STRATEGIES
        }
        for strategy, stream in streams.items():
            assert stream == streams["eager"], (seed, ranking.name, strategy)


# ----------------------------------------------------------------------
# Compiled kernels vs the interpreted path
# ----------------------------------------------------------------------

#: Seeds replayed on the kernel axis (seed 0 and 5 use the coarse grid,
#: so heavy tie groups flow through compiled row assembly too).
NUM_KERNEL_INSTANCES = 12

#: Rankings the kernel axis sweeps (LEX is covered in test_kernels.py;
#: batch has no kernels and serves as the reference stream).
KERNEL_RANKINGS = (SUM, MAX, PRODUCT)

KERNEL_ENGINES = ("part:lazy", "rec")


def _positive_weights(db: Database) -> Database:
    """The same instance with every weight shifted by +1.0 (grid-exact),
    as PRODUCT requires strictly positive weights."""
    shifted = Database()
    for relation in db:
        copy = relation.copy()
        copy.weights = [w + 1.0 for w in copy.weights]
        shifted.add(copy)
    return shifted


@pytest.mark.parametrize("seed", range(NUM_KERNEL_INSTANCES))
def test_compiled_kernels_match_interpreted_streams(seed):
    """part/rec × SUM/MAX/PRODUCT: compiled kernels must reproduce the
    interpreted ranked prefix byte-for-byte, with batch as referee."""
    db, query, k = random_acyclic_instance(seed)
    for ranking in KERNEL_RANKINGS:
        instance = _positive_weights(db) if ranking is PRODUCT else db
        # Batch referees SUM and MAX bitwise (grid weights make every
        # association order exact).  PRODUCT folds in log space, where
        # batch's pre-combined log(a*b) can differ from log(a)+log(b) in
        # the last ulp — there the contract under test is exactly the
        # kernel one: compiled == interpreted, byte for byte.
        reference = None
        if ranking is not PRODUCT:
            reference = list(
                rank_enumerate(
                    instance, query, ranking=ranking, method="batch", k=k
                )
            )
        for method in KERNEL_ENGINES:
            interpreted = list(
                rank_enumerate(
                    instance, query, ranking=ranking, method=method, k=k,
                    compile_kernels=False,
                )
            )
            compiled = list(
                rank_enumerate(
                    instance, query, ranking=ranking, method=method, k=k,
                    compile_kernels=True,
                )
            )
            assert compiled == interpreted, (seed, ranking.name, method)
            if reference is not None:
                assert interpreted == reference, (seed, ranking.name, method)


@pytest.mark.parametrize("seed", (1, 5))
def test_compiled_kernels_match_across_worker_processes(seed):
    """Workers run kernels at their default (on): the sharded parallel
    stream must equal the interpreted serial one for every ranking —
    part/rec/batch × SUM/MAX/PRODUCT × workers {1,4}."""
    db, query, k = random_acyclic_instance(seed)
    for ranking in KERNEL_RANKINGS:
        instance = _positive_weights(db) if ranking is PRODUCT else db
        for method in KERNEL_ENGINES + ("batch",):
            reference = list(
                rank_enumerate(
                    instance, query, ranking=ranking, method=method, k=k,
                    compile_kernels=False,
                )
            )
            for workers in WORKER_GRID:
                if workers == 1:
                    got = list(
                        shard_stream(
                            instance, query, ranking, method=method, k=k
                        )
                    )
                else:
                    got = list(
                        parallel_rank_enumerate(
                            instance, query, ranking=ranking, method=method,
                            k=k, workers=workers,
                        )
                    )
                assert got == reference, (seed, ranking.name, method, workers)


# ----------------------------------------------------------------------
# DESC: the order duals against the ascending stream, reversed
# ----------------------------------------------------------------------
def _flip(weight):
    """An order dual's weight back in the carrier of the ranking it
    reverses (componentwise for LEX vectors)."""
    return tuple(-x for x in weight) if isinstance(weight, tuple) else -weight


@pytest.mark.parametrize("seed", range(NUM_INSTANCES))
def test_desc_duals_agree_with_reversed_ascending(seed):
    """Each order dual × every engine × workers {1, 4} equals the
    ascending stream re-sorted by (negated weight, tie key).

    The referee is ascending batch; for LEX, which batch and HRJN refuse,
    it is ascending ``part:lazy``.  SUM, MAX and LEX must match exactly
    (grid weights make every SUM fold exact).  PRODUCT folds logs in
    engine-specific association orders, so the rows must match as a
    multiset and the weights within 1e-12."""
    db, query, k = random_acyclic_instance(seed)
    methods = ANYK_ENGINES + ("batch",)
    if len(query.atoms) == 2:
        methods += ("rank_join",)
    for name, dual in DESC_RANKINGS.items():
        instance = _positive_weights(db) if name == "product" else db
        lex = dual.raw_combine is None
        ascending = rank_enumerate(
            instance,
            query,
            ranking=ranking_by_name(name),
            method="part:lazy" if lex else "batch",
        )
        referee = sorted(
            ascending,
            key=lambda pair: (_flip(pair[1]), solution_tie_key(pair[0])),
        )[:k]
        for method in methods:
            if lex and method in ("batch", "rank_join"):
                with pytest.raises(TypeError):
                    _run(instance, query, method, k, 1, dual)
                continue
            for workers in WORKER_GRID:
                got = [
                    (row, _flip(weight))
                    for row, weight in _run(
                        instance, query, method, k, workers, dual
                    )
                ]
                where = (seed, name, method, workers)
                if name != "product":
                    assert got == referee, where
                    continue
                # An ulp can split a tie the referee keeps, which reorders
                # rows inside it: compare them as multisets.
                assert sorted(r for r, _ in got) == sorted(
                    r for r, _ in referee
                ), where
                assert [w for _, w in got] == pytest.approx(
                    [w for _, w in referee], abs=1e-12
                ), where


def test_desc_sum_and_product_shards_agree_off_grid_within_ulps():
    """Off the weight grid a sharded stream is *not* byte-identical.

    PART reports its priority fold, whose association depends on the
    shard's buckets, so on ``path_database(3, 3000, 200, seed=5)`` the
    sharded DESC-SUM and PRODUCT weights differ from the serial ones in
    the last ulp (ASC SUM happens to agree bitwise).  Rows stay
    identical."""
    db = path_database(length=3, size=3000, domain=200, seed=5)
    query = path_query(3)
    for ranking in (SUM, DESC_RANKINGS["sum"], PRODUCT):
        serial, sharded = (
            list(
                rank_enumerate(
                    db, query, ranking=ranking, method="part:lazy", k=300,
                    workers=workers,
                )
            )
            for workers in (1, 4)
        )
        assert [r for r, _ in sharded] == [r for r, _ in serial], ranking
        for (_, got), (_, want) in zip(sharded, serial):
            assert abs(got - want) <= 4 * math.ulp(want), ranking


NUM_DYNAMIC_INSTANCES = 10

#: Interleaved steps per dynamic instance (mutations and queries mixed).
DYNAMIC_STEPS = 14


def _instance_sql(query: ConjunctiveQuery, k: int) -> str:
    """The SQL spelling of a random instance's query.

    Relation schemas in :func:`random_acyclic_instance` are the atom's
    variable names, so shared variables become equality predicates on
    same-named columns; SELECT * output order then matches
    ``query.variables`` (first appearance in FROM × schema order).
    """
    tables = ", ".join(f"R{i}" for i in range(len(query.atoms)))
    seen: dict[str, str] = {}
    conditions = []
    for index, atom in enumerate(query.atoms):
        for variable in atom.variables:
            if variable in seen:
                conditions.append(f"{seen[variable]}.{variable} = R{index}.{variable}")
            else:
                seen[variable] = f"R{index}"
    where = f" WHERE {' AND '.join(conditions)}" if conditions else ""
    return f"SELECT * FROM {tables}{where} ORDER BY weight LIMIT {k}"


@pytest.mark.parametrize("seed", range(NUM_DYNAMIC_INSTANCES))
def test_mutation_interleavings_match_fresh_recompute(seed):
    """Randomized mutation/query interleavings against a shadow model.

    A :class:`~repro.server.service.QueryService` (plan + stats caches
    live) takes seeded random INSERT/DELETE mutations interleaved with
    ranked queries; after every step, the served ranked prefix must equal
    a from-scratch recompute over a *fresh* database rebuilt from a
    plain-Python shadow copy of the data.  Any stale cache entry, leaked
    snapshot, or missed invalidation shows up as a divergence.
    """
    from repro.server.service import QueryService

    db, query, k = random_acyclic_instance(seed)
    sql = _instance_sql(query, k)
    rng = random.Random(90210 + seed)
    grid = 4 if seed % 5 == 0 else 64
    domain = 6
    # The shadow model: plain lists, mutated in lockstep with the service.
    model = {
        r.name: (list(r.rows), list(r.weights), r.schema) for r in db
    }
    service = QueryService(db)

    def fresh_database() -> Database:
        return Database(
            Relation(name, schema, rows, weights)
            for name, (rows, weights, schema) in model.items()
        )

    def check():
        got = [
            (tuple(row), weight)
            for row, weight in service.query(sql, fetch=k)["rows"]
        ]
        expected = list(
            rank_enumerate(fresh_database(), query, method="batch", k=k)
        )
        assert got == expected, f"divergence at seed {seed}"

    check()
    for _ in range(DYNAMIC_STEPS):
        name = f"R{rng.randrange(len(query.atoms))}"
        rows, weights, schema = model[name]
        action = rng.random()
        if action < 0.45:  # insert 1-3 rows
            count = rng.randint(1, 3)
            new = [
                (rng.randrange(domain), rng.randrange(domain))
                for _ in range(count)
            ]
            new_weights = [rng.randint(0, 10 * grid) / grid for _ in new]
            values = ", ".join(
                f"({a}, {b}, {w!r})" for (a, b), w in zip(new, new_weights)
            )
            service.mutate(
                f"INSERT INTO {name} ({schema[0]}, {schema[1]}, weight) "
                f"VALUES {values}"
            )
            rows.extend(new)
            weights.extend(new_weights)
        elif action < 0.8:  # delete by a constant filter
            column = rng.choice(schema)
            position = schema.index(column)
            threshold = rng.randrange(domain)
            op = rng.choice(["=", "<=", ">"])
            service.mutate(
                f"DELETE FROM {name} WHERE {column} {op} {threshold}"
            )
            test = {
                "=": lambda v: v == threshold,
                "<=": lambda v: v <= threshold,
                ">": lambda v: v > threshold,
            }[op]
            kept = [
                (row, weight)
                for row, weight in zip(rows, weights)
                if not test(row[position])
            ]
            rows[:] = [row for row, _ in kept]
            weights[:] = [weight for _, weight in kept]
        check()


def test_all_equal_weights_tie_order_is_identical_everywhere():
    """The degenerate all-ties instance: order must be pure row identity."""
    rows = [(i, j) for i in range(4) for j in range(4)]
    db = Database(
        [
            Relation("R0", ("V0", "V1"), rows, [2.5] * len(rows)),
            Relation("R1", ("V1", "V2"), rows, [2.5] * len(rows)),
        ]
    )
    query = ConjunctiveQuery(
        [Atom("R0", ("V0", "V1")), Atom("R1", ("V1", "V2"))], name="Ties"
    )
    reference = list(rank_enumerate(db, query, method="batch"))
    assert reference == sorted(reference, key=lambda pair: pair[0])
    for method in ANYK_ENGINES + ("rank_join",):
        for workers in WORKER_GRID:
            assert _run(db, query, method, None, workers) == reference
