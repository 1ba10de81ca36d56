"""Tests for repro.parallel: sharding, merge, worker pool, integration."""

from __future__ import annotations

import pytest

from conftest import multiset_of

from repro.anyk.api import PausableStream, merge_parts, rank_enumerate
from repro.anyk.ranking import LEX, MAX, SUM, RankingFunction, stabilize_ties
from repro.data.database import Database
from repro.data.generators import path_database, star_database
from repro.data.relation import Relation
from repro.parallel import (
    ShardWorkerError,
    choose_shard_variable,
    is_shardable,
    parallel_rank_enumerate,
    shard_database,
    stable_hash,
)
from repro.query.cq import (
    ConjunctiveQuery,
    Atom,
    QueryError,
    cycle_query,
    path_query,
    path_graph_query,
    star_query,
)


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------
def test_stable_hash_is_deterministic_and_spread():
    values = [0, 1, "a", "b", (1, 2), 3.5]
    assert [stable_hash(v) for v in values] == [stable_hash(v) for v in values]
    shards = {stable_hash(v) % 4 for v in range(100)}
    assert shards == {0, 1, 2, 3}


def test_stable_hash_respects_join_equality_classes():
    # Serial joins match 1 == 1.0 == True (Python equality through hash
    # indexes); the shard function must agree or answers vanish.
    assert stable_hash(1) == stable_hash(1.0) == stable_hash(True)
    assert stable_hash(0) == stable_hash(0.0) == stable_hash(False)
    assert stable_hash((1, 2)) == stable_hash((1.0, 2.0))
    assert stable_hash(1.5) != stable_hash(1)  # only equal values collapse


def test_mixed_type_join_keys_shard_together():
    """Regression: R1's key column holds floats, R2's holds ints; the
    serial join matches them, so the shard function must too."""
    rel1 = Relation(
        "R1", ("A1", "A2"), [(i, float(i % 4)) for i in range(24)],
        [i / 64 for i in range(24)],
    )
    rel2 = Relation(
        "R2", ("A2", "A3"), [(j % 4, j) for j in range(24)],
        [j / 64 for j in range(24)],
    )
    db = Database([rel1, rel2])
    query = path_query(2)
    serial = list(rank_enumerate(db, query))
    assert len(serial) == 144  # the mixed-type keys really do join
    assert list(parallel_rank_enumerate(db, query, workers=3)) == serial


def test_choose_shard_variable_prefers_most_shared():
    # A2 joins R1 and R2; A1/A3 appear once each.
    assert choose_shard_variable(path_query(2)) == "A2"
    # The star center appears in every atom.
    assert choose_shard_variable(star_query(3)) == "A0"


def test_shards_partition_the_answer_set():
    db = path_database(length=3, size=60, domain=8, seed=11)
    query = path_query(3)
    serial = multiset_of(rank_enumerate(db, query))
    shards, spec = shard_database(db, query, 4)
    assert spec.shards == 4
    union = None
    for shard in shards:
        part = multiset_of(rank_enumerate(shard.database, shard.query))
        if union is None:
            union = part
        else:
            assert not (set(union) & set(part)), "shards must be disjoint"
            union += part
    assert union == serial


def test_shard_rewrite_handles_self_joins():
    db = Database()
    rel = Relation("E", ("src", "dst"))
    for i in range(12):
        rel.add((i, (i + 1) % 12), float(i))
    db.add(rel)
    query = path_graph_query(2)  # E(x1,x2) ⋈ E(x2,x3): x2 at different cols
    serial = multiset_of(rank_enumerate(db, query))
    shards, spec = shard_database(db, query, 3)
    assert spec.variable == "x2"
    union = None
    for shard in shards:
        # Both atoms got their own filtered relation under a fresh name.
        names = [atom.relation for atom in shard.query.atoms]
        assert names == ["E__p0", "E__p1"]
        part = multiset_of(rank_enumerate(shard.database, shard.query))
        union = part if union is None else union + part
    assert union == serial


def test_shard_database_validates_arguments():
    db = path_database(length=2, size=10, domain=4, seed=0)
    with pytest.raises(ValueError):
        shard_database(db, path_query(2), 0)
    with pytest.raises(QueryError):
        shard_database(db, path_query(2), 2, variable="Z9")


# ----------------------------------------------------------------------
# Merge: shard feeds are the parts of a union, ties ordered afterwards
# ----------------------------------------------------------------------
def _merge(streams):
    return stabilize_ties(merge_parts([(s, None) for s in streams], iter))


def test_merge_orders_globally_with_row_ties():
    a = [((1, 1), 1.0), ((2, 2), 3.0)]
    b = [((1, 0), 1.0), ((9, 9), 2.0)]
    merged = list(_merge([iter(a), iter(b)]))
    assert merged == [((1, 0), 1.0), ((1, 1), 1.0), ((9, 9), 2.0), ((2, 2), 3.0)]


def test_merge_handles_empty_and_single_streams():
    assert list(_merge([])) == []
    assert list(_merge([iter([]), iter([((1,), 0.5)])])) == [((1,), 0.5)]


def test_merge_is_lazy():
    def endless():
        i = 0
        while True:
            yield (i,), float(i)
            i += 1

    stream = _merge([endless()])
    assert next(stream) == ((0,), 0.0)
    assert next(stream) == ((1,), 1.0)
    stream.close()


# ----------------------------------------------------------------------
# is_shardable
# ----------------------------------------------------------------------
def test_is_shardable_rules():
    acyclic = path_query(2)
    assert is_shardable(acyclic, SUM, "part:lazy")
    assert is_shardable(acyclic, MAX, "rec")
    assert is_shardable(acyclic, LEX, "part:eager")
    assert is_shardable(acyclic, SUM, "batch")
    assert not is_shardable(acyclic, SUM, "rank_join")  # a library operator
    assert not is_shardable(cycle_query(4), SUM, "part:lazy")  # cyclic
    assert not is_shardable(acyclic, SUM, "unknown-engine")
    custom = RankingFunction("sum", lambda a, b: a + b, 0.0, float)
    assert not is_shardable(acyclic, custom, "part:lazy")  # impostor "sum"


# ----------------------------------------------------------------------
# The pool end-to-end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", ["part:lazy", "rec", "batch"])
def test_parallel_equals_serial_exactly(method):
    db = path_database(length=3, size=80, domain=8, seed=5)
    query = path_query(3)
    serial = list(rank_enumerate(db, query, method=method, k=60))
    parallel = list(
        parallel_rank_enumerate(db, query, method=method, k=60, workers=3)
    )
    assert parallel == serial


def test_parallel_full_drain_equals_serial():
    db = star_database(arms=2, size=60, domain=6, seed=9)
    query = star_query(2)
    serial = list(rank_enumerate(db, query, method="part:lazy"))
    parallel = list(
        parallel_rank_enumerate(db, query, method="part:lazy", workers=4)
    )
    assert parallel == serial
    assert len(parallel) > 0


def test_parallel_lex_ranking_round_trips_by_name():
    db = path_database(length=2, size=40, domain=5, seed=3)
    query = path_query(2)
    serial = list(rank_enumerate(db, query, ranking=LEX, method="part:lazy", k=25))
    parallel = list(
        parallel_rank_enumerate(
            db, query, ranking=LEX, method="part:lazy", k=25, workers=2
        )
    )
    assert parallel == serial


def test_parallel_merges_worker_counters():
    from repro.util.counters import Counters

    db = path_database(length=2, size=50, domain=6, seed=1)
    query = path_query(2)
    counters = Counters()
    results = list(
        parallel_rank_enumerate(
            db, query, method="part:lazy", counters=counters, workers=2
        )
    )
    assert counters.output_tuples == len(results)
    assert counters.tuples_read > 0


def test_parallel_early_close_terminates_workers():
    db = path_database(length=3, size=100, domain=6, seed=2)
    query = path_query(3)
    stream = parallel_rank_enumerate(db, query, method="part:lazy", workers=2)
    first = next(stream)
    stream.close()  # must terminate the pool, not hang
    serial_first = next(rank_enumerate(db, query, method="part:lazy", k=1))
    assert first == serial_first


def test_parallel_through_pausable_stream_resumes_exactly():
    db = path_database(length=3, size=90, domain=7, seed=8)
    query = path_query(3)
    serial = list(rank_enumerate(db, query, method="part:lazy", k=40))
    paused = PausableStream(
        parallel_rank_enumerate(db, query, method="part:lazy", k=40, workers=3)
    )
    got = []
    for n in (7, 13, 40):
        page, done = paused.take(n)
        got.extend(page)
    assert got == serial
    assert done


def test_worker_failure_surfaces_as_shard_error():
    # A query whose relations exist but whose method is bogus inside the
    # worker: the error frame must surface, not hang.
    db = path_database(length=2, size=20, domain=4, seed=0)
    query = path_query(2)
    stream = parallel_rank_enumerate(db, query, method="part:bogus", workers=2)
    with pytest.raises(ShardWorkerError, match="strategy"):
        list(stream)


def test_empty_shards_spawn_no_processes():
    # One relation has a single A2 value: most shards are trivially empty.
    rel1 = Relation("R1", ("A1", "A2"), [(i, 0) for i in range(8)], [0.0] * 8)
    rel2 = Relation("R2", ("A2", "A3"), [(0, j) for j in range(8)], [0.0] * 8)
    db = Database([rel1, rel2])
    query = path_query(2)
    serial = list(rank_enumerate(db, query))
    parallel = list(parallel_rank_enumerate(db, query, workers=4))
    assert parallel == serial
    assert len(parallel) == 64


# ----------------------------------------------------------------------
# rank_enumerate / router integration
# ----------------------------------------------------------------------
def test_deterministic_false_streams_through_giant_tie_groups():
    """deterministic=False must not buffer the whole tie group: pulling
    one result from an all-tied join leaves the engine barely touched."""
    from repro.util.counters import Counters

    rows = [(i, j) for i in range(30) for j in range(30)]
    db = Database(
        [
            Relation("R1", ("A1", "A2"), rows, [0.0] * len(rows)),
            Relation("R2", ("A2", "A3"), rows, [0.0] * len(rows)),
        ]
    )
    query = path_query(2)
    counters = Counters()
    stream = rank_enumerate(
        db, query, method="part:lazy", counters=counters, deterministic=False
    )
    next(stream)
    stream.close()
    # The stabilized default would have drained the whole (27000-result)
    # tie group before yielding; the opt-out emits as the engine does.
    assert counters.output_tuples <= 2


def test_deterministic_false_refuses_parallel():
    db = path_database(length=2, size=60, domain=6, seed=4)
    query = path_query(2)
    serial = list(
        rank_enumerate(db, query, method="part:lazy", deterministic=False, k=20)
    )
    fallback = list(
        rank_enumerate(
            db, query, method="part:lazy", deterministic=False, k=20, workers=4
        )
    )
    assert fallback == serial  # ran serial: no merge can match unstable ties


def test_parallel_from_a_thread_uses_a_safe_context():
    """The server regime: queries fork workers from handler threads.
    _pool_context must switch off plain fork there and still agree."""
    import threading

    db = path_database(length=2, size=80, domain=8, seed=10)
    query = path_query(2)
    serial = list(rank_enumerate(db, query, method="part:lazy", k=30))
    outcome: list = []

    def run():
        outcome.append(
            list(
                parallel_rank_enumerate(
                    db, query, method="part:lazy", k=30, workers=2
                )
            )
        )

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert outcome and outcome[0] == serial


def test_rank_enumerate_workers_falls_back_serial_on_cyclic():
    from repro.data.generators import random_graph_database

    db = random_graph_database(num_edges=60, num_nodes=12, seed=4)
    query = cycle_query(4)
    serial = list(rank_enumerate(db, query, k=10))
    with_workers = list(rank_enumerate(db, query, k=10, workers=4))
    assert with_workers == serial


def test_router_takes_and_declines_the_worker_budget():
    from repro.engine.planner import PARALLEL_MIN_TUPLES, route

    big = path_database(length=2, size=PARALLEL_MIN_TUPLES, domain=64, seed=6)
    plan = route(big, path_query(2), k=50, workers=4)
    assert plan.workers == 4
    assert plan.shard_variable == "A2"
    assert any("sharding across 4 workers" in line for line in plan.rationale)
    assert "parallel: 4 workers" in plan.describe()

    small = path_database(length=2, size=30, domain=8, seed=6)
    plan = route(small, path_query(2), k=5, workers=4)
    assert plan.workers == 1
    assert any("running serial" in line for line in plan.rationale)
    assert "parallel:" not in plan.describe()


def test_router_declines_workers_for_batch_without_limit():
    # No LIMIT routes to batch; batch shards fine, so the budget is taken
    # when the input is large enough.
    from repro.engine.planner import PARALLEL_MIN_TUPLES, route

    db = path_database(length=2, size=PARALLEL_MIN_TUPLES, domain=64, seed=6)
    plan = route(db, path_query(2), k=None, workers=2)
    assert plan.engine == "batch"
    assert plan.workers == 2


def test_rank_enumerate_auto_with_workers_routes_and_matches():
    db = path_database(length=2, size=120, domain=10, seed=12)
    query = path_query(2)
    serial = list(rank_enumerate(db, query, method="auto", k=30))
    parallel = list(rank_enumerate(db, query, method="auto", k=30, workers=3))
    assert parallel == serial
