"""Correctness checks every run performs on what it measured.

Engine workloads: the first measured stream is compared with a
recompute by the ``batch`` engine (full join, then sort) — a different
algorithm that shares no T-DP, heap or kernel code with the any-k
engines.  On the 4-path instance the full join has ~2 * 10^7 rows, so
batch runs on the instance *pruned to the tuples that can take part in a
result no heavier than the k-th one measured*: a forward and a backward
minimum over the path (this file's own twenty lines, not the program's)
bound the lightest result through each tuple.  Every result at or below
the threshold survives the pruning and nothing is added, so the top k of
the pruned join are the top k of the full join.

The comparison tolerates last-digit differences: the engines add the
same four weights in different orders, and on the 4-cycle each cycle
appears as four rotations whose sums can differ in the last bit, which
reorders them.  It demands the same weights rank by rank, that every
measured row is a join result of that weight, and that no lighter join
result is missing.

Wire workloads: a sampled session's pages, concatenated, must equal
``repro.sql.query`` on the bench's shadow database at the snapshot
version the server pinned the cursor to.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Sequence

#: Weight differences below this are float association order, not errors.
WEIGHT_EPS = 1e-9

Stream = Sequence[tuple[tuple, Any]]


def strip_limit(sql: str) -> str:
    return sql.rsplit(" LIMIT ", 1)[0]


def pruned_path_database(db, threshold: float):
    """``db`` (relations R1..Rn of a path) without the tuples whose
    lightest completion weighs more than ``threshold``."""
    from repro.data.database import Database
    from repro.data.relation import Relation

    relations = [
        db[name] for name in sorted(db.names(), key=lambda name: int(name[1:]))
    ]
    last = len(relations) - 1
    inf = math.inf
    # forward[i][b]: lightest partial path through relations 0..i ending in b
    forward: list[dict] = []
    for index, relation in enumerate(relations):
        here: dict = {}
        for (a, b), weight in zip(relation.rows, relation.weights):
            total = weight + (forward[index - 1].get(a, inf) if index else 0.0)
            if total < here.get(b, inf):
                here[b] = total
        forward.append(here)
    # backward[i][a]: lightest partial path through relations i..last from a
    backward: list[dict] = [{} for _ in relations]
    for index in range(last, -1, -1):
        here = backward[index]
        relation = relations[index]
        for (a, b), weight in zip(relation.rows, relation.weights):
            total = weight + (
                backward[index + 1].get(b, inf) if index < last else 0.0
            )
            if total < here.get(a, inf):
                here[a] = total
    limit = threshold + WEIGHT_EPS
    pruned = []
    for index, relation in enumerate(relations):
        kept = Relation(relation.name, relation.schema)
        for (a, b), weight in zip(relation.rows, relation.weights):
            before = forward[index - 1].get(a, inf) if index else 0.0
            after = backward[index + 1].get(b, inf) if index < last else 0.0
            if before + weight + after <= limit:
                kept.add((a, b), weight)
        pruned.append(kept)
    return Database(pruned)


def batch_reference(db, sql: str, measured: Stream, prune_path: bool) -> list:
    """The full ranked result of ``sql`` (LIMIT removed) by ``batch``."""
    import repro.sql

    if prune_path and measured:
        db = pruned_path_database(db, measured[-1][1])
    return repro.sql.query(db, strip_limit(sql), engine="batch").fetchall()


def check_topk(measured: Stream, reference: Stream, k: int) -> list[str]:
    """Problems with ``measured`` as the top ``k`` of ``reference``."""
    problems: list[str] = []
    expected = min(k, len(reference))
    if len(measured) != expected:
        return [f"{len(measured)} rows measured, {expected} expected"]
    if not expected:
        return problems
    for rank, ((_, got), (_, want)) in enumerate(zip(measured, reference)):
        if abs(got - want) > WEIGHT_EPS:
            problems.append(f"rank {rank}: weight {got!r}, reference {want!r}")
            break
    if any(
        later[1] < earlier[1] for earlier, later in zip(measured, measured[1:])
    ):
        problems.append("measured weights decrease somewhere")
    available: dict[tuple, list[float]] = defaultdict(list)
    for row, weight in reference:
        available[tuple(row)].append(weight)
    for rank, (row, weight) in enumerate(measured):
        candidates = available.get(tuple(row), [])
        for index, candidate in enumerate(candidates):
            if abs(candidate - weight) <= WEIGHT_EPS:
                del candidates[index]
                break
        else:
            problems.append(
                f"rank {rank}: {row!r} @ {weight!r} is not a join result"
            )
            return problems
    boundary = reference[expected - 1][1] - WEIGHT_EPS
    missing = sum(
        1
        for weights in available.values()
        for weight in weights
        if weight < boundary
    )
    if missing:
        problems.append(f"{missing} lighter join results were not emitted")
    return problems


def wire_rows(rows: list) -> list[tuple[tuple, Any]]:
    """Wire ``[row, weight]`` pairs as the library's ``(row, weight)``."""
    return [
        (tuple(row), tuple(weight) if isinstance(weight, list) else weight)
        for row, weight in rows
    ]


def session_reference(snapshot, sql: str, engine: str) -> list:
    """What a wire session must deliver: the in-process stream."""
    import repro.sql

    return repro.sql.query(snapshot, sql, engine=engine).fetchall()


def check_session(expected: list, rows: list, sql: str) -> list[str]:
    """Problems with a wire session's rows against ``expected``."""
    got = wire_rows(rows)
    if got == expected:
        return []
    for rank, (mine, theirs) in enumerate(zip(got, expected)):
        if mine != theirs:
            return [f"{sql!r} rank {rank}: got {mine!r}, expected {theirs!r}"]
    return [f"{sql!r}: {len(got)} rows, expected {len(expected)}"]
