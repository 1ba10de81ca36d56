"""The five workloads, their sizes, and their materialised request traces.

Everything a run feeds the program is a pure function of ``(workload,
sizes, seed)`` and is built here *before* anything is timed; the trace's
sha256 goes into every result line, so two runs that claim the same seed
can be checked to have asked the same questions of the same data.

All workloads are closed loops with one driver thread: the next request
is sent only when the previous one (or, pipelined, one of the window of
eight) has completed.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Optional

#: Rows a wire session asks for, inline with the query and per fetch.
SESSION_LIMIT = 100
INLINE_ROWS = 10
PAGE_ROWS = 25

#: serve_churn: one mutation before every Nth session, inserted rows held
#: at this many.
MUTATE_EVERY = 5
LIVE_INSERTS = 20

#: serve_pipelined: sessions in flight, and sessions per calibrated round.
PIPELINE_WINDOW = 8
PIPELINE_ROUND = 32

#: Wire sessions between calibration bursts (serve_churn) stop at this.
ROUND_SECONDS = 0.25

#: Every Nth wire session is replayed against the shadow database.
VERIFY_EVERY = 10


@dataclass(frozen=True)
class Sizes:
    """Instance sizes; ``SMOKE`` exists for the self-check only."""

    label: str
    path_size: int
    path_domain: int
    path_k: int
    cycle_edges: int
    cycle_nodes: int
    cycle_k: int
    serve_size: int
    serve_domain: int
    trace_sessions: int
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats: int
    #: Whether a p90 with fewer than ten samples beyond it is an error.
    strict_tail: bool


FULL = Sizes(
    label="full",
    path_size=2500,
    path_domain=125,
    path_k=5000,
    cycle_edges=2000,
    cycle_nodes=270,
    cycle_k=1000,
    serve_size=400,
    serve_domain=50,
    trace_sessions=16384,
    setup_repeats=3,
    strict_tail=True,
)

SMOKE = Sizes(
    label="smoke",
    path_size=120,
    path_domain=12,
    path_k=200,
    cycle_edges=150,
    cycle_nodes=30,
    cycle_k=50,
    serve_size=120,
    serve_domain=15,
    trace_sessions=512,
    setup_repeats=1,
    strict_tail=False,
)

PATH4_SQL = (
    "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 JOIN R3 ON R2.A3 = R3.A3 "
    "JOIN R4 ON R3.A4 = R4.A4 ORDER BY weight LIMIT {k}"
)

CYCLE4_SQL = (
    "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
    "JOIN E AS e3 ON e2.dst = e3.src "
    "JOIN E AS e4 ON e3.dst = e4.src AND e4.dst = e1.src "
    "ORDER BY weight LIMIT {k}"
)

_PAIR = "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2"
_TRIPLE = _PAIR + " JOIN R3 ON R2.A3 = R3.A3"

#: Wire templates in popularity order (rank 1 first; Zipf exponent 1.1).
#: ``{v}`` is a join-key value drawn per session.
TEMPLATES: tuple[tuple[str, str], ...] = (
    ("pair", _PAIR + " ORDER BY weight LIMIT {limit}"),
    ("triple_sum", _TRIPLE + " ORDER BY weight LIMIT {limit}"),
    (
        "point_pair",
        _PAIR + " WHERE R1.A1 = {v} ORDER BY weight LIMIT {limit}",
    ),
    ("triple_max", _TRIPLE + " ORDER BY max(weight) LIMIT {limit}"),
    ("pair_desc", _PAIR + " ORDER BY weight DESC LIMIT {limit}"),
    (
        "scan",
        "SELECT * FROM R2 WHERE R2.A2 = {v} ORDER BY weight LIMIT {limit}",
    ),
)
ZIPF_EXPONENT = 1.1

#: Inserted rows carry A1 values from here up, outside every generated
#: domain, so deleting one never touches a generated row.
INSERT_KEY_BASE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "engine" | "wire"
    why: str
    #: engine workloads: forced engine (None = the router decides).
    engine: Optional[str] = None


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "path_part",
        "engine",
        "in-process 4-path, part:lazy, k=5000: the paper's acyclic any-k "
        "case; ttf isolates T-DP preprocessing, delay the PART loop",
        engine="part:lazy",
    ),
    Workload(
        "path_rec",
        "engine",
        "same instance and k through rec: same T-DP and kernels, memoised "
        "streams and far more allocation; kernel changes are judged on both",
        engine="rec",
    ),
    Workload(
        "cycle_topk",
        "engine",
        "in-process 4-cycle, router-chosen engine, k=1000: heavy/light "
        "preprocessing dominates and no kernels run, so loop and kernel "
        "changes predict no change here",
    ),
    Workload(
        "serve_churn",
        "wire",
        "repro-serve, one synchronous newline-JSON client, six Zipf "
        "templates, a write before every 5th session: plan-cache "
        "validation, COW snapshots and filter copies beside reads",
    ),
    Workload(
        "serve_pipelined",
        "wire",
        "same server and templates, read-only, one binary-framed "
        "connection holding 8 sessions in flight: executor queueing and "
        "write-lock head-of-line blocking",
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


# ----------------------------------------------------------------------
# Engine workloads
# ----------------------------------------------------------------------
def engine_database(name: str, sizes: Sizes, seed: int):
    """The seeded instance of an engine workload."""
    from repro.data.generators import path_database, random_graph_database

    if name == "cycle_topk":
        return random_graph_database(
            num_edges=sizes.cycle_edges, num_nodes=sizes.cycle_nodes, seed=seed
        )
    return path_database(
        length=4, size=sizes.path_size, domain=sizes.path_domain, seed=seed
    )


def engine_sql(name: str, sizes: Sizes) -> str:
    if name == "cycle_topk":
        return CYCLE4_SQL.format(k=sizes.cycle_k)
    return PATH4_SQL.format(k=sizes.path_k)


def engine_trace(name: str, sizes: Sizes, seed: int, db) -> dict:
    """What an engine run asks, plus a digest of the instance it asks it of."""
    digest = hashlib.sha256()
    for relation_name in db.names():
        relation = db[relation_name]
        digest.update(relation_name.encode("utf-8"))
        digest.update(repr(relation.rows).encode("utf-8"))
        digest.update(repr(relation.weights).encode("utf-8"))
    return {
        "workload": name,
        "seed": seed,
        "sizes": sizes.label,
        "sql": engine_sql(name, sizes),
        "engine": BY_NAME[name].engine,
        "instance_sha256": digest.hexdigest(),
    }


# ----------------------------------------------------------------------
# Wire workloads
# ----------------------------------------------------------------------
def serve_spec(sizes: Sizes, seed: int) -> str:
    """The ``repro-serve --gen`` spec; the shadow database parses the same."""
    return (
        f"path:length=3,size={sizes.serve_size},"
        f"domain={sizes.serve_domain},seed={seed}"
    )


def _zipf_cumulative(n: int, exponent: float) -> list[float]:
    weights = [1.0 / (rank**exponent) for rank in range(1, n + 1)]
    total = sum(weights)
    running, out = 0.0, []
    for weight in weights:
        running += weight / total
        out.append(running)
    out[-1] = 1.0
    return out


def wire_trace(name: str, sizes: Sizes, seed: int) -> list[dict]:
    """The step list of a wire run: sessions, and for churn, mutations.

    A session step is ``{"kind": "session", "template", "sql"}``; a
    mutation step ``{"kind": "mutate", "sql"}``.  The first
    ``LIVE_INSERTS`` mutations insert; after that deletes of the oldest
    inserted row alternate with inserts, so the live count stays put.
    """
    rng = random.Random(f"{seed}/{name}")
    cumulative = _zipf_cumulative(len(TEMPLATES), ZIPF_EXPONENT)
    churn = name == "serve_churn"
    steps: list[dict] = []
    inserted = 0
    deleted = 0
    for session in range(sizes.trace_sessions):
        if churn and session % MUTATE_EVERY == 0:
            if inserted - deleted >= LIVE_INSERTS:
                sql = f"DELETE FROM R1 WHERE A1 = {INSERT_KEY_BASE + deleted}"
                deleted += 1
            else:
                sql = (
                    "INSERT INTO R1 (A1, A2, weight) VALUES "
                    f"({INSERT_KEY_BASE + inserted}, "
                    f"{rng.randrange(sizes.serve_domain)}, "
                    f"{round(rng.random(), 6)})"
                )
                inserted += 1
            steps.append({"kind": "mutate", "sql": sql})
        template, sql = TEMPLATES[bisect.bisect_left(cumulative, rng.random())]
        steps.append(
            {
                "kind": "session",
                "template": template,
                "sql": sql.format(
                    v=rng.randrange(sizes.serve_domain), limit=SESSION_LIMIT
                ),
            }
        )
    return steps


def trace_sha256(trace) -> str:
    canonical = json.dumps(trace, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
