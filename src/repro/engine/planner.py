"""Rule/cost-based engine router.

Given a conjunctive query, a ranking function, and the LIMIT ``k``, the
router picks the execution engine the paper's experiments argue for:

- **batch** (join + sort) when the whole output is wanted: its
  time-to-last is optimal, and with no LIMIT there is nothing for an
  anytime algorithm to win (E8's crossover).
- **ANYK-PART (lazy)** for small ``k``: the best time-to-k across the
  paper's workloads (E9), on acyclic queries directly, on the 4-cycle via
  the heavy/light union of trees (O~(n^1.5 + k)), and on other cyclic
  queries via a fractional-hypertree decomposition (O~(n^fhw + k)).
- **ANYK-REC** for deep ``k``: memoized recursive streams amortize
  better once enumeration goes deep (E9's large-k regime).
- **HRJN rank join** (top-k middleware, Part 1) for tiny ``k`` over a
  binary join: two sorted scans and a corner bound usually terminate
  after shallow prefixes, with none of the T-DP setup cost (E6) — chosen
  only when the inputs cannot blow up the bound (no cyclic structure).
- **LEX ranking** forces an any-k engine: its weight vectors follow the
  T-DP's stage order, which batch and the middleware do not keep.

``k`` is compared against the AGM bound of the query over the actual
relation sizes (:mod:`repro.query.agm`) — the worst-case output size that
worst-case-optimal engines are calibrated to.

Every decision is recorded as human-readable rationale lines; ``explain``
output renders them under the chosen plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional, TYPE_CHECKING

from repro.anyk.cyclic import is_fourcycle
from repro.anyk.ranking import RankingFunction, SUM
from repro.data.database import Database
from repro.engine.catalog import CatalogStats, StatsCache
from repro.query.agm import fractional_edge_cover
from repro.query.cq import ConjunctiveQuery
from repro.query.decomposition import min_fill_decomposition
from repro.query.hypergraph import gyo_reduction, is_free_connex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sql.analyzer import CompiledQuery

#: k at or below which a binary join is handed to the rank-join middleware.
RANK_JOIN_MAX_K = 16

#: k at or above which ANYK-REC's amortization beats ANYK-PART (E9 regime).
DEEP_K = 1000

#: Fraction of the AGM bound beyond which batch's optimal time-to-last wins.
BATCH_FRACTION = 0.5

#: Total input tuples below which fork+pickle overhead eats any sharding
#: win: a worker costs a process fork, a pickled shard payload, and IPC
#: per result chunk — roughly the T-DP preprocessing of a few thousand
#: tuples.  Below the floor the router runs serial even when workers are
#: offered.
PARALLEL_MIN_TUPLES = 4096

#: Why LEX and its dual, the rankings without a raw fold, need an any-k
#: engine.
_LEX_REASON = (
    "its weight vectors follow the T-DP's stage order, which only an "
    "any-k engine over an acyclic query keeps"
)


@dataclass(frozen=True)
class PlanEstimates:
    """Query-shape and size estimates feeding the routing rules."""

    acyclic: bool
    fourcycle: bool
    agm_bound: float
    cover_number: float
    fhw: Optional[float] = None  # only computed for general cyclic queries
    free_connex: Optional[bool] = None  # only computed for projections

    @property
    def shape(self) -> str:
        if self.acyclic:
            return "acyclic"
        if self.fourcycle:
            return "4-cycle"
        return f"cyclic (fhw ≈ {self.fhw:.2f})" if self.fhw else "cyclic"


@dataclass
class Plan:
    """The routing decision for one query.

    For SQL plans, ``working_db``/``working_cq`` carry the
    filter-pushed-down instance the plan was costed on, so the executor
    reuses it instead of re-materializing.
    """

    engine: str  # a rank_enumerate method, or "rank_join"
    query: ConjunctiveQuery
    ranking: RankingFunction
    k: Optional[int]
    estimates: PlanEstimates
    stats: CatalogStats
    rationale: list[str] = field(default_factory=list)
    working_db: Optional[Database] = None
    working_cq: Optional[ConjunctiveQuery] = None
    #: Partition-parallelism decision: 1 = serial; > 1 = hash/range-shard
    #: on ``shard_variable`` and merge per-shard ranked streams.
    workers: int = 1
    shard_variable: Optional[str] = None
    shard_policy: str = "hash"
    #: Version id of the snapshot this plan was costed on (None for
    #: plain, unversioned databases).  A mutation publishes a higher
    #: version, so any plan reporting an older one is known-stale.
    snapshot_version: Optional[int] = None
    #: Compiled-kernel pin (:class:`repro.anyk.kernels.KernelSlot`) for
    #: any-k engines: the first execution stores the shape's compiled
    #: template here, and — because the plan cache's soft-hit re-bind
    #: copies the dataclass sharing this field by reference — every
    #: later execution of the cached plan reuses it without even a
    #: template-cache lookup.  None for non-any-k engines and for plans
    #: routed outside the SQL layer.
    kernel_slot: Optional[Any] = None

    @property
    def is_anyk(self) -> bool:
        """True when an anytime ranked-enumeration engine was chosen."""
        return self.engine.startswith("part:") or self.engine == "rec"

    def describe(self) -> str:
        """Multi-line rendering (the body of EXPLAIN output)."""
        lines = [
            f"query:    {self.query}",
            f"shape:    {self.estimates.shape}",
            "sizes:    "
            + ", ".join(
                f"{a.relation}={a.size}" for a in self.stats.atoms
            )
            + f"  (n = {self.stats.max_size})",
            f"agm:      {self.estimates.agm_bound:.6g} worst-case results "
            f"(ρ* = {self.estimates.cover_number:.2f})",
            f"ranking:  {self.ranking.name}",
            f"k:        {self.k if self.k is not None else 'unbounded (no LIMIT)'}",
        ]
        if self.snapshot_version is not None:
            lines.insert(
                1, f"snapshot: version {self.snapshot_version}"
            )
        if self.estimates.free_connex is not None:
            lines.append(
                "free:     projection is "
                + ("" if self.estimates.free_connex else "NOT ")
                + "free-connex"
            )
        lines.append(f"engine:   {self.engine}")
        if self.workers > 1:
            lines.append(
                f"parallel: {self.workers} workers, {self.shard_policy}-"
                f"sharded on {self.shard_variable} (ranked streams merged "
                "with deterministic ties)"
            )
        lines.append("because:")
        lines.extend(f"  - {reason}" for reason in self.rationale)
        return "\n".join(lines)


def route(
    db: Database,
    query: ConjunctiveQuery,
    ranking: RankingFunction = SUM,
    k: Optional[int] = None,
    free_variables: Optional[tuple[str, ...]] = None,
    allow_middleware: bool = True,
    engine: Optional[str] = None,
    stats: Optional[CatalogStats] = None,
    workers: Optional[int] = None,
    shard_policy: str = "hash",
) -> Plan:
    """Choose an engine for ``query`` over ``db``.

    ``free_variables`` (when a projection is requested) only affects the
    free-connex annotation; execution always enumerates full rows.
    ``engine`` forces the choice (recorded as an override in the
    rationale).  ``stats`` lets a caller with a
    :class:`~repro.engine.catalog.StatsCache` supply pre-gathered
    statistics instead of re-scanning the catalog.  ``workers`` offers a
    process budget for partition-parallel execution; the router takes it
    only when the chosen engine shards soundly *and* the input is big
    enough to amortize fork+pickle overhead (see
    :data:`PARALLEL_MIN_TUPLES`) — the outcome lands in ``plan.workers``
    and the rationale either way.
    """
    query.validate(db)
    if stats is None:
        stats = CatalogStats.gather(db, query)
    tree = gyo_reduction(query)
    acyclic = tree is not None
    fourcycle = False if acyclic else is_fourcycle(query)
    cover = fractional_edge_cover(query, stats.sizes)
    fhw = None
    if not acyclic and not fourcycle:
        fhw = min_fill_decomposition(query).fractional_hypertree_width()
    free_connex = None
    if free_variables is not None and set(free_variables) != set(query.variables):
        free_connex = is_free_connex(query, free_variables)
    estimates = PlanEstimates(
        acyclic=acyclic,
        fourcycle=fourcycle,
        agm_bound=cover.bound if not stats.any_empty() else 0.0,
        cover_number=cover.cover_number,
        fhw=fhw,
        free_connex=free_connex,
    )
    plan = Plan(
        engine="part:lazy",
        query=query,
        ranking=ranking,
        k=k,
        estimates=estimates,
        stats=stats,
    )
    if engine is not None:
        plan.engine = engine
        plan.rationale.append(f"engine {engine!r} forced by the caller")
    else:
        _decide(plan, allow_middleware=allow_middleware)
    _decide_parallelism(plan, workers, shard_policy)
    return plan


def _decide_parallelism(
    plan: Plan, workers: Optional[int], shard_policy: str
) -> None:
    """Take (or decline) an offered worker budget; record why."""
    if workers is None or workers <= 1:
        return  # nothing offered: serial silently
    say = plan.rationale.append
    from repro.parallel import is_shardable
    from repro.parallel.sharding import choose_shard_variable

    if not is_shardable(plan.query, plan.ranking, plan.engine):
        say(
            f"{workers} workers offered, running serial: engine "
            f"{plan.engine!r} over this query/ranking cannot be sharded "
            "soundly (needs an acyclic shape and a registered ranking)"
        )
        return
    # Per-query input: sum of atom sizes (a self-joined relation feeds
    # every one of its atoms, so it counts once per atom).
    input_tuples = sum(atom.size for atom in plan.stats.atoms)
    if input_tuples < PARALLEL_MIN_TUPLES:
        say(
            f"{workers} workers offered, running serial: "
            f"{input_tuples} input tuples are below the "
            f"{PARALLEL_MIN_TUPLES}-tuple floor where fork+pickle "
            "overhead amortizes"
        )
        return
    plan.workers = workers
    plan.shard_variable = choose_shard_variable(plan.query)
    plan.shard_policy = shard_policy
    say(
        f"sharding across {workers} workers on {plan.shard_variable} "
        f"({shard_policy}): {input_tuples} input tuples amortize "
        "process overhead, and the k-way merge preserves the exact "
        "ranked order"
    )


def _decide(plan: Plan, allow_middleware: bool) -> None:
    est = plan.estimates
    k = plan.k
    say = plan.rationale.append

    if plan.ranking.raw_combine is None:
        say(f"lex ranking: {_LEX_REASON}")
        plan.engine = _anyk_engine(plan, say)
        return

    if plan.stats.any_empty():
        say("an input relation is empty, so the output is empty; batch "
            "finishes immediately")
        plan.engine = "batch"
        return

    if k is None:
        say(
            "no LIMIT: the full result is wanted, and batch (join + sort) "
            "has optimal time-to-last — anytime delivery buys nothing here"
        )
        plan.engine = "batch"
        return

    if k >= BATCH_FRACTION * est.agm_bound:
        say(
            f"k = {k} is ≥ {BATCH_FRACTION:.0%} of the AGM worst-case "
            f"output ({est.agm_bound:.6g}): enumeration would nearly drain "
            "the result anyway, so batch's optimal time-to-last wins (E8)"
        )
        plan.engine = "batch"
        return

    if (
        allow_middleware
        and est.acyclic
        and len(plan.query.atoms) == 2
        and plan.ranking is SUM
        and k <= min(RANK_JOIN_MAX_K, math.isqrt(max(1, plan.stats.max_size)))
    ):
        say(
            f"binary join with tiny k = {k} (≤ √n): the HRJN corner "
            "bound usually stops after shallow sorted prefixes, skipping "
            "T-DP setup entirely (Part 1 middleware, E6)"
        )
        plan.engine = "rank_join"
        return

    say(
        f"k = {k} is small against the AGM worst case "
        f"({est.agm_bound:.6g}): anytime ranked enumeration avoids paying "
        "for the full join"
    )
    if est.fourcycle:
        say(
            "4-cycle shape: heavy/light union of trees gives the "
            "submodular-width O~(n^1.5 + k) pipeline (§3)"
        )
    elif not est.acyclic:
        say(
            f"cyclic shape: one GHD rewrite (fhw ≈ {est.fhw:.2f}) "
            f"materializes O~(n^{est.fhw:.2f}) derived relations, then the "
            "acyclic any-k pipeline runs on top"
        )
    plan.engine = _anyk_engine(plan, say)


def _anyk_engine(plan: Plan, say) -> str:
    k = plan.k
    if k is not None and k >= DEEP_K:
        say(
            f"k = {k} is deep (≥ {DEEP_K}): ANYK-REC's memoized streams "
            "amortize repeated work best in the large-k regime (E9)"
        )
        return "rec"
    say(
        "ANYK-PART with the lazy successor strategy has the best "
        "time-to-k for small k across the paper's workloads (E9)"
    )
    return "part:lazy"


def choose_method(
    db: Database,
    query: ConjunctiveQuery,
    ranking: RankingFunction = SUM,
    k: Optional[int] = None,
) -> str:
    """A :func:`repro.anyk.rank_enumerate`-compatible method name.

    The ``method="auto"`` entry point of the any-k API: same routing rules,
    restricted to engines ``rank_enumerate`` itself accepts (the rank-join
    middleware is only reachable through the SQL layer).
    """
    return route(db, query, ranking=ranking, k=k, allow_middleware=False).engine


def plan_compiled(
    db: Database,
    compiled: "CompiledQuery",
    engine: Optional[str] = None,
    stats_cache: Optional[StatsCache] = None,
    workers: Optional[int] = None,
) -> Plan:
    """Route a SQL :class:`~repro.sql.analyzer.CompiledQuery`.

    ``stats_cache`` (the server's cached-stats catalog) short-cuts the
    statistics scan over the filtered working instance.  ``workers``
    offers a partition-parallelism budget (``repro-serve --workers``),
    subject to the same routing rules as :func:`route`.
    """
    from repro.engine.executor import filtered_database

    if compiled.is_template:
        from repro.sql.errors import SqlError

        raise SqlError(
            "statement has unbound parameters (?); supply a params vector "
            "(the server's 'params' request field) or inline the values"
        )
    # Plan on the filtered instance: filters change the stats the router
    # reads.
    working_db, working_cq = filtered_database(db, compiled)
    stats = (
        stats_cache.gather(working_db, working_cq)
        if stats_cache is not None
        else None
    )
    plan = route(
        working_db,
        working_cq,
        ranking=compiled.ranking,
        k=compiled.k,
        free_variables=(
            compiled.free_variables if compiled.is_projection else None
        ),
        engine=engine,
        stats=stats,
        workers=workers,
    )
    plan.working_db = working_db
    plan.working_cq = working_cq
    if plan.is_anyk:
        from repro.anyk.kernels import KernelSlot

        plan.kernel_slot = KernelSlot()
    # Versioned snapshots stamp their Database; recording it lets EXPLAIN
    # say exactly which data generation the costing read.
    plan.snapshot_version = db.version
    # Combinations that would die with a bare TypeError mid-stream
    # (RankingFunction.float_combine on a vector carrier) are rejected
    # here with a proper SQL diagnostic instead.
    if compiled.ranking.raw_combine is None and (
        not plan.estimates.acyclic or plan.engine in ("batch", "rank_join")
    ):
        from repro.sql.errors import SqlError

        order = compiled.statement.order_by
        raise SqlError(
            f"lex(weight) cannot run here: {_LEX_REASON}",
            compiled.sql,
            order.pos if order is not None else None,
        )
    if compiled.filters:
        plan.rationale.append(
            "constant filters applied before planning: "
            + "; ".join(str(f) for f in compiled.filters)
        )
    if compiled.descending:
        plan.rationale.append(
            f"DESC: ranked ascending by {compiled.ranking.name!r}, the "
            "order dual (negated lift), and the sign flipped back on output"
        )
    if compiled.is_projection and plan.estimates.free_connex is False:
        plan.rationale.append(
            "projection is not free-connex: full rows are enumerated and "
            "projected on emission (duplicates are kept, bag semantics)"
        )
    return plan
