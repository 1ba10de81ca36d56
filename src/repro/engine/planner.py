"""Rule/cost-based engine router.

Given a conjunctive query, a ranking function, and the LIMIT ``k``, the
router picks the execution engine the paper's experiments argue for:

- **batch** (join + sort) when the whole output is wanted: its
  time-to-last is optimal, and with no LIMIT there is nothing for an
  anytime algorithm to win (E8's crossover).
- **ANYK-PART (lazy)** for every other ``k``: on acyclic queries
  directly, on the 4-cycle via the heavy/light union of trees
  (O~(n^1.5 + k)), and on other cyclic queries via a
  fractional-hypertree decomposition (O~(n^fhw + k)), or via the full
  join when that rewrite collapses to one bag (every cycle of length
  ≥ 5; EXPLAIN says so).  ANYK-REC stays a
  forced method only: here PART's time-to-k is the lower one at every
  measured k, 1,000 to 100,000, and one any-k engine keeps a cached
  routing's stream independent of the bound LIMIT.
- **LEX ranking** forces ANYK-PART: its weight vectors follow the
  T-DP's stage order, which batch does not keep.

Every choice is a :func:`repro.anyk.rank_enumerate` method, so
``method="auto"`` there is exactly ``route(...).engine``.  The HRJN rank
join (:mod:`repro.topk.rank_join`) is a Part 1 library operator, not a
routed engine: it sorts both whole inputs and degrades toward full
materialization when the winners sit deep, which the router cannot
observe.

``k`` is compared against the AGM bound of the query over the actual
relation sizes (:mod:`repro.query.agm`) — the worst-case output size that
worst-case-optimal engines are calibrated to.

Every decision is recorded as human-readable rationale lines; ``explain``
output renders them under the chosen plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, TYPE_CHECKING

from repro.anyk.api import query_shape
from repro.anyk.ranking import RankingFunction, SUM
from repro.data.database import Database
from repro.engine.catalog import CatalogStats
from repro.query.agm import fractional_edge_cover
from repro.query.cq import ConjunctiveQuery
from repro.query.decomposition import best_decomposition, collapses_to_full_join
from repro.query.hypergraph import is_free_connex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sql.analyzer import CompiledQuery

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

#: Why every routed any-k choice is ANYK-PART (lazy) and never ANYK-REC.
_PART_REASON = (
    "ANYK-PART with the lazy successor strategy: its time-to-k is below "
    "ANYK-REC's at every k measured here, 1,000 to 100,000, on paths, "
    "stars, trees and the 4-cycle"
)


@dataclass(frozen=True)
class PlanEstimates:
    """Query-shape and size estimates feeding the routing rules."""

    acyclic: bool
    fourcycle: bool
    agm_bound: float
    cover_number: float
    fhw: Optional[float] = None  # only computed for general cyclic queries
    full_join: bool = False  # the GHD rewrite collapses to one bag
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

    engine: str  # a rank_enumerate method
    query: ConjunctiveQuery
    ranking: RankingFunction
    k: Optional[int]
    estimates: PlanEstimates
    stats: CatalogStats
    rationale: list[str] = field(default_factory=list)
    working_db: Optional[Database] = None
    working_cq: Optional[ConjunctiveQuery] = None
    #: Partition-parallelism decision: 1 = serial; > 1 = hash-shard on
    #: ``shard_variable`` and merge per-shard ranked streams.
    workers: int = 1
    shard_variable: Optional[str] = None
    #: Version id of the snapshot this plan was costed on (None for
    #: plain, unversioned databases).  A mutation publishes a higher
    #: version, so any plan reporting an older one is known-stale.
    snapshot_version: Optional[int] = None
    #: Compiled-kernel pin (:class:`repro.anyk.kernels.KernelSlot`) for
    #: any-k engines: the plan's first execution stores the shape's
    #: compiled template here (EXPLAIN ANALYZE reports ``slot=warm``),
    #: and a later execution of the same plan reuses it without a
    #: template-cache lookup.  A slot lives as long as its plan, which in
    #: the server is one request; across requests the process-wide
    #: template cache serves the shape.  None for non-any-k engines and
    #: for plans routed outside the SQL layer.
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
                f"parallel: {self.workers} workers, hash-sharded on "
                f"{self.shard_variable} (ranked streams merged "
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
    engine: Optional[str] = None,
    workers: Optional[int] = None,
) -> Plan:
    """Choose an engine for ``query`` over ``db``.

    ``free_variables`` (when a projection is requested) only affects the
    free-connex annotation; execution always enumerates full rows.
    ``engine`` forces the choice (recorded as an override in the
    rationale).  ``workers`` offers a
    process budget for partition-parallel execution; the router takes it
    only when the chosen engine shards soundly *and* the input is big
    enough to amortize fork+pickle overhead (see
    :data:`PARALLEL_MIN_TUPLES`) — the outcome lands in ``plan.workers``
    and the rationale either way.
    """
    query.validate(db)
    stats = CatalogStats.gather(db, query)
    shape = query_shape(query)
    cover = fractional_edge_cover(query, stats.sizes)
    fhw, full_join = None, False
    if shape.kind == "ghd":
        decomposition = best_decomposition(query)  # the one the rewrite uses
        fhw = decomposition.fractional_hypertree_width()
        full_join = collapses_to_full_join(query, decomposition)
    free_connex = None
    if free_variables is not None and set(free_variables) != set(query.variables):
        free_connex = is_free_connex(query, free_variables)
    estimates = PlanEstimates(
        acyclic=shape.kind == "acyclic",
        fourcycle=shape.kind == "4-cycle",
        agm_bound=cover.bound if not stats.any_empty() else 0.0,
        cover_number=cover.cover_number,
        fhw=fhw,
        full_join=full_join,
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
        _decide(plan)
    _decide_parallelism(plan, workers)
    return plan


def _decide_parallelism(plan: Plan, workers: Optional[int]) -> None:
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
    say(
        f"sharding across {workers} workers on {plan.shard_variable} "
        f"(hash): {input_tuples} input tuples amortize "
        "process overhead, and the k-way merge preserves the exact "
        "ranked order"
    )


def _decide(plan: Plan) -> None:
    est = plan.estimates
    k = plan.k
    say = plan.rationale.append

    if plan.ranking.raw_combine is None:
        say(f"lex ranking: {_LEX_REASON}")
        say(_PART_REASON)
        plan.engine = "part:lazy"
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
    elif est.full_join:
        say(
            f"cyclic shape: the GHD rewrite (fhw ≈ {est.fhw:.2f}) is not "
            "acyclic over its bags' atoms, so the full join "
            f"(O~(n^{est.cover_number:.2f}) worst case) is materialised as "
            "one bag before the first answer; any-k only ranks it"
        )
    elif not est.acyclic:
        say(
            f"cyclic shape: one GHD rewrite (fhw ≈ {est.fhw:.2f}) "
            f"materializes O~(n^{est.fhw:.2f}) derived relations, then the "
            "acyclic any-k pipeline runs on top"
        )
    say(_PART_REASON)
    plan.engine = "part:lazy"


def plan_compiled(
    db: Database,
    compiled: "CompiledQuery",
    engine: Optional[str] = None,
    workers: Optional[int] = None,
) -> Plan:
    """Route a SQL :class:`~repro.sql.analyzer.CompiledQuery`.

    ``workers`` offers a partition-parallelism budget (``repro-serve
    --workers``), subject to the same routing rules as :func:`route`.
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
    plan = route(
        working_db,
        working_cq,
        ranking=compiled.ranking,
        k=compiled.k,
        free_variables=(
            compiled.free_variables if compiled.is_projection else None
        ),
        engine=engine,
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
        not plan.estimates.acyclic or plan.engine == "batch"
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
