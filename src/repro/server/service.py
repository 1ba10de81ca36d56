"""The transport-agnostic query service: dicts in, dicts out.

:class:`QueryService` is the whole server minus the sockets — request
validation, plan caching, cursor lifecycle, deadlines, and error mapping
all live here, so tests and benchmarks exercise the real code paths
in-process and the TCP layer (:mod:`repro.server.tcp`) stays a dumb pipe.

The request/response shapes are those of
:mod:`repro.server.protocol`; :meth:`QueryService.handle` is the single
entry point the wire handler calls per line.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace as dc_replace
from typing import Any, Optional, Sequence

from repro.anyk.api import PausableStream, StreamClosed
from repro.data.database import Database
from repro.dynamic import MutationError, VersionedDatabase
from repro.engine.catalog import StatsCache, database_fingerprint
from repro.engine.executor import apply_mutation, execute
from repro.engine.planner import plan_compiled
from repro.obs.delay import DELAY_BOUNDS, DelayProfile
from repro.obs.events import EventLog
from repro.obs.memory import MEM_BOUNDS, MemoryProfile
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import (
    DEFAULT_SLOS,
    DEFAULT_WINDOWS_S,
    SloEngine,
    parse_slos,
    spec_counts,
)
from repro.obs.trace import parse_traceparent, render_trace_tree, tracer
from repro.util.histogram import Histogram
from repro.query.cq import QueryError
# Submodule-style import: safe under the package's partially-initialized
# state when ``repro.server/__init__`` pulls this module in (PEP 328's
# sys.modules fallback applies to ``import a.b as b``).
import repro.server.protocol as protocol
from repro.server.cursors import (
    CursorLimitError,
    CursorManager,
    MemoryPressureError,
    UnknownCursorError,
)
from repro.server.plancache import (
    RECOST_DRIFT,
    CachedPlan,
    PlanCache,
    bind_compiled,
    fingerprint_drift,
    parameterize_sql,
)
from repro.sql import _check_engine
from repro.sql.analyzer import analyze_mutation, analyze_statement
from repro.sql.errors import SqlError
from repro.util.counters import Counters


@dataclass
class BoundPlan:
    """One request's executable view of a cached template entry.

    ``compiled`` is fully concrete (every parameter bound), ``plan`` is
    either the entry's own costed plan (the fast path: same catalog
    generation, same bound values) or a cheap per-request copy whose
    working instance is rebuilt from the request snapshot at execution
    time.  Mirrors the ``.compiled``/``.plan`` attribute shape of
    :class:`~repro.server.plancache.CachedPlan` so call sites read the
    same either way.
    """

    compiled: Any
    plan: Any


class QueryService:
    """Stateful any-k query service over one versioned database.

    Parameters
    ----------
    db:
        The catalog to serve — a plain :class:`Database` (wrapped in a
        fresh :class:`~repro.dynamic.VersionedDatabase` internally) or an
        existing ``VersionedDatabase`` to share with in-process writers.
        Mutations arrive through the ``mutate`` op and publish
        copy-on-write snapshots: open cursors keep draining the exact
        snapshot they were planned on, new queries see the newest
        version, and per-version fingerprints invalidate stale plan and
        statistics cache entries while untouched relations keep theirs.
    max_cursors:
        Admission limit on concurrently open cursors.
    max_mem_mb:
        Server-wide memory watermark in MB (``repro-serve
        --max-mem-mb``): once the accounted live bytes of all open
        cursors' engine structures reach it, new queries first trigger
        idle-cursor eviction and are then refused with a clean
        ``mem_pressure`` error while still over — admission control
        replacing an eventual OOM.  None (the default) disables the
        watermark; per-cursor accounting still runs.
    mem_evict_idle_s:
        Minimum idle age before memory pressure may evict a cursor
        (protects sessions a client is actively paging through).
    plan_cache_size / stats_cache_size:
        LRU capacities of the plan cache and the cached-stats catalog.
    default_batch:
        Rows per ``fetch`` when the request does not say.
    idle_evict_s:
        Idle age beyond which a cursor may be evicted under admission
        pressure (None: never evict, reject instead).
    workers:
        Partition-parallelism budget offered to the router per query
        (``repro-serve --workers``).  The router still declines sharding
        for small inputs and unshardable shapes; cursors over merged
        parallel streams pause/resume/evict exactly like serial ones.
    readonly:
        Refuse ``mutate`` requests with a clean ``sql_error``
        (``repro-serve --readonly``).
    trace_capacity:
        Resize the process tracer's ring buffer
        (``repro-serve --trace-capacity``; None keeps the current size).
    event_log:
        An :class:`~repro.obs.events.EventLog` to record sampled
        per-request events into (``repro-serve --query-log``).
    slos:
        SLO spec strings (see :mod:`repro.obs.slo`) evaluated over
        rolling windows and served by the ``slo`` op.  None means the
        generous :data:`~repro.obs.slo.DEFAULT_SLOS`; an explicit empty
        sequence disables evaluation.
    slo_windows_s:
        Rolling window lengths in seconds for burn-rate evaluation.
    """

    def __init__(
        self,
        db: Database,
        max_cursors: int = 64,
        max_mem_mb: Optional[float] = None,
        mem_evict_idle_s: float = 1.0,
        plan_cache_size: int = 128,
        stats_cache_size: int = 1024,
        default_batch: int = 100,
        idle_evict_s: Optional[float] = 600.0,
        workers: int = 1,
        readonly: bool = False,
        trace_capacity: Optional[int] = None,
        event_log: Optional[EventLog] = None,
        slos: Optional[Sequence[str]] = None,
        slo_windows_s: Sequence[float] = DEFAULT_WINDOWS_S,
    ) -> None:
        self.versioned = (
            db if isinstance(db, VersionedDatabase) else VersionedDatabase(db)
        )
        self.workers = workers
        self.readonly = readonly
        self.plan_cache = PlanCache(plan_cache_size)
        self.stats_cache = StatsCache(stats_cache_size)
        self.cursors = CursorManager(
            max_cursors,
            idle_evict_s=idle_evict_s,
            # Evicted sessions' work lands in the aggregate exactly like
            # explicitly closed ones.
            on_evict=self._retire,
        )
        self.default_batch = default_batch
        #: Memory watermark in bytes (None: no admission watermark).
        self.max_mem_bytes = (
            None if max_mem_mb is None else int(max_mem_mb * 1024 * 1024)
        )
        self.mem_evict_idle_s = mem_evict_idle_s
        self._mem_rejected = 0
        self._mem_evicted = 0
        #: Server-wide RAM-model work, aggregated from per-cursor counters
        #: when cursors close (thread-safe merge).
        self.counters = Counters()
        self._started = time.monotonic()
        self._metrics_lock = threading.Lock()
        self._queries = 0
        self._fetches = 0
        self._rows_served = 0
        self._mutations = 0
        self._requests = 0
        self._errors = 0
        # Observability: one metrics registry per service (tests stay
        # isolated), the *process* tracer enabled once (spans are
        # per-request, far off the per-result hot path), and per-engine
        # anytime-delay aggregates folded from cursors as they retire.
        tracer.enable()
        if trace_capacity is not None:
            tracer.set_capacity(trace_capacity)
        self.registry = MetricsRegistry()
        #: Per-op request wall time (ms) — errors included, since a
        #: failing request still costs the server time.  Backs the
        #: ``stats`` op's ``op_latency_ms`` (count/mean/max plus
        #: p50/p95/p99) and the ``metrics`` op's histogram series.
        self._op_latency = self.registry.histogram(
            "repro_op_latency_ms",
            "Per-op request wall time in ms (errors included)",
            labelnames=("op",),
        )
        self._delay_metric = self.registry.histogram(
            "repro_result_delay_ms",
            "In-engine inter-result (busy) delay in ms, by engine",
            labelnames=("engine",),
            bounds=DELAY_BOUNDS,
        )
        self._ttf_metric = self.registry.histogram(
            "repro_ttf_ms",
            "In-engine wall time to the first result in ms, by engine",
            labelnames=("engine",),
        )
        #: Per-cursor peak accounted bytes, by engine — the distribution
        #: the ``peak_mem_mb<=`` SLO evaluates.  Observed exactly once
        #: per retiring cursor (peaks are maxima, not sums: folding them
        #: into a live gauge would erase the distribution).
        self._mem_metric = self.registry.histogram(
            "repro_mem_peak_bytes",
            "Per-cursor peak accounted engine memory in bytes, by engine",
            labelnames=("engine",),
            bounds=MEM_BOUNDS,
        )
        self._errors_metric = self.registry.counter(
            "repro_errors_total",
            "Error responses by op and error code",
            labelnames=("op", "code"),
        )
        self._delay_lock = threading.Lock()
        #: engine name -> aggregate :class:`DelayProfile` (the ``stats``
        #: op's ``delay_profiles`` section).
        self.delay_profiles: dict[str, DelayProfile] = {}
        #: engine name -> aggregate :class:`MemoryProfile` (the ``stats``
        #: op's ``memory.profiles`` section); shares ``_delay_lock`` —
        #: both fold on the same retire path.
        self.memory_profiles: dict[str, MemoryProfile] = {}
        self.registry.add_collector(self._collect_samples)
        #: Sampled per-request JSON-lines log (None: not configured).
        self.event_log = event_log
        # Declarative SLOs over the registry's histograms + the request/
        # error totals, evaluated with multi-window burn rates by the
        # ``slo`` op.  The engine is pull-driven: ``handle`` ticks it
        # (time-gated) so rolling windows fill under steady load.
        self._slo_specs = parse_slos(DEFAULT_SLOS if slos is None else slos)
        self._slo_engine: Optional[SloEngine] = (
            SloEngine(self._slo_specs, self._slo_counts, windows_s=slo_windows_s)
            if self._slo_specs
            else None
        )

    @property
    def db(self) -> Database:
        """The currently published snapshot (a plain, immutable
        :class:`Database`; grab it once per request and keep using that
        object for a consistent view)."""
        return self.versioned.snapshot()

    # ------------------------------------------------------------------
    # Planning (cached)
    # ------------------------------------------------------------------
    def plan(
        self,
        sql: str,
        engine: Optional[str] = None,
        db: Optional[Database] = None,
        params: Optional[Sequence[Any]] = None,
    ) -> tuple[BoundPlan, bool]:
        """The (possibly cached) compiled statement + routed plan.

        Returns ``(bound, was_cached)``.  The cache keys on the
        statement's *parameterized template* — every comparison literal
        and the LIMIT lifted into a bound-value vector, explicit ``?``
        placeholders resolved from ``params`` — so all instantiations of
        one shape share a single entry.  The full pipeline (analyze →
        route, including filter materialization) runs only on a true
        miss; every other request costs one parse plus a cheap re-bind.

        Staleness is validated on hit against the request snapshot's
        fingerprint of the referenced relations:

        - identical fingerprint (relation versions included) + identical
          bound values: the entry's plan (with its materialized working
          instance) is served as-is;
        - any other generation within
          :data:`~repro.server.plancache.RECOST_DRIFT` or different
          values: the routing is reused on a per-request plan
          copy whose filtered instance is rebuilt from the snapshot;
        - larger drift or an empty/non-empty flip: the entry is
          re-costed in place (counted as a miss — the cache saved no
          routing work).

        ``db`` pins the snapshot to plan against (defaults to newest).
        """
        _check_engine(engine)
        with tracer.span("parse"):
            parameterized = parameterize_sql(sql)
        values = parameterized.resolve(params)
        snapshot = db if db is not None else self.versioned.snapshot()
        referenced = frozenset(
            t.relation for t in parameterized.statement.tables
        )
        fingerprint = database_fingerprint(snapshot, only=referenced)
        key = PlanCache.key(parameterized.template, engine, self.workers)
        with tracer.span("cache_lookup") as lookup_span:
            entry = self.plan_cache.lookup(key)
            lookup_span.set(hit=entry is not None)
        if entry is None:
            with tracer.span("plan"):
                template = analyze_statement(
                    snapshot, sql, parameterized.statement
                )
                bound = bind_compiled(template, values, sql)
                routed = plan_compiled(
                    snapshot,
                    bound,
                    engine=engine,
                    stats_cache=self.stats_cache,
                    workers=self.workers,
                )
            entry = CachedPlan(
                template,
                routed,
                fingerprint=fingerprint,
                costed_values=values,
            )
            self.plan_cache.store(key, entry)
            return BoundPlan(bound, routed), False
        bound = bind_compiled(entry.compiled, values, sql)
        drift = fingerprint_drift(entry.fingerprint, fingerprint)
        if drift > RECOST_DRIFT:
            # The data moved enough that the cached routing may be
            # genuinely wrong (e.g. rank-join over a since-emptied
            # input); re-cost from fresh statistics, in place.
            with tracer.span("plan") as span:
                span.set(recost=True, drift=round(drift, 4))
                routed = plan_compiled(
                    snapshot,
                    bound,
                    engine=engine,
                    stats_cache=self.stats_cache,
                    workers=self.workers,
                )
            entry.recost(routed, fingerprint, values)
            self.plan_cache.note_recost()
            return BoundPlan(bound, routed), False
        if fingerprint == entry.fingerprint and values == entry.costed_values:
            # Fast path: same data generation, same binding — the
            # entry's materialized working instance is exactly right.
            # (Zero drift is not enough: an INSERT plus a DELETE keeps
            # every cardinality and changes the rows.)
            return BoundPlan(bound, entry.plan), True
        # Soft hit: the routing holds, but the filtered working instance
        # was materialized for other values (or a slightly different
        # generation) — drop it so execute() rebuilds the selections
        # from this request's own snapshot.
        plan = dc_replace(
            entry.plan,
            k=bound.k,
            working_db=None,
            working_cq=None,
            snapshot_version=snapshot.version,
        )
        return BoundPlan(bound, plan), True

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def query(
        self,
        sql: str,
        engine: Optional[str] = None,
        fetch: int = 0,
        deadline: Optional[float] = None,
        params: Optional[Sequence[Any]] = None,
    ) -> dict:
        """Open a cursor for ``sql``; optionally inline the first rows.

        The cursor holds the *paused* enumeration: nothing beyond the
        inlined prefix is computed until the next ``fetch``.  ``params``
        binds the statement's ``?`` placeholders positionally.
        """
        # Refuse before planning: under overload (the admission limit's
        # regime), a doomed request must not pay parse+analyze+route or
        # pollute the plan cache.  cursors.open() re-checks at the end.
        self.cursors.ensure_capacity()
        self._ensure_memory_headroom()
        # One snapshot per request: plan and execute read the same data
        # generation even if a mutation commits mid-request, and the
        # cursor stays pinned to it for its whole lifetime.
        snapshot = self.versioned.snapshot()
        entry, was_cached = self.plan(
            sql, engine=engine, db=snapshot, params=params
        )
        session_counters = Counters()
        # Every cursor carries its own delay profile; the engine-side wrap
        # records TTF/TT(k)/inter-result delay as pages drain, and
        # _retire folds it into the per-engine aggregate on close/evict.
        profile = DelayProfile()
        # ... and its own space profile: the engines' structures report
        # entry counts into it at O(1) cost, the admission watermark sums
        # its live bytes, and _retire folds the peak into the per-engine
        # aggregate + histogram.
        memory = MemoryProfile()
        stream = PausableStream(
            execute(
                snapshot,
                entry.compiled,
                entry.plan,
                counters=session_counters,
                profile=profile,
                memory=memory,
            )
        )
        cursor = self.cursors.open(
            sql=sql,
            engine=entry.plan.engine,
            columns=entry.compiled.output_columns,
            stream=stream,
            counters=session_counters,
            profile=profile,
            memory=memory,
        )
        with self._metrics_lock:
            self._queries += 1
        payload: dict[str, Any] = {
            "cursor": cursor.id,
            "columns": list(entry.compiled.output_columns),
            "engine": entry.plan.engine,
            "plan_cached": was_cached,
            # The snapshot generation the cursor is pinned to — every
            # page it ever serves drains exactly this version, so a client
            # can check a page against a serial recompute of it.
            "version": snapshot.version,
            "rows": [],
            "done": False,
        }
        if fetch > 0:
            try:
                payload.update(self._fetch_into(cursor, fetch, deadline))
            except Exception:
                # The inline prefetch failed after the slot was taken; the
                # error response carries no cursor id, so an unreleased
                # slot would be unclosable and pin capacity forever.
                self._finish(cursor.id)
                raise
            if payload["done"]:
                self._finish(cursor.id)
                payload["cursor"] = None
        # After any inline prefetch, so the peak covers it.
        payload["mem"] = {
            "live_bytes": memory.live_bytes,
            "peak_bytes": memory.peak_bytes,
        }
        payload["results_emitted"] = cursor.emitted
        return payload

    def fetch(
        self,
        cursor_id: str,
        n: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> dict:
        """Resume a paused cursor for up to ``n`` more ranked results."""
        cursor = self.cursors.get(cursor_id)
        with self._metrics_lock:
            self._fetches += 1
        payload: dict[str, Any] = {"cursor": cursor_id}
        payload.update(
            self._fetch_into(cursor, n or self.default_batch, deadline)
        )
        if cursor.memory is not None:
            payload["mem"] = {
                "live_bytes": cursor.memory.live_bytes,
                "peak_bytes": cursor.memory.peak_bytes,
            }
        payload["emitted"] = cursor.emitted
        payload["results_emitted"] = cursor.emitted
        if payload["done"]:
            self._finish(cursor_id)
        return payload

    def _fetch_into(
        self, cursor, n: int, deadline: Optional[float]
    ) -> dict:
        try:
            with tracer.span(
                "page_fetch", cursor=cursor.id, n=n, engine=cursor.engine
            ) as span:
                rows, done = cursor.fetch(n, deadline=deadline)
                span.set(rows=len(rows), done=done)
        except StreamClosed:
            # Lost the race with a concurrent close/eviction after the
            # cursor lookup: the session is gone, and saying "done" would
            # silently truncate the ranked stream.
            raise UnknownCursorError(
                f"cursor {cursor.id!r} was closed while this fetch was in "
                "flight"
            ) from None
        with self._metrics_lock:
            self._rows_served += len(rows)
        out: dict[str, Any] = {
            "rows": protocol.jsonable_rows(rows),
            "done": done,
        }
        if (
            not done
            and deadline is not None
            and len(rows) < n
            and time.monotonic() >= deadline
        ):
            out["deadline_exceeded"] = True
        return out

    def _finish(self, cursor_id: str) -> None:
        """Close a drained cursor, folding its work into the aggregate."""
        try:
            cursor = self.cursors.close(cursor_id)
        except UnknownCursorError:
            return
        self._retire(cursor)

    def _ensure_memory_headroom(self) -> None:
        """Admission watermark: evict idle cursors under memory pressure,
        refuse with :class:`MemoryPressureError` while still over.

        Runs *before* planning, like :meth:`CursorManager.ensure_capacity`
        — a doomed request must not pay for a plan or build any engine
        state the watermark exists to bound.
        """
        if self.max_mem_bytes is None:
            return
        if self.cursors.live_mem_bytes() < self.max_mem_bytes:
            return
        evicted = self.cursors.evict_for_memory(
            self.max_mem_bytes, min_idle_s=self.mem_evict_idle_s
        )
        if evicted:
            with self._metrics_lock:
                self._mem_evicted += evicted
        live = self.cursors.live_mem_bytes()
        if live < self.max_mem_bytes:
            return
        with self._metrics_lock:
            self._mem_rejected += 1
        raise MemoryPressureError(
            f"server memory watermark reached ({live} accounted bytes live "
            f">= {self.max_mem_bytes}); close or drain a cursor first"
        )

    def _retire(self, cursor) -> None:
        """Fold a closing/evicted cursor's work into server aggregates."""
        self.counters.merge(cursor.counters)
        self._fold_profile(getattr(cursor, "profile", None), cursor.engine)
        self._fold_memory(getattr(cursor, "memory", None), cursor.engine)

    def _fold_profile(
        self, profile: Optional[DelayProfile], engine: str
    ) -> None:
        """Fold one quiescent delay profile into the per-engine aggregate
        and the registry's delay/TTF histogram families (each profile is
        folded exactly once, so nothing is double counted)."""
        if profile is None or not profile.streams:
            return
        name = profile.engine or engine
        with self._delay_lock:
            aggregate = self.delay_profiles.get(name)
            if aggregate is None:
                aggregate = self.delay_profiles[name] = DelayProfile(name)
            aggregate.merge(profile)
        self._delay_metric.labels(engine=name).merge_histogram(profile.delay)
        self._ttf_metric.labels(engine=name).merge_histogram(profile.ttf)

    def _fold_memory(
        self, memory: Optional[MemoryProfile], engine: str
    ) -> None:
        """Fold one retiring cursor's space profile into the per-engine
        aggregate and observe its peak in the byte histogram.

        Unlike time, memory is not additive across cursors: the aggregate
        keeps *maxima* of live/peak (the profile's own merge semantics),
        and the peak *distribution* lives in ``repro_mem_peak_bytes`` —
        one observation per retired cursor."""
        if memory is None or not memory.touched:
            return
        name = memory.engine or engine
        with self._delay_lock:
            aggregate = self.memory_profiles.get(name)
            if aggregate is None:
                aggregate = self.memory_profiles[name] = MemoryProfile(name)
            aggregate.merge(memory)
        self._mem_metric.labels(engine=name).observe(float(memory.peak_bytes))

    def explain(
        self,
        sql: str,
        engine: Optional[str] = None,
        analyze: bool = False,
        params: Optional[Sequence[Any]] = None,
    ) -> dict:
        """The routed plan as text (cached like ``query`` plans).

        With ``analyze=True`` the statement is additionally *run to
        completion* (honoring its LIMIT) and the response carries the
        EXPLAIN ANALYZE report (:mod:`repro.obs.analyze`): per-stage and
        per-operator wall time, tuples produced, plan-cache and shard
        attribution, and the in-engine anytime-delay profile.
        """
        from repro.sql import render_explain

        if not analyze:
            entry, was_cached = self.plan(sql, engine=engine, params=params)
            return {
                "explain": render_explain(entry.compiled, entry.plan),
                "engine": entry.plan.engine,
                "plan_cached": was_cached,
                # Which data generation the plan was costed on — with the
                # versioned fingerprints this is also the newest generation
                # of every relation the statement reads.
                "version": entry.plan.snapshot_version,
            }
        from repro.obs.analyze import build_report, render_analyze

        snapshot = self.versioned.snapshot()
        start = time.perf_counter()
        entry, was_cached = self.plan(
            sql, engine=engine, db=snapshot, params=params
        )
        plan_ms = (time.perf_counter() - start) * 1000.0
        counters = Counters()
        profile = DelayProfile()
        memory = MemoryProfile()
        with tracer.span(
            "analyze.execute", engine=entry.plan.engine
        ):
            start = time.perf_counter()
            rows = 0
            for _ in execute(
                snapshot,
                entry.compiled,
                entry.plan,
                counters=counters,
                profile=profile,
                memory=memory,
            ):
                rows += 1
            execute_ms = (time.perf_counter() - start) * 1000.0
        report = build_report(
            snapshot,
            entry.compiled,
            entry.plan,
            rows=rows,
            stages_ms={
                "plan": round(plan_ms, 4),
                "execute": round(execute_ms, 4),
                "total": round(plan_ms + execute_ms, 4),
            },
            profile=profile,
            counters=counters,
            cache={"plan_cache": "hit" if was_cached else "miss"},
            memory=memory,
        )
        # The analyzed run is real engine work; it lands in the same
        # aggregates a drained cursor would.
        self.counters.merge(counters)
        self._fold_profile(profile, entry.plan.engine)
        self._fold_memory(memory, entry.plan.engine)
        return {
            "explain": render_analyze(report),
            "analyze": report,
            "engine": entry.plan.engine,
            "plan_cached": was_cached,
            "version": entry.plan.snapshot_version,
        }

    def mutate(self, sql: str) -> dict:
        """Commit one ``INSERT INTO`` / ``DELETE FROM`` statement.

        Publishes a new copy-on-write snapshot: cursors opened earlier
        keep draining their own snapshot untouched; queries planned
        afterwards see the new version (and re-cost, because the mutated
        relation's fingerprint changed).
        """
        if self.readonly:
            raise SqlError(
                "this server is read-only (started with --readonly); "
                "mutations are refused"
            )
        compiled = analyze_mutation(self.versioned.snapshot(), sql)
        result = apply_mutation(self.versioned, compiled)
        with self._metrics_lock:
            self._mutations += 1
        return {
            "applied": result.kind,
            "relation": result.relation,
            "rows": result.rows,
            "version": result.version,
        }

    def close(self, cursor_id: str) -> dict:
        """Explicitly free a cursor's session state."""
        cursor = self.cursors.close(cursor_id)  # raises UnknownCursorError
        self._retire(cursor)
        return {
            "closed": cursor_id,
            "emitted": cursor.emitted,
            "results_emitted": cursor.emitted,
        }

    def hello(self, frames: str = "json") -> dict:
        """Capability echo for the ``hello`` op.

        The TCP layer intercepts ``hello`` in its read loop (framing is
        transport state) and answers with its own frame limit; this
        in-process fallback reports the negotiation result with no
        framing to actually switch.
        """
        return {
            "frames": frames,
            "protocol": protocol.PROTOCOL_VERSION,
            "pipelining": True,
            "max_frame_bytes": None,
        }

    def batch(self, requests: list) -> dict:
        """Dispatch a list of sub-requests in order, on one turn.

        Each sub-request runs through the full :meth:`handle` pipeline —
        validation, tracing, per-op metrics, SLO accounting — so a batch
        of N requests is indistinguishable from N pipelined requests
        except for the single round trip.  A failing sub-request yields
        its error response in place; the rest of the batch still runs.
        """
        return {
            "responses": [self.handle(request) for request in requests]
        }

    def stats(self) -> dict:
        """Observability: caches, cursors, service metrics, RAM-model work."""
        with self._metrics_lock:
            metrics = {
                "queries": self._queries,
                "fetches": self._fetches,
                "rows_served": self._rows_served,
                "mutations": self._mutations,
                "requests": self._requests,
                "errors": self._errors,
            }
        snapshot = self.versioned.snapshot()
        return {
            "version": protocol.PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "relations": snapshot.names(),
            "total_tuples": snapshot.total_tuples(),
            "workers": self.workers,
            "readonly": self.readonly,
            "database": self.versioned.info(),
            **metrics,
            "plan_cache": self.plan_cache.info(),
            "stats_cache": self.stats_cache.info(),
            "cursors": self.cursors.stats(),
            "counters": self.counters.snapshot(),
            "op_latency_ms": self._op_latency_summary(),
            "delay_profiles": self.delay_summaries(),
            "memory": self.memory_stats(),
            "tracer": tracer.info(),
            "event_log": (
                self.event_log.info() if self.event_log is not None else None
            ),
            "slo": self.slo(),
        }

    def _op_latency_summary(self) -> dict:
        """Per-op latency digests from the registry histogram family.

        ``count``/``mean``/``max`` plus the percentile keys the
        fixed-bucket histogram makes possible.
        """
        out: dict[str, dict] = {}
        for labels, child in self._op_latency.children():
            summary = child.summary()
            if not summary.get("count"):
                continue
            out[labels["op"]] = {
                "count": summary["count"],
                "mean": summary["mean_ms"],
                "max": summary["max_ms"],
                "p50_ms": summary["p50_ms"],
                "p95_ms": summary["p95_ms"],
                "p99_ms": summary["p99_ms"],
            }
        return out

    def delay_summaries(self) -> dict:
        """Per-engine anytime-delay digests (TTF / TT(k) / delay)."""
        with self._delay_lock:
            return {
                engine: profile.summary()
                for engine, profile in self.delay_profiles.items()
            }

    def memory_stats(self) -> dict:
        """The ``stats`` op's memory section: live bytes vs watermark,
        pressure counters, and per-engine peak profiles."""
        with self._metrics_lock:
            rejected, evicted = self._mem_rejected, self._mem_evicted
        with self._delay_lock:
            profiles = {
                engine: profile.summary()
                for engine, profile in self.memory_profiles.items()
            }
        return {
            "live_bytes": self.cursors.live_mem_bytes(),
            "watermark_bytes": self.max_mem_bytes,
            "pressure_rejections": rejected,
            "pressure_evictions": evicted,
            "profiles": profiles,
        }

    def metrics(self, format: str = "prometheus") -> dict:
        """The unified metrics registry, rendered for export."""
        if format == "json":
            return {"format": "json", "metrics": self.registry.to_json()}
        return {
            "format": "prometheus",
            "content_type": "text/plain; version=0.0.4; charset=utf-8",
            "metrics": self.registry.render_prometheus(),
        }

    def trace(
        self, trace_id: Optional[str] = None, request: Any = None
    ) -> dict:
        """Look up a buffered trace by trace id or by request id.

        With neither given, returns the newest buffered traces plus the
        tracer's ring statistics (what ``repro-obs --tail`` polls).
        """
        if trace_id is not None:
            found = tracer.get(trace_id)
        elif request is not None:
            found = tracer.find_by_request(request)
        else:
            return {"recent": tracer.recent(20), "tracer": tracer.info()}
        if found is None:
            wanted = trace_id if trace_id is not None else f"request {request!r}"
            raise protocol.ProtocolError(
                f"no buffered trace for {wanted} (the ring keeps the last "
                f"{tracer.capacity} traces)",
                code=protocol.UNKNOWN_TRACE,
            )
        return {"trace": found, "rendered": render_trace_tree(found)}

    # ------------------------------------------------------------------
    # SLOs
    # ------------------------------------------------------------------
    def _slo_histogram_for(self, indicator: str) -> Optional[Histogram]:
        """The merged histogram behind one SLO indicator (latency
        indicators in ms; ``peak_mem`` in bytes)."""
        if indicator in ("ttf", "delay", "peak_mem"):
            family = {
                "ttf": self._ttf_metric,
                "delay": self._delay_metric,
                "peak_mem": self._mem_metric,
            }[indicator]
            merged: Optional[Histogram] = None
            for _labels, child in family.children():
                clone = child.copy()
                merged = clone if merged is None else merged.merge(clone)
            return merged
        for labels, child in self._op_latency.children():
            if labels.get("op") == indicator:
                return child.copy()
        return None

    def _requests_errors(self) -> tuple[int, int]:
        with self._metrics_lock:
            return (self._requests, self._errors)

    def _slo_counts(self) -> list[tuple[int, int]]:
        """Cumulative ``(total, bad)`` per configured spec (the SLO
        engine's snapshot source)."""
        return [
            spec_counts(spec, self._slo_histogram_for, self._requests_errors)
            for spec in self._slo_specs
        ]

    def slo(self) -> dict:
        """Evaluate the configured SLOs (the ``slo`` op)."""
        if self._slo_engine is None:
            return {
                "status": "ok",
                "windows_s": [],
                "slos": [],
                "specs": [],
            }
        report = self._slo_engine.evaluate()
        report["specs"] = [spec.raw for spec in self._slo_specs]
        return report

    def _collect_samples(self):
        """Pull-time gauge samples for the registry (export-time only)."""
        with self._metrics_lock:
            samples = [
                ("repro_queries_total", {}, self._queries),
                ("repro_fetches_total", {}, self._fetches),
                ("repro_rows_served_total", {}, self._rows_served),
                ("repro_mutations_total", {}, self._mutations),
                (
                    "repro_mem_pressure_rejections_total",
                    {},
                    self._mem_rejected,
                ),
                ("repro_mem_pressure_evictions_total", {}, self._mem_evicted),
            ]
        samples.append(
            ("repro_mem_live_bytes", {}, self.cursors.live_mem_bytes())
        )
        if self.max_mem_bytes is not None:
            samples.append(
                ("repro_mem_watermark_bytes", {}, self.max_mem_bytes)
            )
        samples.append(
            (
                "repro_uptime_seconds",
                {},
                round(time.monotonic() - self._started, 3),
            )
        )
        samples.append(("repro_cursors_open", {}, len(self.cursors)))
        for state in ("opened", "closed", "evicted", "rejected"):
            samples.append(
                (
                    f"repro_cursors_{state}_total",
                    {},
                    getattr(self.cursors, state),
                )
            )
        for cache_name, cache in (
            ("plan", self.plan_cache),
            ("stats", self.stats_cache),
        ):
            info = cache.info()
            labels = {"cache": cache_name}
            samples.append(("repro_cache_entries", labels, info["entries"]))
            samples.append(("repro_cache_hits_total", labels, info["hits"]))
            samples.append(
                ("repro_cache_misses_total", labels, info["misses"])
            )
        # Compiled-kernel accounting: per-engine event counters plus the
        # process-wide template cache, labeled like the other caches.
        from repro.anyk.kernels import kernel_cache_info, kernel_stats

        for engine, counts in sorted(kernel_stats().items()):
            for event, value in sorted(counts.items()):
                samples.append(
                    (
                        f"repro_kernel_{event}_total",
                        {"engine": engine},
                        value,
                    )
                )
        kernel_info = kernel_cache_info()
        kernel_labels = {"cache": "kernel"}
        samples.append(
            ("repro_cache_entries", kernel_labels, kernel_info["entries"])
        )
        samples.append(
            ("repro_cache_hits_total", kernel_labels, kernel_info["hits"])
        )
        samples.append(
            ("repro_cache_misses_total", kernel_labels, kernel_info["misses"])
        )
        for name, value in self.counters.snapshot().items():
            if isinstance(value, (int, float)):
                samples.append(("repro_engine_work", {"counter": name}, value))
        info = tracer.info()
        samples.append(("repro_traces_buffered", {}, info["buffered"]))
        samples.append(("repro_traces_dropped_total", {}, info["dropped"]))
        return samples

    def shutdown(self) -> None:
        """Close every open cursor (their work still lands in stats)."""
        for cursor in self.cursors.close_all():
            self._retire(cursor)
        if self.event_log is not None:
            self.event_log.close()

    # ------------------------------------------------------------------
    # Protocol entry point
    # ------------------------------------------------------------------
    def handle(self, request: dict) -> dict:
        """One protocol request -> one protocol response (never raises)."""
        request_id = request.get("id")
        try:
            op = protocol.validate_request(request)
        except protocol.ProtocolError as exc:
            return protocol.error_response(request_id, exc.code, str(exc))
        deadline_ms = request.get("deadline_ms")
        deadline = (
            time.monotonic() + deadline_ms / 1000.0
            if deadline_ms is not None
            else None
        )
        started = time.perf_counter()
        # Trace propagation: a caller-supplied traceparent adopts the
        # caller's trace id and parents this request's root span under
        # the caller's span — client-side and server-side spans of one
        # request form one tree.  Malformed contexts degrade to a fresh
        # trace, never an error.
        context = parse_traceparent(request.get("trace_context"))
        root = tracer.start_trace(
            op,
            request_id=request_id,
            trace_id=context[0] if context else None,
            parent_id=context[1] if context else None,
        )
        response: dict = {}
        try:
            with root:
                response = self._dispatch(request_id, op, request, deadline)
            trace_id = getattr(root, "trace_id", None)
            if trace_id is not None:
                # Echoed on every response (success or error) so clients
                # can fetch the request's span tree via the ``trace`` op.
                response.setdefault("trace_id", trace_id)
            return response
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            self._op_latency.labels(op=op).observe(elapsed_ms)
            error = response.get("error") if response else None
            with self._metrics_lock:
                self._requests += 1
                if error:
                    self._errors += 1
            if error:
                self._errors_metric.labels(
                    op=op, code=error.get("code", "internal")
                ).inc()
            if self.event_log is not None:
                try:
                    self.event_log.record_request(request, response, elapsed_ms)
                except Exception:
                    pass  # a full disk must not fail the request
            if self._slo_engine is not None:
                self._slo_engine.tick()

    def _dispatch(
        self,
        request_id: Any,
        op: str,
        request: dict,
        deadline: Optional[float],
    ) -> dict:
        try:
            if op == "query":
                payload = self.query(
                    request["sql"],
                    engine=request.get("engine"),
                    fetch=request.get("fetch", 0),
                    deadline=deadline,
                    params=request.get("params"),
                )
            elif op == "fetch":
                payload = self.fetch(
                    request["cursor"],
                    n=request.get("n"),
                    deadline=deadline,
                )
            elif op == "explain":
                payload = self.explain(
                    request["sql"],
                    engine=request.get("engine"),
                    analyze=bool(request.get("analyze")),
                    params=request.get("params"),
                )
            elif op == "mutate":
                payload = self.mutate(request["sql"])
            elif op == "close":
                payload = self.close(request["cursor"])
            elif op == "batch":
                payload = self.batch(request["requests"])
            elif op == "hello":
                payload = self.hello(request.get("frames", "json"))
            elif op == "metrics":
                payload = self.metrics(
                    format=request.get("format", "prometheus")
                )
            elif op == "trace":
                payload = self.trace(
                    trace_id=request.get("trace"),
                    request=request.get("request"),
                )
            elif op == "slo":
                payload = self.slo()
            else:  # "stats" — validate_request admits nothing else
                payload = self.stats()
        except protocol.ProtocolError as exc:
            return protocol.error_response(request_id, exc.code, str(exc))
        except CursorLimitError as exc:
            return protocol.error_response(
                request_id, protocol.CURSOR_LIMIT, str(exc)
            )
        except MemoryPressureError as exc:
            # A deliberate admission refusal, mapped well before the
            # Exception -> internal catch-all: memory pressure is policy,
            # never a server fault.
            return protocol.error_response(
                request_id, protocol.MEM_PRESSURE, str(exc)
            )
        except UnknownCursorError as exc:
            return protocol.error_response(
                request_id, protocol.UNKNOWN_CURSOR, str(exc)
            )
        except (SqlError, QueryError, MutationError) as exc:
            return protocol.error_response(
                request_id, protocol.SQL_ERROR, str(exc)
            )
        except Exception as exc:  # the wire must answer, not unwind
            return protocol.error_response(
                request_id,
                protocol.INTERNAL,
                f"{type(exc).__name__}: {exc}",
            )
        return protocol.ok_response(request_id, payload)
