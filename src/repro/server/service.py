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

import time
from typing import Any, Optional, Sequence

from repro.anyk.api import PausableStream, StreamClosed
from repro.data.database import Database
from repro.dynamic import MutationError, VersionedDatabase
from repro.engine.executor import apply_mutation, execute
from repro.engine.planner import Plan, plan_compiled
from repro.obs.delay import DELAY_BOUNDS, DelayProfile
from repro.obs.memory import ENTRY_BOUNDS, MemoryProfile
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import render_trace_tree, tracer
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
from repro.sql import _check_engine
from repro.sql.analyzer import (
    CompiledQuery,
    analyze_mutation,
    analyze_statement,
    bind_compiled,
)
from repro.sql.errors import SqlError
from repro.sql.parser import parse
from repro.util.counters import Counters
from repro.util.lru import LruCache


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
        snapshot they were planned on, and new queries are planned on
        the newest version.
    max_cursors:
        Admission limit on concurrently open cursors.
    max_mem_mb:
        Server-wide memory watermark in MB (``repro-serve
        --max-mem-mb``): once the live bytes of all open cursors'
        engine structures (live entries times the engine family's
        :data:`~repro.obs.memory.BYTES_PER_ENTRY` factor) reach it, new
        queries first trigger idle-cursor eviction and are then refused
        with a clean ``mem_pressure`` error while still over — admission
        control replacing an eventual OOM.  None (the default) disables the
        watermark; per-cursor accounting still runs.
    mem_evict_idle_s:
        Minimum idle age before memory pressure may evict a cursor
        (protects sessions a client is actively paging through).
    plan_cache_size:
        LRU capacity of the plan cache (analyzed statements, one per
        distinct SQL text).
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
    """

    def __init__(
        self,
        db: Database,
        max_cursors: int = 64,
        max_mem_mb: Optional[float] = None,
        mem_evict_idle_s: float = 1.0,
        plan_cache_size: int = 128,
        default_batch: int = 100,
        idle_evict_s: Optional[float] = 600.0,
        workers: int = 1,
        readonly: bool = False,
        trace_capacity: Optional[int] = None,
    ) -> None:
        self.versioned = (
            db if isinstance(db, VersionedDatabase) else VersionedDatabase(db)
        )
        self.workers = workers
        self.readonly = readonly
        #: SQL text -> analyzed statement.  Analysis reads only relation
        #: schemas, which no mutation changes, so an entry never goes
        #: stale; everything that reads the data runs per request.
        self.plan_cache = LruCache(plan_cache_size)
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
        #: Server-wide RAM-model work, aggregated from per-cursor counters
        #: when cursors close (thread-safe merge).
        self.counters = Counters()
        self._started = time.monotonic()
        # Observability: one metrics registry per service (tests stay
        # isolated) and the *process* tracer enabled once (spans are
        # per-request, far off the per-result hot path).  The registry is
        # the only place server-wide numbers accumulate: ``stats`` and
        # ``metrics`` both read it.
        tracer.enable()
        if trace_capacity is not None:
            tracer.set_capacity(trace_capacity)
        self.registry = MetricsRegistry()
        #: Per-op request wall time (ms) — errors included, since a
        #: failing request still costs the server time.  Backs the
        #: ``stats`` op's ``op_latency_ms`` (count/mean/max plus
        #: p50/p95/p99) and ``requests`` (the count over every op).
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
        #: Per-cursor peak engine-structure entries, by engine.  Observed
        #: exactly once per retiring cursor (peaks are maxima, not sums:
        #: folding them into a live gauge would erase the distribution).
        self._mem_metric = self.registry.histogram(
            "repro_mem_peak_entries",
            "Per-cursor peak engine-structure entries, by engine",
            labelnames=("engine",),
            bounds=ENTRY_BOUNDS,
        )
        self._errors_metric = self.registry.counter(
            "repro_errors_total",
            "Error responses by op and error code",
            labelnames=("op", "code"),
        )
        self._fetches_metric = self.registry.counter(
            "repro_fetches_total", "Fetch requests on a known cursor"
        )
        self._rows_metric = self.registry.counter(
            "repro_rows_served_total", "Result rows served in pages"
        )
        self._mutations_metric = self.registry.counter(
            "repro_mutations_total", "Committed mutations"
        )
        self._mem_rejected_metric = self.registry.counter(
            "repro_mem_pressure_rejections_total",
            "Queries refused over the memory watermark",
        )
        self._mem_evicted_metric = self.registry.counter(
            "repro_mem_pressure_evictions_total",
            "Idle cursors evicted under memory pressure",
        )
        self.registry.add_collector(self._collect_samples)

    @property
    def db(self) -> Database:
        """The currently published snapshot (a plain, immutable
        :class:`Database`; grab it once per request and keep using that
        object for a consistent view)."""
        return self.versioned.snapshot()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(
        self,
        sql: str,
        engine: Optional[str] = None,
        db: Optional[Database] = None,
        params: Optional[Sequence[Any]] = None,
    ) -> tuple[CompiledQuery, Plan, bool]:
        """Analyze (cached), bind and route ``sql`` on one snapshot.

        Returns ``(compiled, plan, was_cached)``, where ``was_cached``
        says the analysis came from the plan cache.  The cache keys on
        the SQL text as sent; statements that differ only in a literal
        are different entries, and ``?`` placeholders bound from
        ``params`` share one.  Binding and routing run on every request,
        against ``db`` (default: the newest snapshot): the plan, its
        filtered working instance and its engine are what a cold plan of
        the same statement on that snapshot would be, whatever the cache
        holds.
        """
        _check_engine(engine)
        snapshot = db if db is not None else self.versioned.snapshot()
        with tracer.span("cache_lookup") as lookup_span:
            analyzed = self.plan_cache.get(sql)
            lookup_span.set(hit=analyzed is not None)
        was_cached = analyzed is not None
        if analyzed is None:
            with tracer.span("parse"):
                statement = parse(sql)
            with tracer.span("analyze"):
                analyzed = analyze_statement(snapshot, sql, statement)
            self.plan_cache.put(sql, analyzed)
        with tracer.span("plan"):
            compiled = bind_compiled(analyzed, params)
            plan = plan_compiled(
                snapshot, compiled, engine=engine, workers=self.workers
            )
        return compiled, plan, was_cached

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
        compiled, plan, was_cached = self.plan(
            sql, engine=engine, db=snapshot, params=params
        )
        session_counters = Counters()
        # Every cursor carries its own delay profile; the engine-side wrap
        # records TTF/TT(k)/inter-result delay as pages drain, and
        # _retire folds it into the per-engine histograms on close/evict.
        profile = DelayProfile()
        # ... and its own space profile: the engines' structures report
        # entry counts into it at O(1) cost, the admission watermark prices
        # its live entries in bytes, and _retire observes its peak in the
        # per-engine peak histogram.
        memory = MemoryProfile()
        stream = PausableStream(
            execute(
                compiled,
                plan,
                counters=session_counters,
                profile=profile,
                memory=memory,
            )
        )
        cursor = self.cursors.open(
            sql=sql,
            engine=plan.engine,
            columns=compiled.output_columns,
            stream=stream,
            counters=session_counters,
            profile=profile,
            memory=memory,
        )
        payload: dict[str, Any] = {
            "cursor": cursor.id,
            "columns": list(compiled.output_columns),
            "engine": plan.engine,
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
            "live_entries": memory.live_entries,
            "peak_entries": memory.peak_entries,
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
        self._fetches_metric.inc()
        payload: dict[str, Any] = {"cursor": cursor_id}
        payload.update(
            self._fetch_into(cursor, n or self.default_batch, deadline)
        )
        if cursor.memory is not None:
            payload["mem"] = {
                "live_entries": cursor.memory.live_entries,
                "peak_entries": cursor.memory.peak_entries,
            }
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
        self._rows_metric.inc(len(rows))
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
        self._mem_evicted_metric.inc(evicted)
        live = self.cursors.live_mem_bytes()
        if live < self.max_mem_bytes:
            return
        self._mem_rejected_metric.inc()
        raise MemoryPressureError(
            f"server memory watermark reached ({live} bytes live "
            f">= {self.max_mem_bytes}); close or drain a cursor first"
        )

    def _retire(self, cursor) -> None:
        """Fold a closing/evicted cursor's work into server aggregates."""
        self.counters.merge(cursor.counters)
        self._fold_profiles(cursor.profile, cursor.memory, cursor.engine)

    def _fold_profiles(
        self,
        profile: Optional[DelayProfile],
        memory: Optional[MemoryProfile],
        engine: str,
    ) -> None:
        """Fold one quiescent execution into the per-engine registry
        families, exactly once: its delay histogram and its TTF (when it
        produced a result) and one observation of its peak entries (when
        any structure reported).  Peaks are maxima, not sums, so their
        distribution across executions is the histogram itself."""
        if profile is not None and profile.results:
            name = profile.engine or engine
            self._delay_metric.labels(engine=name).merge_histogram(
                profile.delay
            )
            self._ttf_metric.labels(engine=name).observe(profile.ttf_ms)
        if memory is not None and memory.touched:
            name = memory.engine or engine
            self._mem_metric.labels(engine=name).observe(
                float(memory.peak_entries)
            )

    def explain(
        self,
        sql: str,
        engine: Optional[str] = None,
        analyze: bool = False,
        params: Optional[Sequence[Any]] = None,
    ) -> dict:
        """The routed plan as text (planned like a ``query``).

        With ``analyze=True`` the statement is additionally *run to
        completion* (honoring its LIMIT) and the response carries the
        EXPLAIN ANALYZE report (:mod:`repro.obs.analyze`): per-stage and
        per-operator wall time, tuples produced, plan-cache and shard
        attribution, and the in-engine anytime-delay profile.
        """
        from repro.sql import render_explain

        if not analyze:
            compiled, plan, was_cached = self.plan(
                sql, engine=engine, params=params
            )
            return {
                "explain": render_explain(compiled, plan),
                "engine": plan.engine,
                "plan_cached": was_cached,
                # The data generation the plan was costed on: the newest.
                "version": plan.snapshot_version,
            }
        from repro.obs.analyze import analyze_plan, render_analyze

        snapshot = self.versioned.snapshot()
        started = time.perf_counter()
        compiled, plan, was_cached = self.plan(
            sql, engine=engine, db=snapshot, params=params
        )
        plan_ms = (time.perf_counter() - started) * 1000.0
        counters = Counters()
        profile = DelayProfile()
        memory = MemoryProfile()
        report = analyze_plan(
            snapshot,
            compiled,
            plan,
            stages_ms={"plan": round(plan_ms, 4)},
            started=started,
            counters=counters,
            profile=profile,
            memory=memory,
            cache={"plan_cache": "hit" if was_cached else "miss"},
        )
        # The analyzed run is real engine work; it lands in the same
        # aggregates a drained cursor would.
        self.counters.merge(counters)
        self._fold_profiles(profile, memory, plan.engine)
        return {
            "explain": render_analyze(report),
            "analyze": report,
            "engine": plan.engine,
            "plan_cached": was_cached,
            "version": plan.snapshot_version,
        }

    def mutate(self, sql: str) -> dict:
        """Commit one ``INSERT INTO`` / ``DELETE FROM`` statement.

        Publishes a new copy-on-write snapshot: cursors opened earlier
        keep draining their own snapshot untouched; queries planned
        afterwards are routed on the new version.
        """
        if self.readonly:
            raise SqlError(
                "this server is read-only (started with --readonly); "
                "mutations are refused"
            )
        compiled = analyze_mutation(self.versioned.snapshot(), sql)
        result = apply_mutation(self.versioned, compiled)
        self._mutations_metric.inc()
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
        return {"closed": cursor_id, "results_emitted": cursor.emitted}

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

    def stats(self) -> dict:
        """Observability: caches, cursors, service metrics, RAM-model work.

        Every server-wide number is read from :attr:`registry` (or from
        the cursor manager, plan cache and counters it collects), so
        ``stats`` and ``metrics`` can never disagree."""
        snapshot = self.versioned.snapshot()
        return {
            "version": protocol.PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "relations": snapshot.names(),
            "total_tuples": snapshot.total_tuples(),
            "workers": self.workers,
            "readonly": self.readonly,
            "database": self.versioned.info(),
            # ``query`` is the only caller of cursors.open.
            "queries": self.cursors.opened,
            "fetches": self._fetches_metric.total(),
            "rows_served": self._rows_metric.total(),
            "mutations": self._mutations_metric.total(),
            "requests": self._op_latency.total(),
            "errors": self._errors_metric.total(),
            # The benchmark reads ``recosts``; with routing on every
            # request it is always 0.
            "plan_cache": {**self.plan_cache.info(), "recosts": 0},
            "cursors": self.cursors.stats(),
            "counters": self.counters.snapshot(),
            "op_latency_ms": self._op_latency_summary(),
            "delay_profiles": self.delay_summaries(),
            "memory": self.memory_stats(),
            "tracer": tracer.info(),
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
        """Per-engine anytime-delay digests from the delay and TTF
        families: ``streams`` counts streams that produced a first
        result, ``results`` the results they produced."""
        ttf = {
            labels["engine"]: child.summary()
            for labels, child in self._ttf_metric.children()
        }
        out = {}
        for labels, child in self._delay_metric.children():
            engine = labels["engine"]
            delay = child.summary()
            if engine not in ttf or not delay["count"]:
                continue  # a fold in flight: its families fill next read
            out[engine] = {
                "engine": engine,
                "streams": ttf[engine]["count"],
                "results": delay["count"],
                "delay_ms": delay,
                "ttf_ms": ttf[engine],
            }
        return out

    def memory_stats(self) -> dict:
        """The ``stats`` op's memory section: live bytes vs watermark,
        pressure counters, and per-engine peaks (the count and exact
        maximum of ``repro_mem_peak_entries``)."""
        profiles = {}
        for labels, child in self._mem_metric.children():
            summary = child.summary()
            if not summary["count"]:
                continue  # created by labels(), not yet observed
            profiles[labels["engine"]] = {
                "engine": labels["engine"],
                "streams": summary["count"],
                "peak_entries": int(summary["max_ms"]),
            }
        return {
            "live_bytes": self.cursors.live_mem_bytes(),
            "watermark_bytes": self.max_mem_bytes,
            "pressure_rejections": self._mem_rejected_metric.total(),
            "pressure_evictions": self._mem_evicted_metric.total(),
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

    def trace(self, trace_id: Optional[str] = None) -> dict:
        """Look up a buffered trace by trace id.

        With no id, returns the newest buffered traces plus the tracer's
        ring statistics (what ``repro-obs --traces`` lists).
        """
        if trace_id is None:
            return {"recent": tracer.recent(20), "tracer": tracer.info()}
        found = tracer.get(trace_id)
        if found is None:
            raise protocol.ProtocolError(
                f"no buffered trace for {trace_id} (the ring keeps the last "
                f"{tracer.capacity} traces)",
                code=protocol.UNKNOWN_TRACE,
            )
        return {"trace": found, "rendered": render_trace_tree(found)}

    def _collect_samples(self):
        """Pull-time gauge samples for the registry (export-time only)."""
        samples = [("repro_mem_live_bytes", {}, self.cursors.live_mem_bytes())]
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
        info = self.plan_cache.info()
        labels = {"cache": "plan"}
        samples.append(("repro_cache_entries", labels, info["entries"]))
        samples.append(("repro_cache_hits_total", labels, info["hits"]))
        samples.append(("repro_cache_misses_total", labels, info["misses"]))
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
        root = tracer.start_trace(op, request_id=request_id)
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
            if error:
                self._errors_metric.labels(
                    op=op, code=error.get("code", "internal")
                ).inc()

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
            elif op == "hello":
                payload = self.hello(request.get("frames", "json"))
            elif op == "metrics":
                payload = self.metrics(
                    format=request.get("format", "prometheus")
                )
            elif op == "trace":
                payload = self.trace(trace_id=request.get("trace"))
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
