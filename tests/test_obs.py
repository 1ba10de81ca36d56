"""The observability layer: tracing, metrics registry, delay profiles,
EXPLAIN ANALYZE, and the server ops that expose them.

Three properties anchor the suite (the issue's acceptance criteria):

- the *overhead guard* — with tracing disabled, the instrumented
  executor may cost at most a few percent over the raw engine stream on
  a seeded PART enumeration;
- *trace-tree well-formedness* — every buffered span is closed and
  every parent precedes its children;
- *registry thread-safety* — concurrent ``inc``/``observe``/export from
  many threads loses no updates and never corrupts an export.
"""

from __future__ import annotations

import gc
import json
import threading
import time

import pytest

import repro.sql
from repro.anyk.api import rank_enumerate
from repro.data.generators import path_database, random_graph_database
from repro.engine.executor import execute
from repro.engine.planner import plan_compiled
from repro.obs import (
    DELAY_BOUNDS,
    TTK_CHECKPOINTS,
    DelayProfile,
    MemoryProfile,
    MetricsRegistry,
    NOOP_SPAN,
    Tracer,
    analyze_plan,
    render_analyze,
    render_trace_tree,
    run_analyze,
    tracer,
)
from repro.server import QueryService
from repro.server.protocol import ProtocolError, validate_request
from repro.util.counters import Counters

PATH_SQL = (
    "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 JOIN R3 ON R2.A3 = R3.A3 "
    "ORDER BY weight LIMIT {k}"
)


@pytest.fixture(scope="module")
def path_db():
    return path_database(length=3, size=120, domain=18, seed=23)


@pytest.fixture()
def global_tracer_restored():
    """Snapshot and restore the process tracer's enabled flag.

    ``QueryService`` enables the module-level tracer on construction, so
    tests that measure the *disabled* configuration (or assert on no-op
    behavior) must pin the flag themselves.
    """
    prev = tracer.enabled
    yield tracer
    tracer.enabled = prev


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_disabled_tracer_hands_out_the_shared_noop_span():
    t = Tracer(enabled=False)
    assert t.start_trace("query") is NOOP_SPAN
    assert t.span("parse") is NOOP_SPAN
    assert len(t) == 0
    assert t.info()["started"] == 0
    # The no-op span supports the whole Span surface.
    with t.span("anything") as span:
        span.set(a=1).finish()


def test_span_outside_any_trace_is_noop():
    t = Tracer(enabled=True)
    assert t.span("orphan") is NOOP_SPAN
    assert len(t) == 0


def test_trace_tree_well_formed():
    """Every span closed, parents precede children, offsets consistent."""
    t = Tracer(enabled=True)
    with t.start_trace("query", request_id=41) as root:
        with t.span("parse"):
            pass
        with t.span("plan", engine="part:lazy"):
            with t.span("cost"):
                pass
        assert t.current_trace_id() == root.trace_id

    trace = t.get(root.trace_id)
    assert trace is not None
    assert trace["op"] == "query"
    assert trace["request_id"] == 41
    spans = trace["spans"]
    assert [s["name"] for s in spans] == ["query", "parse", "plan", "cost"]

    seen_ids = set()
    for index, span in enumerate(spans):
        # Closed: the duration stamp is what Span.finish writes.
        assert span["duration_ms"] is not None, span
        assert span["duration_ms"] >= 0.0
        assert span["start_ms"] >= 0.0
        if index == 0:
            assert span["parent_id"] is None
        else:
            # Parents precede children in the span list.
            assert span["parent_id"] in seen_ids, span
        seen_ids.add(span["span_id"])
    # Child offsets sit inside the root's window.
    root_span = spans[0]
    for span in spans[1:]:
        assert span["start_ms"] <= root_span["duration_ms"] + 1.0

    rendered = render_trace_tree(trace)
    for name in ("query", "parse", "plan", "cost"):
        assert name in rendered
    assert "engine=part:lazy" in rendered


def test_trace_attributes_and_errors_recorded():
    t = Tracer(enabled=True)
    with pytest.raises(ValueError):
        with t.start_trace("query") as root:
            with t.span("execute") as span:
                span.set(rows=7)
                raise ValueError("boom")
    trace = t.get(root.trace_id)
    execute_span = trace["spans"][1]
    assert execute_span["attrs"] == {"rows": 7}
    assert "ValueError: boom" in execute_span["error"]
    # The error still closed both spans.
    assert all(s["duration_ms"] is not None for s in trace["spans"])
    assert "!!" in render_trace_tree(trace)


def test_trace_ring_is_bounded():
    t = Tracer(capacity=4, enabled=True)
    ids = []
    for i in range(10):
        with t.start_trace("op", request_id=i) as root:
            pass
        ids.append(root.trace_id)
    assert len(t) == 4
    info = t.info()
    assert info["started"] == 10
    assert info["dropped"] == 6
    # Only the newest four survive, newest first via recent().
    recent = [trace["trace_id"] for trace in t.recent(10)]
    assert recent == list(reversed(ids[-4:]))
    assert t.get(ids[0]) is None


def test_an_evicted_trace_is_freed_mid_flight():
    """The ring alone owns a trace: evicting one still in flight frees
    its record by reference counting, its later spans are no-ops, and
    its root keeps the id the response echoes."""
    t = Tracer(capacity=1, enabled=True)
    gc.disable()
    try:
        with t.start_trace("old") as old:
            record = old.record
            with t.start_trace("new") as new:
                pass
            assert record() is None
            assert t.span("late") is NOOP_SPAN
    finally:
        gc.enable()
    assert old.trace_id and t.get(old.trace_id) is None
    assert [s["name"] for s in t.get(new.trace_id)["spans"]] == ["new"]
    assert t.info()["dropped"] == 1


def test_nested_traces_per_thread_are_independent():
    """contextvars parenting: concurrent threads never cross-link spans."""
    t = Tracer(enabled=True)
    errors: list[str] = []

    def worker(tag: str) -> None:
        for _ in range(50):
            with t.start_trace("op", request_id=tag) as root:
                with t.span("inner"):
                    if t.current_trace_id() != root.trace_id:
                        errors.append(tag)

    threads = [
        threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    # Every buffered trace is a self-consistent two-span tree.
    for trace in t.recent(t.capacity):
        spans = trace["spans"]
        assert len(spans) == 2
        assert spans[1]["parent_id"] == spans[0]["span_id"]


# ----------------------------------------------------------------------
# The metrics registry
# ----------------------------------------------------------------------
def test_registry_counter_gauge_histogram_basics():
    registry = MetricsRegistry()
    fetches = registry.counter("repro_fetches_total", "fetches handled")
    fetches.inc()
    fetches.inc(2)
    with pytest.raises(ValueError):
        fetches.inc(-1)
    assert not hasattr(registry, "gauge")  # gauges come from collectors

    latency = registry.histogram(
        "repro_op_latency_ms", "per-op latency", labelnames=("op",)
    )
    latency.labels(op="query").observe(5.0)
    latency.labels(op="query").observe(15.0)
    latency.labels(op="fetch").observe(1.0)
    with pytest.raises(ValueError):
        latency.labels(wrong="query")
    with pytest.raises(ValueError):
        latency.observe(1.0)  # labeled family needs .labels(...)

    # Re-registration with the same shape is idempotent ...
    assert registry.counter("repro_fetches_total") is fetches
    # ... and a conflicting shape is an error, not silent aliasing.
    with pytest.raises(ValueError):
        registry.histogram("repro_fetches_total")
    with pytest.raises(ValueError):
        registry.counter("repro_fetches_total", labelnames=("op",))
    # total(): counter values or histogram counts, summed over children.
    assert fetches.total() == 3
    assert latency.total() == 3

    text = registry.render_prometheus()
    assert "# TYPE repro_fetches_total counter" in text
    assert "repro_fetches_total 3" in text
    assert "# TYPE repro_op_latency_ms histogram" in text
    assert 'repro_op_latency_ms_count{op="query"} 2' in text
    assert 'repro_op_latency_ms_sum{op="query"} 20.0' in text

    data = registry.to_json()
    assert data["repro_fetches_total"]["samples"][0]["value"] == 3
    by_label = {
        sample["labels"]["op"]: sample
        for sample in data["repro_op_latency_ms"]["samples"]
    }
    assert by_label["query"]["count"] == 2
    assert by_label["fetch"]["count"] == 1


def test_prometheus_histogram_buckets_are_cumulative():
    registry = MetricsRegistry()
    hist = registry.histogram("h", bounds=(1.0, 10.0, 100.0))
    for value in (0.5, 5.0, 50.0, 500.0):
        hist.observe(value)
    text = registry.render_prometheus()
    buckets = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("h_bucket")
    ]
    assert buckets == sorted(buckets), "bucket counts must be cumulative"
    assert buckets[-1] == 4  # the +Inf bucket equals the total count
    assert "h_count 4" in text


def test_registry_collectors_export_external_state():
    registry = MetricsRegistry()
    registry.add_collector(
        lambda: [("external_gauge", {"kind": "a"}, 7), ("external_gauge", {}, 1.5)]
    )
    registry.add_collector(lambda: 1 / 0)  # broken collectors are skipped
    registry.add_collector(lambda: [("external_seen_total", {}, 3)])
    text = registry.render_prometheus()
    assert "# TYPE external_gauge gauge" in text
    assert 'external_gauge{kind="a"} 7' in text
    # A monotone count keeps the ``_total`` convention's type.
    assert "# TYPE external_seen_total counter" in text
    data = registry.to_json()
    assert len(data["external_gauge"]["samples"]) == 2
    assert data["external_gauge"]["type"] == "gauge"
    assert data["external_seen_total"]["type"] == "counter"


def test_registry_thread_safety_under_concurrent_bump_observe_export():
    """N writers + concurrent exporters: exact totals, no exceptions."""
    registry = MetricsRegistry()
    counter = registry.counter("ops_total", labelnames=("op",))
    hist = registry.histogram("latency_ms", bounds=(1.0, 10.0, 100.0))
    stop = threading.Event()
    failures: list[BaseException] = []
    WRITERS, ROUNDS = 8, 500

    def writer(op: str) -> None:
        try:
            for i in range(ROUNDS):
                counter.labels(op=op).inc()
                hist.observe(float(i % 20))
        except BaseException as exc:  # noqa: BLE001 - report to main thread
            failures.append(exc)

    def exporter() -> None:
        try:
            while not stop.is_set():
                text = registry.render_prometheus()
                assert "# TYPE ops_total counter" in text
                data = registry.to_json()
                # Partial-but-consistent: never more than the final total.
                assert data["latency_ms"]["samples"][0]["count"] <= WRITERS * ROUNDS
        except BaseException as exc:  # noqa: BLE001
            failures.append(exc)

    writers = [
        threading.Thread(target=writer, args=(f"op{i % 3}",))
        for i in range(WRITERS)
    ]
    exporters = [threading.Thread(target=exporter) for _ in range(2)]
    for thread in exporters + writers:
        thread.start()
    for thread in writers:
        thread.join()
    stop.set()
    for thread in exporters:
        thread.join()

    assert not failures, failures
    data = registry.to_json()
    total = sum(
        sample["value"] for sample in data["ops_total"]["samples"]
    )
    assert total == WRITERS * ROUNDS
    assert data["latency_ms"]["samples"][0]["count"] == WRITERS * ROUNDS


# ----------------------------------------------------------------------
# The anytime-delay profiler
# ----------------------------------------------------------------------
def test_delay_profile_records_ttf_ttk_and_per_result_delay():
    profile = DelayProfile(engine="part:lazy")
    drained = list(profile.wrap(iter([(("a",), 1.0)] * 25)))
    assert len(drained) == 25
    assert profile.results == 25
    assert profile.streams == 1
    assert profile.delay.count == 25
    assert profile.ttf_ms is not None
    # Checkpoints crossed: 1 and 10 (25 < 100).
    assert sorted(profile.ttk_ms) == [1, 10]
    assert all(k in TTK_CHECKPOINTS for k in profile.ttk_ms)
    assert profile.ttk_ms[1] == profile.ttf_ms
    summary = profile.summary()
    assert summary["engine"] == "part:lazy"
    assert summary["busy_ms"] >= 0.0
    assert summary["delay_ms"]["count"] == 25
    assert set(summary["ttk_ms"]) == {"1", "10"}
    # Wall time to the 10th result is at least the wall time to the 1st.
    assert summary["ttk_ms"]["10"] >= summary["ttf_ms"]


def test_delay_profile_pausing_does_not_pollute_delay():
    """The busy clock charges next() time only, not idle gaps."""
    profile = DelayProfile()
    stream = profile.wrap(iter([((1,), 0.1), ((2,), 0.2)]))
    next(stream)
    time.sleep(0.05)  # a paused cursor, one page fetched much later
    next(stream)
    summary = profile.summary()
    # 50 ms of idling must not appear as a 50 ms inter-result delay.
    assert summary["delay_ms"]["max_ms"] < 50.0
    # But TT(k) wall time does include it — that is what a user waits.


def test_explain_analyze_files_two_numbers_per_shard():
    """Under ``workers=2`` each worker ships its shard's result count and
    busy time, nothing else, and EXPLAIN ANALYZE renders one row per
    shard from them.  LIMIT past the join size drains every shard to its
    done frame, so the per-shard counts add up to the rows returned.
    4,200 input tuples clear the router's parallelism floor."""
    db = path_database(length=2, size=2100, domain=700, seed=5)
    sql = "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 ORDER BY weight LIMIT 100000"
    compiled = repro.sql.analyze(db, sql)
    plan = plan_compiled(db, compiled, engine="part:lazy", workers=2)
    assert plan.workers == 2
    profile = DelayProfile()
    report = analyze_plan(
        db, compiled, plan, {}, time.perf_counter(), Counters(), profile,
        MemoryProfile(),
    )
    assert sorted(shard["shard"] for shard in profile.shards) == [0, 1]
    for shard in profile.shards:
        assert set(shard) == {"shard", "results", "busy_ms"}
    shards = report["profile"]["shards"]
    assert sum(shard["results"] for shard in shards) == report["rows"] > 0
    text = render_analyze(report)
    for shard in shards:
        assert f"shard[{shard['shard']}] results={shard['results']} busy=" in text


def test_delay_bounds_open_below_default_latency_bounds():
    # Sub-millisecond per-result delays need resolution the op-latency
    # histogram does not: the delay bounds must reach 100 ns territory.
    assert DELAY_BOUNDS[0] <= 0.0001


@pytest.mark.parametrize("engine", ["part:lazy", "rec", "batch"])
def test_execute_with_profile_counts_every_emitted_row(path_db, engine):
    sql = PATH_SQL.format(k=60)
    profile = DelayProfile()
    # The external clock starts before parsing, where a caller's does.
    started = time.perf_counter()
    compiled = repro.sql.analyze(path_db, sql)
    plan = plan_compiled(path_db, compiled, engine=engine)
    rows = 0
    for _ in execute(compiled, plan, profile=profile):
        if rows == 0:
            ttfr_ms = (time.perf_counter() - started) * 1000.0
        rows += 1
    wall_ms = (time.perf_counter() - started) * 1000.0
    assert rows > 0
    assert profile.results == rows
    assert profile.engine == engine  # filled from the plan
    # The in-engine clocks start at the first pull, inside the external
    # one: a profile that exceeds it charges time nobody waited.
    assert profile.ttf_ms <= ttfr_ms
    assert profile.ttk_ms[10] <= wall_ms


# ----------------------------------------------------------------------
# The overhead guard
# ----------------------------------------------------------------------
def test_tracing_disabled_overhead_on_part_enumeration(
    path_db, global_tracer_restored
):
    """Instrumented executor with tracing off: within a few percent of
    the raw engine stream on a seeded PART enumeration.

    The per-result hot path carries *no* instrumentation — profiling is
    opt-in per call, tracing is per-request — so the only added cost is
    one disabled-tracer check per execute().  The baseline below is the
    pre-instrumentation executor body, inlined.
    """
    tracer.disable()
    sql = PATH_SQL.format(k=5000)
    compiled = repro.sql.analyze(path_db, sql)
    plan = plan_compiled(path_db, compiled, engine="part:lazy")

    def baseline() -> int:
        # Exactly the executor's serial path, minus the obs seams.
        working, cq = plan.working_db, plan.working_cq
        stream = rank_enumerate(
            working,
            cq,
            ranking=compiled.ranking,
            method=plan.engine,
            k=compiled.k,
        )
        positions = compiled.output_positions
        identity = positions == tuple(range(len(cq.variables)))
        n = 0
        for row, weight in stream:
            _ = row if identity else tuple(row[p] for p in positions)
            n += 1
        return n

    def instrumented() -> int:
        return sum(1 for _ in execute(compiled, plan))

    assert baseline() == instrumented() > 0  # same work, then time it

    # Best of five per side, the repeats interleaved (and the order
    # alternated), so a slow phase of the machine hits both sides.
    best = {baseline: float("inf"), instrumented: float("inf")}
    for repeat in range(5):
        for fn in (baseline, instrumented)[:: 1 if repeat % 2 else -1]:
            start = time.perf_counter()
            fn()
            best[fn] = min(best[fn], time.perf_counter() - start)
    base_s, instr_s = best[baseline], best[instrumented]
    # <= 5% relative, with a 2 ms absolute floor so a sub-millisecond
    # scheduler hiccup cannot fail the build on a fast machine.
    assert instr_s <= base_s * 1.05 + 2e-3, (
        f"disabled-tracing overhead too high: baseline {base_s * 1e3:.2f} ms, "
        f"instrumented {instr_s * 1e3:.2f} ms"
    )


#: The benchmark's engine statements on small instances (engine None:
#: the router decides), plus a triangle for the GHD rewrite: workload ->
#: (database, SQL, engine, spans the compile seam opens).
PATH4_SQL = (
    "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 JOIN R3 ON R2.A3 = R3.A3 "
    "JOIN R4 ON R3.A4 = R4.A4 ORDER BY weight LIMIT 2000"
)
CYCLE4_SQL = (
    "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
    "JOIN E AS e3 ON e2.dst = e3.src "
    "JOIN E AS e4 ON e3.dst = e4.src AND e4.dst = e1.src "
    "ORDER BY weight LIMIT 1000"
)
TRIANGLE_SQL = (
    "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
    "JOIN E AS e3 ON e2.dst = e3.src AND e3.dst = e1.src "
    "ORDER BY weight LIMIT 100"
)
_ACYCLIC_SPANS = (
    "anyk.tdp.build", "anyk.kernels.install", "anyk.enum.first", "anyk.enum.drain"
)
LAYER_SPAN_CASES = {
    "path_part": ("path", PATH4_SQL, "part:lazy", _ACYCLIC_SPANS),
    "path_rec": ("path", PATH4_SQL, "rec", _ACYCLIC_SPANS),
    "cycle_topk": (
        "graph",
        CYCLE4_SQL,
        None,
        ("joins.heavylight.build", "anyk.tdp.build", "anyk.cyclic.first", "anyk.cyclic.drain"),
    ),
    "triangle": (
        "graph",
        TRIANGLE_SQL,
        None,
        ("anyk.ghd.build", "anyk.tdp.build", "anyk.cyclic.first", "anyk.cyclic.drain"),
    ),
}


@pytest.mark.parametrize("workload", sorted(LAYER_SPAN_CASES))
def test_library_emits_its_layer_spans(workload, global_tracer_restored):
    """A traced ``repro.sql.query(...).fetchall()`` emits the compile
    seam's layer spans: the builds under ``execute.setup``, first and
    drain beside it under the caller's span.  Setup, first and drain
    cover >= 95 % of the interval from setup's start to drain's end, and
    after the drain the caller's span is current again."""
    kind, sql, engine, names = LAYER_SPAN_CASES[workload]
    db = (
        path_database(length=4, size=300, domain=30, seed=1)
        if kind == "path"
        else random_graph_database(num_edges=2000, num_nodes=270, seed=1)
    )
    expected = repro.sql.query(db, sql, engine=engine).fetchall()
    tracer.enable()
    root = tracer.start_trace("caller")
    with root:
        rows = repro.sql.query(db, sql, engine=engine).fetchall()
        assert tracer.current_span() is root
    assert rows == expected
    spans = tracer.get(root.trace_id)["spans"]
    by_name = {}
    for span in spans:
        assert span["duration_ms"] is not None, span
        by_name.setdefault(span["name"], []).append(span)
    assert set(names) <= set(by_name)
    assert all(len(by_name[name]) == 1 for name in names)
    (setup,) = by_name["execute.setup"]
    first_name, drain_name = names[-2:]
    for name in names[:-2]:
        assert by_name[name][0]["parent_id"] == setup["span_id"], name
    top = [setup, by_name[first_name][0], by_name[drain_name][0]]
    assert all(span["parent_id"] == root.span_id for span in top)
    start = setup["start_ms"]
    end = top[-1]["start_ms"] + top[-1]["duration_ms"]
    covered = sum(span["duration_ms"] for span in top)
    assert covered >= 0.95 * (end - start)


def test_untraced_stream_is_not_wrapped(path_db, global_tracer_restored):
    """With tracing off, an acyclic stream is the engine's own generator:
    no span, no wrapper, no per-result layer."""
    tracer.disable()
    stream = rank_enumerate(
        path_db,
        repro.sql.analyze(path_db, PATH_SQL.format(k=5)).cq,
        method="part:lazy",
        deterministic=False,
    )
    assert stream.gi_code.co_name == "anyk_part"


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE
# ----------------------------------------------------------------------
def test_run_analyze_report_structure(path_db):
    report = run_analyze(
        path_db, PATH_SQL.format(k=25), engine="part:lazy"
    )
    assert report["engine"] == "part:lazy"
    assert report["rows"] == 25
    for stage in ("parse", "analyze", "plan", "execute", "total"):
        assert report["stages_ms"][stage] >= 0.0
    assert report["cache"] == {"plan_cache": "bypass"}

    operators = report["operators"]
    scans = [op for op in operators if op["operator"].startswith("scan")]
    assert [s["relation"] for s in scans] == ["R1", "R2", "R3"]
    for scan in scans:
        assert 0 < scan["rows"] <= scan["base_rows"]
    tail = operators[-1]
    assert tail["operator"] == "enumerate[part:lazy]"
    assert tail["rows"] == 25

    profile = report["profile"]
    assert profile["results"] == 25
    assert profile["delay_ms"]["count"] == 25
    assert "1" in profile["ttk_ms"] and "10" in profile["ttk_ms"]
    assert report["counters"]  # the RAM-model counters rode along


def test_run_analyze_applies_filters_and_strips_prefix(path_db):
    report = run_analyze(
        path_db,
        "EXPLAIN ANALYZE SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 "
        "WHERE R1.A1 < 9 ORDER BY weight LIMIT 10",
    )
    filtered = [
        op for op in report["operators"] if op["operator"] == "scan+filter"
    ]
    assert len(filtered) == 1
    assert filtered[0]["relation"] == "R1"
    assert filtered[0]["rows"] < filtered[0]["base_rows"]


def test_explain_analyze_rendering_and_sql_dispatch(path_db):
    sql = PATH_SQL.format(k=12)
    plain = repro.sql.explain(path_db, f"EXPLAIN {sql}")
    assert "timing:" not in plain  # plain EXPLAIN never executes

    analyzed = repro.sql.explain(path_db, f"EXPLAIN ANALYZE {sql}")
    assert plain.splitlines()[0] in analyzed  # same plan header
    assert "timing:" in analyzed
    assert "enumerate[" in analyzed
    assert "anytime:" in analyzed
    assert "tt(10)=" in analyzed
    # Direct entry point agrees with the EXPLAIN ANALYZE dispatch.
    assert "timing:" in repro.sql.explain_analyze(path_db, sql)


def test_explain_analyze_rejects_mutations(path_db):
    with pytest.raises(repro.sql.SqlError):
        run_analyze(path_db, "EXPLAIN ANALYZE DELETE FROM R1 WHERE A1 = 1")


# ----------------------------------------------------------------------
# The server surface: metrics / trace ops, trace_id, results_emitted
# ----------------------------------------------------------------------
def test_service_metrics_op_prometheus_and_json(path_db):
    service = QueryService(path_db)
    response = service.handle(
        {"id": 1, "op": "query", "sql": PATH_SQL.format(k=8)}
    )
    assert response["ok"], response

    metrics = service.handle({"id": 2, "op": "metrics"})
    assert metrics["ok"]
    assert metrics["content_type"].startswith("text/plain")
    text = metrics["metrics"]
    assert "# TYPE repro_op_latency_ms histogram" in text
    assert 'repro_op_latency_ms_count{op="query"} 1' in text
    assert "repro_cursors_opened_total 1" in text
    assert "repro_cursors_open" in text
    assert "repro_uptime_seconds" in text

    as_json = service.handle({"id": 3, "op": "metrics", "format": "json"})
    assert as_json["ok"]
    assert as_json["metrics"]["repro_op_latency_ms"]["type"] == "histogram"
    # The registry JSON round-trips through the wire encoding.
    json.dumps(as_json["metrics"])


def test_service_echoes_trace_id_and_serves_the_trace(path_db):
    service = QueryService(path_db)
    response = service.handle(
        {"id": 7, "op": "query", "sql": PATH_SQL.format(k=5)}
    )
    assert response["ok"] and response["trace_id"]

    looked_up = service.handle(
        {"id": 8, "op": "trace", "trace": response["trace_id"]}
    )
    assert looked_up["ok"]
    spans = looked_up["trace"]["spans"]
    names = [span["name"] for span in spans]
    assert names[0] == "query"
    assert "parse" in names and "plan" in names and "cache_lookup" in names
    assert all(span["duration_ms"] is not None for span in spans)
    # The rendering shows the looked-up trace (the response's own
    # trace_id belongs to the trace op's request, a different trace).
    assert response["trace_id"] in looked_up["rendered"]

    recent = service.handle({"id": 10, "op": "trace"})
    assert recent["ok"] and recent["recent"]
    assert recent["tracer"]["buffered"] >= 1

    missing = service.handle({"id": 11, "op": "trace", "trace": "t-nope"})
    assert not missing["ok"]
    assert missing["error"]["code"] == "unknown_trace"
    assert "t-nope" in missing["error"]["message"]


def test_page_fetch_spans_carry_engine_attribution(path_db):
    service = QueryService(path_db)
    opened = service.handle(
        {"id": 1, "op": "query", "sql": PATH_SQL.format(k=40), "fetch": 5}
    )
    fetched = service.handle(
        {"id": 2, "op": "fetch", "cursor": opened["cursor"], "n": 5}
    )
    assert fetched["ok"]
    trace = service.handle({"id": 3, "op": "trace", "trace": fetched["trace_id"]})
    pages = [
        span
        for span in trace["trace"]["spans"]
        if span["name"] == "page_fetch"
    ]
    assert pages and pages[0]["attrs"]["rows"] == 5
    assert pages[0]["attrs"]["engine"] == opened["engine"]


def test_results_emitted_is_cumulative(path_db):
    service = QueryService(path_db)
    opened = service.handle(
        {"id": 1, "op": "query", "sql": PATH_SQL.format(k=30), "fetch": 4}
    )
    assert opened["results_emitted"] == len(opened["rows"]) == 4
    total = opened["results_emitted"]
    cursor = opened["cursor"]
    page = service.handle({"id": 2, "op": "fetch", "cursor": cursor, "n": 6})
    total += len(page["rows"])
    assert page["results_emitted"] == total == 10
    closed = service.handle({"id": 3, "op": "close", "cursor": cursor})
    assert closed["results_emitted"] == total


def test_stats_percentiles_and_delay_profiles(path_db):
    service = QueryService(path_db)
    for i in range(3):
        response = service.handle(
            {"id": i, "op": "query", "sql": PATH_SQL.format(k=20), "fetch": 100}
        )
        assert response["ok"] and response["done"]  # drained → retired

    stats = service.handle({"id": 99, "op": "stats"})
    latency = stats["op_latency_ms"]["query"]
    # Back-compat keys plus the promoted histogram percentiles.
    assert latency["count"] == 3
    for key in ("mean", "max", "p50_ms", "p95_ms", "p99_ms"):
        assert latency[key] >= 0.0
    assert latency["p50_ms"] <= latency["p99_ms"] <= latency["max"] * 1.001

    profiles = stats["delay_profiles"]
    assert len(profiles) == 1
    (engine, profile), = profiles.items()
    assert profile["streams"] == 3
    assert profile["results"] == 60
    assert profile["ttf_ms"]["count"] == 3
    assert stats["tracer"]["enabled"] is True


def test_service_explain_analyze_reports_plan_cache(path_db):
    service = QueryService(path_db)
    sql = PATH_SQL.format(k=10)
    first = service.handle({"id": 1, "op": "explain", "sql": sql, "analyze": True})
    assert first["ok"]
    assert first["analyze"]["cache"]["plan_cache"] == "miss"
    assert first["analyze"]["rows"] == 10
    assert "timing:" in first["explain"]

    second = service.handle({"id": 2, "op": "explain", "sql": sql, "analyze": True})
    assert second["analyze"]["cache"]["plan_cache"] == "hit"
    # The analyze runs fold into the service-wide delay profiles too.
    stats = service.handle({"id": 3, "op": "stats"})
    assert stats["delay_profiles"][first["engine"]]["streams"] == 2

    plain = service.handle({"id": 4, "op": "explain", "sql": sql})
    assert plain["ok"] and "timing:" not in plain["explain"]


def test_stats_and_metrics_keep_one_record_per_number(path_db):
    """Every server-wide ``stats`` number is read from the registry, so it
    equals its ``metrics`` counterpart after any mix of ops."""
    service = QueryService(path_db)
    sql = PATH_SQL.format(k=30)
    ops = [
        {"op": "query", "sql": sql, "fetch": 5},
        {"op": "query", "sql": sql.replace("ORDER", "WHERE R1.A1 < 0 ORDER")},
        {"op": "query", "sql": sql, "engine": "rec", "fetch": 100},
        {"op": "query", "sql": PATH_SQL.format(k=8), "engine": "batch"},
        {"op": "fetch", "cursor": "c-missing"},
        {"op": "query", "sql": "SELEC nonsense"},
        {"op": "explain", "sql": sql, "analyze": True},
        {"op": "mutate", "sql": "INSERT INTO R1 VALUES (1, 2)"},
    ]
    for i, op in enumerate(ops):
        response = service.handle({"id": i, **op})
        while response.get("done") is False:  # drain every opened cursor
            response = service.handle(
                {"id": i, "op": "fetch", "cursor": response["cursor"], "n": 7}
            )
    stats = service.stats()
    metrics = service.handle({"op": "metrics", "format": "json"})["metrics"]

    def samples(name: str, key: str = "value") -> dict:
        return {
            ",".join(s["labels"].values()): s[key]
            for s in metrics[name]["samples"]
        }

    def total(name: str, key: str = "value") -> int:
        return sum(samples(name, key).values())

    assert stats["requests"] == total("repro_op_latency_ms", "count")
    # Four queries and one bad SQL.
    assert stats["op_latency_ms"]["query"]["count"] == 5
    assert stats["errors"] == total("repro_errors_total") == 2
    assert stats["queries"] == total("repro_cursors_opened_total") == 4
    for key in ("fetches", "rows_served", "mutations"):
        assert stats[key] == total(f"repro_{key}_total")
    assert stats["mutations"] == 1
    views = stats["delay_profiles"]
    assert {e: (v["results"], v["streams"]) for e, v in views.items()} == {
        e: (n, samples("repro_ttf_ms", "count")[e])
        for e, n in samples("repro_result_delay_ms", "count").items()
    }
    # Streams count first results: the empty query is not among them.
    assert sum(v["streams"] for v in views.values()) == 4
    # Served rows plus the 30 the EXPLAIN ANALYZE run drained.
    assert sum(v["results"] for v in views.values()) == stats["rows_served"] + 30
    views = stats["memory"]["profiles"]
    assert {e: (v["streams"], v["peak_entries"]) for e, v in views.items()} == {
        e: (n, samples("repro_mem_peak_entries", "max_ms")[e])
        for e, n in samples("repro_mem_peak_entries", "count").items()
    }
    assert views["rec"]["streams"] == 1 and views["rec"]["peak_entries"] > 0
    prometheus = service.handle({"op": "metrics"})
    types, _ = parse_exposition(prometheus["metrics"])
    assert "repro_queries_total" not in types
    for name in ("fetches", "rows_served", "mutations", "mem_pressure_rejections"):
        assert types[f"repro_{name}_total"] == "counter"
    assert types["repro_mem_pressure_evictions_total"] == "counter"


def test_stats_stay_bounded_under_sharded_queries():
    """A sharded cursor's worker snapshots stay in its own profile: the
    ``stats`` payload does not grow with the number of queries served."""
    service = QueryService(
        path_database(length=3, size=3000, domain=300, seed=7), workers=2
    )
    sql = (
        "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 JOIN R3 ON R2.A3 = R3.A3 "
        "WHERE R1.A1 > ? ORDER BY weight LIMIT 20"
    )
    assert service.plan(sql, params=[0])[1].workers == 2
    sizes = []
    for queries in (10, 40):
        for i in range(queries):
            assert service.query(sql, fetch=21, params=[i % 3])["done"]
        sizes.append(len(json.dumps(service.stats())))
    assert sizes[1] - sizes[0] < 200, sizes


def test_protocol_validates_new_ops():
    assert validate_request({"op": "metrics"}) == "metrics"
    assert validate_request({"op": "metrics", "format": "json"}) == "metrics"
    with pytest.raises(ProtocolError):
        validate_request({"op": "metrics", "format": "xml"})
    assert validate_request({"op": "trace", "trace": "t1-2"}) == "trace"
    with pytest.raises(ProtocolError):
        validate_request({"op": "trace", "trace": 5})
    assert (
        validate_request({"op": "explain", "sql": "x", "analyze": True})
        == "explain"
    )
    with pytest.raises(ProtocolError):
        validate_request({"op": "explain", "sql": "x", "analyze": "yes"})


def test_repro_obs_cli_against_background_server(path_db, capsys):
    """Every repro-obs view against a live in-process server."""
    from repro.obs.cli import main as obs_main
    from repro.server import Client, serve_background

    server, port = serve_background(path_db)
    try:
        with Client(port=port) as client:
            cursor = client.execute(PATH_SQL.format(k=6), batch=6)
            cursor.fetchall()
            trace_id = cursor.trace_id
        args = ["--port", str(port)]

        assert obs_main(args) == 0  # the default one-screen summary
        summary = capsys.readouterr().out
        assert "queries=1" in summary and "op latency (ms):" in summary

        assert obs_main(args + ["--stats", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["queries"] == 1

        assert obs_main(args + ["--metrics"]) == 0
        assert "# TYPE repro_op_latency_ms histogram" in capsys.readouterr().out
        assert obs_main(args + ["--metrics", "--json"]) == 0
        assert "repro_cursors_opened_total" in json.loads(
            capsys.readouterr().out
        )

        assert obs_main(args + ["--traces"]) == 0
        assert "tracer:" in capsys.readouterr().out
        assert obs_main(args + ["--trace", trace_id]) == 0
        assert trace_id in capsys.readouterr().out
        assert obs_main(args + ["--trace", trace_id, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["trace_id"] == trace_id

        # A server-side error renders as a message and a nonzero exit.
        assert obs_main(args + ["--trace", "t-missing"]) == 1
        assert "repro-obs:" in capsys.readouterr().out
    finally:
        server.shutdown()
        server.server_close()

    # With the server gone, connecting fails cleanly.
    assert obs_main(["--port", str(port)]) == 1
    assert "cannot reach" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Prometheus exposition-format conformance
# ----------------------------------------------------------------------
_METRIC_NAME_RE = __import__("re").compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = __import__("re").compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$"
)
_LABEL_NAME_RE = __import__("re").compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
_UNESCAPE = {"\\": "\\", '"': '"', "n": "\n"}


def _parse_label_set(text: str) -> dict:
    """Strict walk of a ``name="value",...`` label set, honoring the
    exposition format's exactly-three escapes (backslash, quote, \\n)."""
    labels: dict[str, str] = {}
    i, n = 0, len(text)
    while i < n:
        match = _LABEL_NAME_RE.match(text, i)
        assert match, f"bad label name at {text[i:]!r}"
        name = match.group(0)
        i = match.end()
        assert text[i] == "=", text[i:]
        assert text[i + 1] == '"', text[i:]
        i += 2
        value = []
        while True:
            assert i < n, "unterminated label value"
            ch = text[i]
            if ch == "\\":
                escaped = text[i + 1]
                assert escaped in _UNESCAPE, f"bad escape \\{escaped!r}"
                value.append(_UNESCAPE[escaped])
                i += 2
            elif ch == '"':
                i += 1
                break
            else:
                assert ch != "\n", "raw newline inside a label value"
                value.append(ch)
                i += 1
        labels[name] = "".join(value)
        if i < n:
            assert text[i] == ",", f"expected ',' at {text[i:]!r}"
            i += 1
    return labels


def parse_exposition(text: str):
    """Strict line parser for the Prometheus text exposition format.

    Returns ``(types, samples)`` where ``types`` maps metric name ->
    declared type and ``samples`` is ``[(name, labels, value)]``.
    Asserts the invariants scrapers rely on: every line is HELP, TYPE,
    or a sample; names are well-formed; at most one TYPE per name and
    it precedes the name's samples; every value parses as a float.
    """
    types: dict[str, str] = {}
    samples: list[tuple[str, dict, float]] = []
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.splitlines():
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            assert len(parts) == 4 and _METRIC_NAME_RE.match(parts[2]), line
        elif line.startswith("# TYPE "):
            parts = line.split(" ")
            assert len(parts) == 4, line
            name, kind = parts[2], parts[3]
            assert _METRIC_NAME_RE.match(name), line
            assert kind in ("counter", "gauge", "histogram"), line
            assert name not in types, f"duplicate TYPE for {name}"
            types[name] = kind
        else:
            assert not line.startswith("#"), f"unknown comment: {line!r}"
            match = _SAMPLE_RE.match(line)
            assert match, f"unparseable sample line: {line!r}"
            name, label_text, value = match.groups()
            labels = _parse_label_set(label_text) if label_text else {}
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                stripped = name[: -len(suffix)] if name.endswith(suffix) else None
                if stripped and stripped in types:
                    base = stripped
            assert base in types, f"sample before TYPE: {name}"
            samples.append((name, labels, float(value)))
    return types, samples


def test_prometheus_exposition_conformance(path_db):
    """The full live exposition of a served workload parses under the
    strict grammar, and histogram series satisfy the cumulative-bucket
    contract (+Inf bucket == _count, counts non-decreasing in le)."""
    service = QueryService(path_db, max_mem_mb=64.0)
    opened = service.query(PATH_SQL.format(k=40), fetch=40)
    if opened["cursor"] is not None:
        service.close(opened["cursor"])
    service.handle({"id": 1, "op": "query", "sql": "SELECT nope"})  # an error
    text = service.metrics()["metrics"]
    types, samples = parse_exposition(text)
    service.shutdown()

    assert types["repro_op_latency_ms"] == "histogram"
    assert types["repro_mem_peak_entries"] == "histogram"
    assert types["repro_errors_total"] == "counter"

    for family, kind in types.items():
        if kind != "histogram":
            continue
        buckets: dict[tuple, list[tuple[float, float]]] = {}
        counts: dict[tuple, float] = {}
        sums: dict[tuple, float] = {}
        for name, labels, value in samples:
            series = tuple(
                sorted((k, v) for k, v in labels.items() if k != "le")
            )
            if name == f"{family}_bucket":
                buckets.setdefault(series, []).append(
                    (float(labels["le"]), value)
                )
            elif name == f"{family}_count":
                counts[series] = value
            elif name == f"{family}_sum":
                sums[series] = value
        for series, entries in buckets.items():
            entries.sort(key=lambda pair: pair[0])
            assert entries[-1][0] == float("inf"), series
            cumulative = [count for _, count in entries]
            assert cumulative == sorted(cumulative), (family, series)
            assert cumulative[-1] == counts[series], (family, series)
            assert series in sums, (family, series)


def test_escape_label_pins_prometheus_escaping():
    from repro.obs.registry import _escape_label

    assert _escape_label("plain") == "plain"
    assert _escape_label('say "hi"') == 'say \\"hi\\"'
    assert _escape_label("back\\slash") == "back\\\\slash"
    assert _escape_label("two\nlines") == "two\\nlines"
    # Backslashes escape first, so a pre-escaped quote stays parseable
    # instead of collapsing into a bare escape.
    assert _escape_label('\\"') == '\\\\\\"'


def test_registry_renders_hostile_label_values_parseably():
    """Label values containing quotes, backslashes, and newlines render
    to lines the strict parser recovers verbatim."""
    registry = MetricsRegistry()
    counter = registry.counter(
        "hostile_total", "hostile label values", labelnames=("sql",)
    )
    hostile = 'SELECT "x\\y"\nFROM "t"'
    counter.labels(sql=hostile).inc(3)
    counter.labels(sql="plain").inc(1)
    types, samples = parse_exposition(registry.render_prometheus())
    assert types["hostile_total"] == "counter"
    recovered = {
        labels["sql"]: value
        for name, labels, value in samples
        if name == "hostile_total"
    }
    assert recovered == {hostile: 3.0, "plain": 1.0}
