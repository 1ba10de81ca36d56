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

import json
import threading
import time

import pytest

import repro.sql
from repro.anyk.api import rank_enumerate
from repro.data.generators import path_database, random_graph_database
from repro.engine.executor import execute, filtered_database
from repro.engine.planner import plan_compiled
from repro.obs import (
    DELAY_BOUNDS,
    TTK_CHECKPOINTS,
    DelayProfile,
    MetricsRegistry,
    NOOP_SPAN,
    Tracer,
    render_trace_tree,
    run_analyze,
    tracer,
)
from repro.server import QueryService
from repro.server.protocol import ProtocolError, validate_request

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

    # The same tree is reachable by protocol request id.
    assert t.find_by_request(41)["trace_id"] == root.trace_id

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
    # The request-id index is pruned alongside the ring.
    assert t.find_by_request(0) is None
    assert t.find_by_request(9) is not None


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
    queries = registry.counter("repro_queries_total", "queries handled")
    queries.inc()
    queries.inc(2)
    with pytest.raises(ValueError):
        queries.inc(-1)

    open_cursors = registry.gauge("repro_cursors_open")
    open_cursors.set(3)
    open_cursors.dec()

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
    assert registry.counter("repro_queries_total") is queries
    # ... and a conflicting shape is an error, not silent aliasing.
    with pytest.raises(ValueError):
        registry.gauge("repro_queries_total")
    with pytest.raises(ValueError):
        registry.counter("repro_queries_total", labelnames=("op",))

    text = registry.render_prometheus()
    assert "# TYPE repro_queries_total counter" in text
    assert "repro_queries_total 3" in text
    assert "repro_cursors_open 2" in text
    assert "# TYPE repro_op_latency_ms histogram" in text
    assert 'repro_op_latency_ms_count{op="query"} 2' in text
    assert 'repro_op_latency_ms_sum{op="query"} 20.0' in text

    data = registry.to_json()
    assert data["repro_queries_total"]["samples"][0]["value"] == 3
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
    text = registry.render_prometheus()
    assert "# TYPE external_gauge gauge" in text
    assert 'external_gauge{kind="a"} 7' in text
    data = registry.to_json()
    assert len(data["external_gauge"]["samples"]) == 2


def test_registry_thread_safety_under_concurrent_bump_observe_export():
    """N writers + concurrent exporters: exact totals, no exceptions."""
    registry = MetricsRegistry()
    counter = registry.counter("ops_total", labelnames=("op",))
    hist = registry.histogram("latency_ms", bounds=(1.0, 10.0, 100.0))
    gauge = registry.gauge("level")
    stop = threading.Event()
    failures: list[BaseException] = []
    WRITERS, ROUNDS = 8, 500

    def writer(op: str) -> None:
        try:
            for i in range(ROUNDS):
                counter.labels(op=op).inc()
                hist.observe(float(i % 20))
                gauge.set(i)
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
    assert profile.ttf.count == 1
    # Checkpoints crossed: 1 and 10 (25 < 100).
    assert sorted(profile.ttk) == [1, 10]
    assert all(k in TTK_CHECKPOINTS for k in profile.ttk)
    summary = profile.summary()
    assert summary["engine"] == "part:lazy"
    assert summary["busy_ms"] >= 0.0
    assert summary["delay_ms"]["count"] == 25
    assert set(summary["ttk_ms"]) == {"1", "10"}
    # Wall time to the 10th result is at least the wall time to the 1st.
    assert (
        summary["ttk_ms"]["10"]["max_ms"] >= summary["ttf_ms"]["max_ms"]
    ) or summary["ttf_ms"]["max_ms"] == pytest.approx(0.0, abs=1e-3)


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


def test_delay_profile_snapshot_merge_roundtrip():
    source = DelayProfile(engine="rec")
    list(source.wrap(iter([((i,), float(i)) for i in range(15)])))
    snap = source.snapshot()
    # Snapshots survive JSON (the worker queue frame / stats op contract).
    snap = json.loads(json.dumps(snap))

    folded = DelayProfile(engine="rec")
    folded.merge_snapshot(snap)
    assert folded.results == source.results
    assert folded.streams == source.streams
    assert folded.busy_ms == pytest.approx(source.busy_ms)
    assert folded.delay.count == source.delay.count
    assert sorted(folded.ttk) == sorted(source.ttk)

    # merge() of live profiles adds up exactly, too.
    merged = DelayProfile(engine="rec")
    merged.merge(source).merge(folded)
    assert merged.results == 2 * source.results
    assert merged.streams == 2
    assert merged.delay.count == 2 * source.delay.count


def test_delay_bounds_open_below_default_latency_bounds():
    # Sub-millisecond per-result delays need resolution the op-latency
    # histogram does not: the delay bounds must reach 100 ns territory.
    assert DELAY_BOUNDS[0] <= 0.0001


@pytest.mark.parametrize("engine", ["part:lazy", "rec", "batch", "rank_join"])
def test_execute_with_profile_counts_every_emitted_row(path_db, engine):
    sql = PATH_SQL.format(k=60)
    profile = DelayProfile()
    # The external clock starts before parsing, where a caller's does.
    started = time.perf_counter()
    compiled = repro.sql.analyze(path_db, sql)
    plan = plan_compiled(path_db, compiled, engine=engine)
    rows = 0
    for _ in execute(path_db, compiled, plan, profile=profile):
        if rows == 0:
            ttfr_ms = (time.perf_counter() - started) * 1000.0
        rows += 1
    wall_ms = (time.perf_counter() - started) * 1000.0
    assert rows > 0
    assert profile.results == rows
    assert profile.engine == engine  # filled from the plan
    # The in-engine clocks start at the first pull, inside the external
    # one: a profile that exceeds it charges time nobody waited.
    assert profile.ttf.max <= ttfr_ms
    assert profile.ttk[10].max <= wall_ms


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
        if working is None or cq is None:
            working, cq = filtered_database(path_db, compiled)
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
        return sum(1 for _ in execute(path_db, compiled, plan))

    assert baseline() == instrumented() > 0  # same work, then time it

    def best_of(fn, repeats: int = 5) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    base_s = best_of(baseline)
    instr_s = best_of(instrumented)
    # <= 5% relative, with a 2 ms absolute floor so a sub-millisecond
    # scheduler hiccup cannot fail the build on a fast machine.
    assert instr_s <= base_s * 1.05 + 2e-3, (
        f"disabled-tracing overhead too high: baseline {base_s * 1e3:.2f} ms, "
        f"instrumented {instr_s * 1e3:.2f} ms"
    )


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
    assert "repro_queries_total 1" in text
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

    by_request = service.handle({"id": 9, "op": "trace", "request": 7})
    assert by_request["trace"]["trace_id"] == response["trace_id"]

    recent = service.handle({"id": 10, "op": "trace"})
    assert recent["ok"] and recent["recent"]
    assert recent["tracer"]["buffered"] >= 1

    missing = service.handle({"id": 11, "op": "trace", "trace": "t-nope"})
    assert not missing["ok"]
    assert missing["error"]["code"] == "unknown_trace"
    assert "t-nope" in missing["error"]["message"]

    by_bad_request = service.handle({"id": 12, "op": "trace", "request": 999})
    assert not by_bad_request["ok"]
    assert by_bad_request["error"]["code"] == "unknown_trace"


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
        assert "repro_queries_total" in json.loads(capsys.readouterr().out)

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


def test_graph_query_profiles_under_rank_join():
    """The HRJN middleware path wraps its stream like any engine."""
    db = random_graph_database(num_edges=300, num_nodes=60, seed=5)
    report = run_analyze(
        db,
        "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
        "ORDER BY weight LIMIT 15",
        engine="rank_join",
    )
    assert report["engine"] == "rank_join"
    assert report["profile"]["results"] == report["rows"] == 15


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
    assert types["repro_mem_peak_bytes"] == "histogram"
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
