"""Observability layer 2: trace propagation, the query log, and SLOs.

Three subsystems, each tested at its own seam and then end to end:

- **Trace propagation** — W3C-traceparent-style ``trace_context``
  round-trips, server-side adoption of a caller's trace id, same-process
  client/server joins, and the grafting of per-shard worker span trees
  under the coordinator's execute span (the acceptance criterion: a
  ``workers=4`` query yields ONE tree with four shard subtrees).
- **Query log** — deterministic sampling, forced slow/error capture,
  size rotation, file views, and replay.
- **SLOs** — the spec grammar, conservative bucket counting, the rolling
  burn-rate engine's verdicts under a fake clock, and the server's
  ``slo`` op (including under ``--readonly``).
"""

from __future__ import annotations

import json

import pytest

from repro.data.generators import path_database
from repro.obs.events import (
    EventLog,
    read_events,
    render_event,
    replay_events,
    sql_hash,
)
from repro.obs.slo import (
    SloEngine,
    SloError,
    parse_slo,
    parse_slos,
    render_slo_report,
    spec_counts,
    worst_status,
)
from repro.obs.trace import (
    format_traceparent,
    new_trace_id,
    parse_traceparent,
    tracer,
)
from repro.server import QueryService
from repro.util.histogram import Histogram

PATH_SQL = (
    "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 JOIN R3 ON R2.A3 = R3.A3 "
    "ORDER BY weight LIMIT {k}"
)


@pytest.fixture(scope="module")
def path_db():
    return path_database(length=3, size=120, domain=18, seed=23)


@pytest.fixture()
def global_tracer_restored():
    prev = tracer.enabled
    yield tracer
    tracer.enabled = prev


# ----------------------------------------------------------------------
# Trace context propagation
# ----------------------------------------------------------------------
def test_traceparent_roundtrips_dashed_trace_ids():
    trace_id = new_trace_id()
    assert "-" in trace_id  # the format the parser must survive
    header = format_traceparent(trace_id, "sdeadbeef.2a")
    parsed = parse_traceparent(header)
    assert parsed == (trace_id, "sdeadbeef.2a")


@pytest.mark.parametrize(
    "garbage",
    ["", "00", "zz-abc-def-01", "00-only-two", 42, None],
)
def test_parse_traceparent_rejects_garbage(garbage):
    assert parse_traceparent(garbage) is None


def test_server_adopts_propagated_trace_context(path_db):
    service = QueryService(path_db)
    joined_before = tracer.info()["joined"]
    trace_id = new_trace_id()
    header = format_traceparent(trace_id, "sclient.1")
    response = service.handle(
        {
            "id": 1,
            "op": "query",
            "sql": PATH_SQL.format(k=3),
            "fetch": 3,
            "trace_context": header,
        }
    )
    assert response["ok"]
    # The server adopted the caller's trace id instead of minting one.
    assert response["trace_id"] == trace_id
    looked_up = service.handle({"id": 2, "op": "trace", "trace": trace_id})
    assert looked_up["ok"]
    spans = looked_up["trace"]["spans"]
    root = spans[0]
    assert root["name"] == "query"
    # The server root is parented under the caller's span id, so a
    # joined rendering hangs the server subtree off the client span.
    assert root["parent_id"] == "sclient.1"
    # Adoption is not a join: nothing local was grafted onto.
    assert tracer.info()["joined"] == joined_before


def test_bad_trace_context_is_a_bad_request(path_db):
    service = QueryService(path_db)
    response = service.handle(
        {"id": 1, "op": "stats", "trace_context": ["not", "a", "string"]}
    )
    assert not response["ok"]
    assert response["error"]["code"] == "bad_request"


def test_client_and_server_spans_join_over_the_wire(
    path_db, global_tracer_restored
):
    from repro.server import Client, serve_background

    server, port = serve_background(path_db)
    try:
        tracer.enabled = True  # the application opts into client spans
        with Client(port=port) as client:
            cursor = client.execute(PATH_SQL.format(k=4), batch=4)
            # The opening request's trace id (fetch round trips refresh
            # cursor.trace_id with their own).
            query_trace_id = cursor.trace_id
            rows = cursor.fetchall()
            assert len(rows) == 4
            looked_up = client.trace(trace_id=query_trace_id)
        names = [span["name"] for span in looked_up["trace"]["spans"]]
        # One tree: the client's round-trip spans AND the server's
        # stage spans, under the same trace id.
        assert "client.query" in names
        assert "serialize" in names and "wait" in names
        assert "query" in names and "plan" in names
        rendered = looked_up["rendered"]
        assert "client.query" in rendered and "page_fetch" in rendered
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.slow
def test_worker_spans_graft_under_the_coordinator_execute_span():
    """A workers=4 sharded query yields one trace tree with >= 4 shard
    subtrees, every worker span parented inside the coordinator's
    execute span (the PR's headline acceptance criterion)."""
    db = path_database(length=3, size=2000, domain=40, seed=7)
    service = QueryService(db, workers=4)
    response = service.handle(
        {"id": 1, "op": "query", "sql": PATH_SQL.format(k=8), "fetch": 8}
    )
    assert response["ok"] and response["rows"]
    # Drain to completion: worker span trees ship in the done frames and
    # graft when the merged stream shuts down.
    page, next_id = response, 2
    while not page.get("done"):
        page = service.handle(
            {"id": next_id, "op": "fetch", "cursor": response["cursor"], "n": 10}
        )
        assert page["ok"]
        next_id += 1
    looked_up = service.handle(
        {"id": next_id, "op": "trace", "trace": response["trace_id"]}
    )
    spans = looked_up["trace"]["spans"]
    by_id = {span["span_id"]: span for span in spans}
    execute_spans = [s for s in spans if s["name"] == "execute.setup"]
    assert len(execute_spans) == 1
    anchor_id = execute_spans[0]["span_id"]
    shard_roots = [s for s in spans if s["name"].startswith("shard[")]
    assert len(shard_roots) == 4
    assert {s["name"] for s in shard_roots} == {
        f"shard[{i}]" for i in range(4)
    }
    for shard_root in shard_roots:
        assert shard_root["parent_id"] == anchor_id
    # Worker-side stage spans rode the done frame and kept their
    # parent links within the shard subtree.
    shard_ids = {s["span_id"] for s in shard_roots}
    stage_names = {
        s["name"] for s in spans if s.get("parent_id") in shard_ids
    }
    assert {"setup", "enumerate"} <= stage_names
    # Every span in the record resolves to the one root: a single tree.
    def root_of(span):
        seen = set()
        while span.get("parent_id") in by_id:
            assert span["span_id"] not in seen  # no cycles
            seen.add(span["span_id"])
            span = by_id[span["parent_id"]]
        return span["span_id"]

    roots = {root_of(span) for span in spans}
    assert roots == {spans[0]["span_id"]}


def test_readonly_server_still_serves_every_obs_op(path_db):
    service = QueryService(path_db, readonly=True)
    response = service.handle(
        {"id": 1, "op": "query", "sql": PATH_SQL.format(k=3), "fetch": 3}
    )
    assert response["ok"]

    metrics = service.handle({"id": 2, "op": "metrics", "format": "json"})
    assert metrics["ok"]
    assert "repro_queries_total" in json.dumps(metrics["metrics"])

    looked_up = service.handle(
        {"id": 3, "op": "trace", "trace": response["trace_id"]}
    )
    assert looked_up["ok"] and looked_up["trace"]["spans"]

    slo = service.handle({"id": 4, "op": "slo"})
    assert slo["ok"]
    assert slo["status"] == "ok"
    assert [entry["spec"] for entry in slo["slos"]] == list(slo["specs"])

    refused = service.handle(
        {"id": 5, "op": "mutate", "sql": "DELETE FROM R1 WHERE A1 = 0"}
    )
    assert not refused["ok"]


# ----------------------------------------------------------------------
# The structured event log
# ----------------------------------------------------------------------
def test_event_log_sampling_is_deterministic(tmp_path):
    path = tmp_path / "q.log"
    log = EventLog(str(path), sample=0.5)
    for i in range(20):
        log.record({"op": "query", "latency_ms": 1.0, "i": i})
    log.close()
    events = list(read_events(str(path)))
    assert len(events) == 10  # floor-advancement: exactly half, no RNG
    info_written = [e["i"] for e in events]
    # Re-running the same sequence records the same subset.
    path2 = tmp_path / "q2.log"
    log2 = EventLog(str(path2), sample=0.5)
    for i in range(20):
        log2.record({"op": "query", "latency_ms": 1.0, "i": i})
    log2.close()
    assert [e["i"] for e in read_events(str(path2))] == info_written


def test_event_log_forces_slow_and_error_capture(tmp_path):
    path = tmp_path / "q.log"
    log = EventLog(str(path), sample=0.0, slow_ms=100.0)
    log.record_request(
        {"op": "query", "id": 1, "sql": "SELECT 1"},
        {"ok": True, "results_emitted": 1},
        latency_ms=1.0,
    )  # sampled out
    log.record_request(
        {"op": "query", "id": 2, "sql": "SELECT 2"},
        {"ok": True, "results_emitted": 1},
        latency_ms=250.0,
    )  # slow: forced
    log.record_request(
        {"op": "query", "id": 3, "sql": "SELECT broken"},
        {"ok": False, "error": {"code": "sql_error", "message": "no"}},
        latency_ms=1.0,
    )  # error: forced
    log.close()
    events = list(read_events(str(path)))
    assert [e["id"] for e in events] == [2, 3]
    assert events[0]["latency_ms"] >= 100.0
    assert events[1]["error"] == "sql_error"
    assert events[1]["sql_hash"] == sql_hash("SELECT broken")
    info = log.info()
    assert info["forced"] == 2 and info["written"] == 2


def test_event_log_rotates_by_size_and_reads_both_files(tmp_path):
    path = tmp_path / "q.log"
    log = EventLog(str(path), sample=1.0, max_bytes=1024)
    for i in range(120):
        log.record({"op": "query", "latency_ms": 1.0, "i": i})
    log.close()
    assert log.info()["rotations"] >= 2
    assert (tmp_path / "q.log.1").exists()
    events = list(read_events(str(path)))
    # Rotated-first ordering: the sequence numbers stay monotone.
    sequence = [e["i"] for e in events]
    assert sequence == sorted(sequence)
    # The surviving generations (.1 + current) are present; older
    # rotations were overwritten.
    assert 20 < len(sequence) < 120


def test_service_event_log_captures_requests(tmp_path, path_db):
    path = tmp_path / "service.log"
    service = QueryService(path_db, event_log=EventLog(str(path)))
    sql = PATH_SQL.format(k=3)
    response = service.handle({"id": 1, "op": "query", "sql": sql, "fetch": 3})
    service.handle({"id": 2, "op": "query", "sql": "SELECT nope"})
    service.shutdown()  # closes the log
    events = list(read_events(str(path)))
    assert len(events) == 2
    ok_event, err_event = events
    assert ok_event["op"] == "query"
    assert ok_event["sql_hash"] == sql_hash(sql)
    assert ok_event["trace_id"] == response["trace_id"]
    assert ok_event["results_emitted"] == 3
    assert "version" in ok_event and ok_event["plan_cached"] is False
    assert err_event["error"] == "sql_error"
    # Obs ops themselves (stats/metrics/trace/slo) are not logged.
    assert all(e["op"] in ("query",) for e in events)
    assert "query" in render_event(ok_event)


def test_replay_reissues_queries_and_skips_cursor_ops():
    issued = []

    def call(op, **fields):
        issued.append((op, fields))
        return {"ok": True}

    events = [
        {"op": "query", "sql": "SELECT 1", "results_emitted": 7},
        {"op": "fetch", "sql": None},
        {"op": "close"},
        {"op": "mutate", "sql": "DELETE FROM R1 WHERE A1 = 0"},
        {"op": "explain", "sql": "SELECT 2"},
    ]
    outcome = replay_events(events, call)
    assert outcome["replayed"] == 2 and outcome["failed"] == 0
    assert outcome["skipped"] == 3  # fetch, close, and the mutate
    assert issued[0] == ("query", {"sql": "SELECT 1", "fetch": 7})
    assert issued[1] == ("explain", {"sql": "SELECT 2"})

    issued.clear()
    outcome = replay_events(events, call, include_mutations=True)
    assert outcome["replayed"] == 3
    assert ("mutate", {"sql": "DELETE FROM R1 WHERE A1 = 0"}) in issued


# ----------------------------------------------------------------------
# SLO specs and the burn-rate engine
# ----------------------------------------------------------------------
def test_parse_slo_grammar():
    spec = parse_slo("query_p99_ms<=25")
    assert (spec.kind, spec.indicator, spec.percentile) == (
        "latency",
        "query",
        99.0,
    )
    assert spec.threshold_ms == 25.0
    assert spec.budget == pytest.approx(0.01)

    # No explicit percentile: p99 is the default.
    assert parse_slo("ttf_ms<=5").percentile == 99.0
    assert parse_slo("ttf_ms<=5").indicator == "ttf"

    rate = parse_slo("error_rate<=0.1%")
    assert rate.kind == "error_rate"
    assert rate.budget == pytest.approx(0.001)

    avail = parse_slo("availability>=99.9%")
    assert avail.kind == "availability"
    assert avail.budget == pytest.approx(0.001)

    assert "p95 of fetch latency" in parse_slo("fetch_p95_ms<=10").objective()


@pytest.mark.parametrize(
    "bad",
    [
        "nonsense",
        "query_p99_ms>=25",  # latency objectives use <=
        "error_rate>=1%",  # error_rate objectives use <=
        "availability<=99%",  # availability objectives use >=
        "error_rate<=150%",  # budget outside (0, 1)
        "query_p0_ms<=25",  # percentile outside (0, 100)
        "query_p99_ms<=0",  # threshold must be positive
        "query_p99_ms<=25%",  # ms, not percent
        "wat<=3",  # unknown indicator shape
    ],
)
def test_parse_slo_rejects_malformed_specs(bad):
    with pytest.raises(SloError):
        parse_slo(bad)


def test_spec_counts_are_conservative():
    hist = Histogram()
    for value in (1.0, 2.0, 30.0, 400.0):
        hist.record(value)
    specs = parse_slos(["query_p50_ms<=100", "error_rate<=10%"])

    def counts():
        return [
            spec_counts(
                spec,
                lambda name: hist if name == "query" else None,
                lambda: (10, 0),
            )
            for spec in specs
        ]

    (latency_total, latency_bad), (error_total, error_bad) = counts()
    assert latency_total == 4
    # 400 ms is over; 30 ms may be counted bad only if its bucket's
    # upper edge exceeds the threshold — never optimistically good.
    assert 1 <= latency_bad <= 2
    assert error_total == 10 and error_bad == 0
    report = SloEngine(specs, counts).evaluate()
    assert report["slos"][1]["status"] == "ok"
    assert isinstance(render_slo_report(report), list)


def test_slo_engine_burns_and_pages_with_a_fake_clock():
    clock_now = [0.0]
    counts = [[0, 0]]  # cumulative (total, bad) for the single spec

    specs = parse_slos(["error_rate<=1%"])
    engine = SloEngine(
        specs,
        lambda: [tuple(counts[0])],
        windows_s=(10.0, 60.0),
        min_tick_interval_s=0.0,
        clock=lambda: clock_now[0],
    )
    # Healthy traffic: 100 requests, 0 errors.
    for step in range(10):
        clock_now[0] += 1.0
        counts[0][0] += 10
        engine.tick()
    report = engine.evaluate()
    assert report["status"] == "ok"
    assert set(report["slos"][0]["burn_rates"]) == {"10s", "60s"}

    # Sustained failure: every request errors for a while.
    for step in range(10):
        clock_now[0] += 1.0
        counts[0][0] += 10
        counts[0][1] += 10
        engine.tick()
    report = engine.evaluate()
    assert report["status"] == "page"
    assert all(burn >= 10.0 for burn in report["slos"][0]["burn_rates"].values())

    # Recovery: the short window clears first, so the multi-window AND
    # de-escalates from page.
    for step in range(15):
        clock_now[0] += 1.0
        counts[0][0] += 10
        engine.tick()
    report = engine.evaluate()
    assert report["slos"][0]["burn_rates"]["10s"] == 0.0
    assert report["status"] != "page"


def test_worst_status_ranks_page_over_warn_over_ok():
    assert worst_status(["ok", "warn", "page"]) == "page"
    assert worst_status(["ok", "warn"]) == "warn"
    assert worst_status([]) == "ok"


def test_histogram_count_le_never_overcounts():
    hist = Histogram(bounds=(1.0, 10.0, 100.0))
    for value in (0.5, 5.0, 50.0, 500.0):
        hist.record(value)
    assert hist.count_le(1.0) == 1
    assert hist.count_le(10.0) == 2
    assert hist.count_le(9.0) == 1  # 5.0's bucket edge is 10 > 9: excluded
    assert hist.count_le(1000.0) == 3  # the overflow bucket never counts
    assert hist.count_le(0.0) == 0


def test_deliberately_violated_slo_pages_on_the_server(path_db):
    service = QueryService(path_db, slos=["query_p99_ms<=0.000001"])
    for i in range(5):
        service.handle(
            {"id": i + 1, "op": "query", "sql": PATH_SQL.format(k=2), "fetch": 2}
        )
    report = service.slo()
    assert report["status"] == "page"
    assert report["slos"][0]["bad"] == report["slos"][0]["total"] > 0
