"""Observability layer 2: trace propagation across process boundaries.

W3C-traceparent-style ``trace_context`` round-trips, server-side
adoption of a caller's trace id, same-process client/server joins, and
the grafting of per-shard worker span trees under the coordinator's
execute span (the acceptance criterion: a ``workers=4`` query yields
ONE tree with four shard subtrees), plus the obs ops a ``--readonly``
server keeps serving.
"""

from __future__ import annotations

import json

import pytest

from repro.data.generators import path_database
from repro.obs.trace import (
    format_traceparent,
    new_trace_id,
    parse_traceparent,
    tracer,
)
from repro.server import QueryService

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
    assert "repro_cursors_opened_total" in json.dumps(metrics["metrics"])

    looked_up = service.handle(
        {"id": 3, "op": "trace", "trace": response["trace_id"]}
    )
    assert looked_up["ok"] and looked_up["trace"]["spans"]

    # ``slo`` is no protocol op: it gets the typed unknown-op error.
    retired = service.handle({"id": 4, "op": 'slo'})
    assert not retired["ok"]
    assert retired["error"]["code"] == "bad_request"

    refused = service.handle(
        {"id": 5, "op": "mutate", "sql": "DELETE FROM R1 WHERE A1 = 0"}
    )
    assert not refused["ok"]
