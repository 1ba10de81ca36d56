"""Observability layer 2: one process's request trees, and across a
process boundary only downward.

The server keeps its own requests' span trees, looked up by the
``trace_id`` it echoes — never by the per-connection envelope id, and
never adopting a caller's trace; shard workers' span trees graft under
the coordinator's execute span (the acceptance criterion: a
``workers=4`` query yields ONE tree with four shard subtrees); and the
obs ops a ``--readonly`` server keeps serving.
"""

from __future__ import annotations

import json

import pytest

from repro.data.generators import path_database
from repro.server import QueryService

PATH_SQL = (
    "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 JOIN R3 ON R2.A3 = R3.A3 "
    "ORDER BY weight LIMIT {k}"
)


@pytest.fixture(scope="module")
def path_db():
    return path_database(length=3, size=120, domain=18, seed=23)


# ----------------------------------------------------------------------
# Server-side request trees
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "context",
    [
        "",
        "00",
        "zz-abc-def-01",
        "00-only-two",
        42,
        None,
        "00-tcaller-1-sclient.1-01",
        ["not", "a", "string"],
    ],
)
def test_old_trace_context_is_ignored(path_db, context):
    """A ``trace_context`` field is an unknown field like any other: the
    request is answered ``ok`` under a trace id the server minted."""
    service = QueryService(path_db)
    response = service.handle(
        {
            "id": 1,
            "op": "query",
            "sql": PATH_SQL.format(k=3),
            "fetch": 3,
            "trace_context": context,
        }
    )
    assert response["ok"] and len(response["rows"]) == 3
    assert response["trace_id"] != "tcaller-1"
    looked_up = service.handle(
        {"id": 2, "op": "trace", "trace": response["trace_id"]}
    )
    root = looked_up["trace"]["spans"][0]
    assert root["name"] == "query" and root["parent_id"] is None


def test_each_connection_gets_its_own_server_trace(path_db):
    """Two connections both send envelope id 1; each finds its own
    server-side tree by the ``trace_id`` its response echoed."""
    from repro.server import Client, serve_background

    server, port = serve_background(path_db)
    try:
        with Client(port=port) as first, Client(port=port) as second:
            cursors = [
                client.execute(PATH_SQL.format(k=k), batch=k)
                for client, k in ((first, 2), (second, 5))
            ]
            trace_ids = [cursor.trace_id for cursor in cursors]
            assert trace_ids[0] != trace_ids[1]
            looked_up = [
                client.trace(trace_id)
                for client, trace_id in zip((first, second), trace_ids)
            ]
        for found, trace_id, k in zip(looked_up, trace_ids, (2, 5)):
            trace = found["trace"]
            assert trace["trace_id"] == trace_id
            assert trace["request_id"] == 1  # both connections' first id
            names = [span["name"] for span in trace["spans"]]
            assert names[0] == "query" and "cache_lookup" in names
            pages = [s for s in trace["spans"] if s["name"] == "page_fetch"]
            assert [page["attrs"]["rows"] for page in pages] == [k]
            assert "page_fetch" in found["rendered"]
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
