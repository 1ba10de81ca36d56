"""End-to-end observability smoke: ``repro-serve`` + ``repro-obs`` as
real processes over TCP.

What CI's ``obs-smoke`` job runs: boot the server subprocess, run a
query through the Python client, then assert the whole observability
surface is live on the wire — the ``metrics`` op returns well-formed
Prometheus text that reflects the query, the ``trace`` op returns the
non-empty span tree for the ``trace_id`` the query response echoed, and
the ``repro-obs`` CLI renders all of it against the live server.  Kept
separate from the other smoke files so the CI jobs stay independently
selectable.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

SQL = (
    "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 JOIN R3 ON R2.A3 = R3.A3 "
    "ORDER BY weight LIMIT 40"
)


@pytest.mark.slow
def test_obs_smoke(capsys):
    # Any in-process QueryService built by an earlier test enables the
    # process-global tracer; this smoke asserts the *server-side* span
    # tree, so client-side spans joining the trace would reorder it.
    from repro.obs.trace import tracer

    tracer.disable()

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")

    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.server.cli",
            "--gen",
            "path:length=3,size=200,domain=30,seed=7",
            "--port",
            "0",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        port = None
        for _ in range(2):
            line = server.stdout.readline()
            if "listening on" in line:
                port = int(line.rsplit(":", 1)[1])
        assert port, "repro-serve never printed its listening line"

        from repro.obs.cli import main as obs_main
        from repro.server import Client

        with Client(port=port, timeout=30.0) as client:
            cursor = client.execute(SQL, batch=15)
            rows = cursor.fetchall()
            assert len(rows) == 40
            assert cursor.results_emitted == 40
            assert cursor.trace_id, "responses must echo a trace_id"

            # -- metrics op: well-formed Prometheus text ----------------
            text = client.metrics()
            assert text.endswith("\n")
            assert "# TYPE repro_op_latency_ms histogram" in text
            assert "# TYPE repro_cursors_opened_total counter" in text
            assert "repro_cursors_opened_total 1" in text
            assert 'repro_op_latency_ms_count{op="fetch"}' in text
            assert "repro_result_delay_ms_bucket" in text
            for line in text.strip().splitlines():
                assert line.startswith("#") or " " in line, line
            assert isinstance(client.metrics(format="json"), dict)

            # -- trace op: a non-empty span tree for the echoed id ------
            looked_up = client.trace(cursor.trace_id)
            spans = looked_up["trace"]["spans"]
            assert spans, "trace op returned an empty span tree"
            assert spans[0]["name"] == "fetch"
            assert any(span["name"] == "page_fetch" for span in spans)
            assert all(span["duration_ms"] is not None for span in spans)
            assert cursor.trace_id in looked_up["rendered"]

            # -- stats op: percentile-backed op latency -----------------
            stats = client.stats()
            assert stats["op_latency_ms"]["fetch"]["p50_ms"] >= 0.0
            assert stats["delay_profiles"], "drained cursor must fold a profile"

        # -- the repro-obs CLI against the live server ------------------
        host_port = ["--port", str(port)]
        assert obs_main(host_port) == 0
        summary = capsys.readouterr().out
        assert "queries=1" in summary
        assert "op latency (ms)" in summary
        assert "anytime delay (in-engine, ms):" in summary

        assert obs_main(host_port + ["--metrics"]) == 0
        assert "repro_cursors_opened_total 1" in capsys.readouterr().out

        assert obs_main(host_port + ["--traces"]) == 0
        assert "tracer:" in capsys.readouterr().out

        assert obs_main(host_port + ["--trace", cursor.trace_id]) == 0
        assert "page_fetch" in capsys.readouterr().out
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait(timeout=30)
        server.stdout.close()


@pytest.mark.slow
def test_obs_smoke_layer2_propagation(capsys):
    """Layer 2 over a real wire: a sharded (``--workers 4``) query whose
    server and per-worker spans form ONE trace tree, and the clean
    ``unknown_trace`` answer for an id the ring never held — against a
    ``repro-serve`` subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")

    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.server.cli",
            "--gen",
            # Big enough to clear the parallel router's tuple floor.
            "path:length=3,size=2000,domain=40,seed=7",
            "--port",
            "0",
            "--workers",
            "4",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        port = None
        for _ in range(4):
            line = server.stdout.readline()
            if "listening on" in line:
                port = int(line.rsplit(":", 1)[1])
                break
        assert port, "repro-serve never printed its listening line"

        from repro.obs.cli import main as obs_main
        from repro.server import Client

        with Client(port=port, timeout=60.0) as client:
            cursor = client.execute(SQL, batch=20)
            query_trace_id = cursor.trace_id
            rows = cursor.fetchall()
            assert len(rows) == 40

            # -- one server -> worker trace tree -----------------------
            looked_up = client.trace(query_trace_id)
            spans = looked_up["trace"]["spans"]
            assert spans[0]["name"] == "query"  # the server subprocess
            execute = [s for s in spans if s["name"] == "execute.setup"]
            assert len(execute) == 1
            shard_roots = [s for s in spans if s["name"].startswith("shard[")]
            assert len(shard_roots) >= 4, (
                "per-worker span subtrees must graft into the trace"
            )
            for shard in shard_roots:
                assert shard["parent_id"] == execute[0]["span_id"]
            shard_ids = {s["span_id"] for s in shard_roots}
            assert any(
                s["name"] == "enumerate" and s["parent_id"] in shard_ids
                for s in spans
            )
            rendered = looked_up["rendered"]
            assert "page_fetch" in rendered and "shard[0]" in rendered

            # An evicted (or bogus) id answers with the clean error
            # code, not an empty 200 or an internal error.
            from repro.server.client import ServerError

            with pytest.raises(ServerError) as excinfo:
                client.trace("t-never-existed")
            assert excinfo.value.code == "unknown_trace"

        # -- repro-obs renders the unknown id as a plain miss ----------
        assert obs_main(["--port", str(port), "--trace", "nope"]) == 1
        assert "no buffered trace" in capsys.readouterr().out
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait(timeout=30)
        server.stdout.close()
