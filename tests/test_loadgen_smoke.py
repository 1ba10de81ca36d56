"""End-to-end loadgen smoke: ``repro-serve`` + ``repro-loadgen`` as real
processes over TCP.

What CI's ``loadgen-smoke`` job runs: boot the server subprocess on the
read-mostly scenario's dataset spec, point the load generator at it for
a 5-second seeded run with validation sampling on, and assert a clean
exit, zero protocol errors, zero replay mismatches, and a non-empty
JSON report.  Kept separate from the other smoke files so the CI jobs
stay independently selectable.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.mark.slow
def test_loadgen_smoke(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")

    from repro.workload.scenarios import SCENARIOS

    scenario = SCENARIOS["read-mostly"]
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.server.cli",
            "--gen",
            scenario.dataset,
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

        report_path = tmp_path / "report.json"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.workload.cli",
                "--scenario",
                "read-mostly",
                "--seed",
                "7",
                "--duration",
                "5",
                "--clients",
                "4",
                "--connect",
                f"127.0.0.1:{port}",
                "--sample",
                "0.25",
                "--json",
                str(report_path),
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert result.returncode == 0, result.stderr + result.stdout
        assert "errors:   none" in result.stdout
        assert "0 mismatches" in result.stdout

        report = json.loads(report_path.read_text())
        assert report["kind"] == "repro-loadgen SLO report"
        assert report["errors"]["total"] == 0
        assert report["trace"]["queries"] > 0
        assert report["trace"]["mutations"] > 0
        validation = report["validation"]
        assert validation["enabled"]
        assert validation["checked"] > 0
        assert validation["mismatches"] == 0
        for key in ("p50_ms", "p95_ms", "p99_ms"):
            assert report["ops"]["query"][key] > 0
            assert report["ttfr_ms"][key] > 0
        assert report["throughput"]["ops_per_s"] > 0
        # The server-side per-op latency satellite crossed the wire too.
        assert report["server"]["op_latency_ms"]["query"]["count"] > 0

        server.send_signal(signal.SIGINT)
        assert server.wait(timeout=30) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)
