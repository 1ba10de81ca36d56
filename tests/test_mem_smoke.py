"""Memory-pressure admission over the wire: CI's ``mem-smoke`` job.

Boot the real ``repro-serve`` subprocess with a deliberately tiny
``--max-mem-mb`` watermark, drive queries past it, and require the
refusal to be the *clean* ``mem_pressure`` protocol error — never an
OOM kill, never ``internal`` — while the server keeps answering other
ops and shuts down gracefully.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

SQL = (
    "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 JOIN R3 ON R2.A3 = R3.A3 "
    "ORDER BY weight LIMIT 5000"
)


@pytest.mark.slow
def test_mem_pressure_is_a_clean_wire_error():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.server.cli",
            "--demo",
            "path",
            "--port",
            "0",
            "--max-mem-mb",
            "0.05",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        port = None
        for _ in range(2):
            line = process.stdout.readline()
            if "listening on" in line:
                port = int(line.rsplit(":", 1)[1])
        assert port, "repro-serve never printed its listening line"

        from repro.server import Client
        from repro.server.client import ServerError

        with Client(port=port) as client:
            # Fill the watermark with open (recently-touched, hence
            # eviction-protected) cursors until admission refuses.
            refusal = None
            held = []
            for _ in range(32):
                try:
                    opened = client.call("query", sql=SQL, fetch=10)
                except ServerError as exc:
                    refusal = exc
                    break
                assert opened["mem"]["live_entries"] > 0
                held.append(opened["cursor"])
            assert refusal is not None, "watermark never refused admission"
            assert refusal.code == "mem_pressure"
            assert refusal.code != "internal"
            assert "watermark" in refusal.message

            # The server is degraded, not down: stats still answers and
            # records the rejection; held cursors still fetch.
            stats = client.stats()
            assert stats["memory"]["pressure_rejections"] >= 1
            assert stats["memory"]["watermark_bytes"] == int(0.05 * 1024 * 1024)
            page = client.call("fetch", cursor=held[0], n=5)
            assert len(page["rows"]) == 5

            # Draining/closing every cursor releases the accounted bytes
            # and admission recovers without a restart.
            for cursor_id in held:
                client.close_cursor(cursor_id)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if client.stats()["memory"]["live_bytes"] == 0:
                    break
                time.sleep(0.05)
            recovered = client.call("query", sql=SQL, fetch=5)
            assert len(recovered["rows"]) == 5
            if recovered["cursor"] is not None:
                client.close_cursor(recovered["cursor"])

        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
