"""Wire workloads: ``serve_churn`` and ``serve_pipelined``.

Both boot ``repro-serve`` as a subprocess (``python -m repro.server.cli``)
over a seeded 3-path database and replay a materialised trace against it
in a closed loop from one driver thread.  A session is one SQL statement
drained to its LIMIT: the ``query`` round trip with an inline page of 10
rows, then ``fetch`` round trips of 25 rows until the server says done.

``serve_churn`` uses the synchronous newline-JSON ``Client`` and commits
one INSERT or DELETE before every fifth session.  ``serve_pipelined``
keeps eight sessions in flight on one binary-framed ``PipelinedClient``.
Sessions run in rounds bracketed by calibration bursts; a round's bursts
scale every session inside it.

The traced run drives its own socket through ``repro.server.protocol`` so
that encoding, the round trip and decoding are timed apart, reads the
server's ``stats`` before and after, and finally replays the same trace
through an in-process ``QueryService.handle`` to learn what the requests
cost without a socket.
"""

from __future__ import annotations

import itertools
import os
import queue
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from bench import SRC_DIR, BenchError, oracle, stats, workloads
from bench.calibrate import Calibrator
from bench.measure import (
    RunResult,
    SetupClock,
    Window,
    end_to_end_metrics,
    setup_metrics,
    shared_layer_metrics,
)
from bench.metrics import PER_LAYER_NAMES
from bench.spans import SpanRecorder
from bench.workloads import INLINE_ROWS, PAGE_ROWS

#: Seconds a client waits for one response, and the server for boot/exit.
CLIENT_TIMEOUT_S = 10.0
BOOT_TIMEOUT_S = 60.0

#: How a traced run divides its seconds: the untraced loop (baseline of
#: ``trace.overhead_share``, the ``raw.*`` and ``cal.*`` series), the
#: traced loop at the workload's window, the traced loop at window 1
#: (pipelined only; churn gives the share to the traced loop), and the
#: in-process replay.
UNTRACED_SHARE, TRACED_SHARE, WINDOW1_SHARE, REPLAY_SHARE = 0.3, 0.35, 0.15, 0.2


class Server:
    """A ``repro-serve`` subprocess on an ephemeral port."""

    def __init__(self, spec: str, extra_args: tuple[str, ...] = ()) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(SRC_DIR), env.get("PYTHONPATH")) if part
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.server.cli", "--gen", spec]
            + ["--port", "0", *extra_args],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            self.port = self._wait_for_port()
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self) -> int:
        """Read the server's stdout up to its ``listening on host:port`` line."""
        pipe = self.process.stdout
        assert pipe is not None
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        seen = b""
        while True:
            _, found, tail = seen.partition(b"listening on ")
            if found and b"\n" in tail:
                return int(tail.split(b"\n", 1)[0].rsplit(b":", 1)[1])
            ready, _, _ = select.select(
                [pipe], [], [], max(0.0, deadline - time.monotonic())
            )
            chunk = os.read(pipe.fileno(), 4096) if ready else b""
            if not chunk:
                raise BenchError(
                    f"repro-serve reported no listening port: {seen!r}"
                )
            seen += chunk

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM line for the server process")

    def stop(self) -> None:
        """Interrupt the server and wait until it has ended."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=BOOT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


class RawConnection:
    """The traced run's own socket: frames go through
    ``repro.server.protocol`` one step at a time so each can be timed."""

    def __init__(self, port: int, binary: bool) -> None:
        self._socket = socket.create_connection(
            ("127.0.0.1", port), timeout=CLIENT_TIMEOUT_S
        )
        self._file = self._socket.makefile("rwb")
        self._ids = itertools.count(1)
        self.binary = False
        if binary:
            self.send("hello", frames="binary")
            if not self.receive()[0].get("ok"):
                raise BenchError("the server refused binary framing")
            self.binary = True

    def send(self, op: str, **fields: Any) -> tuple[int, float, float]:
        """Write one request; ``(id, encode started, encode ended)``."""
        import repro.server.protocol as protocol

        request = {"id": next(self._ids), "op": op, **fields}
        started = time.perf_counter()
        if self.binary:
            data = protocol.encode_frame(request)
        else:
            data = protocol.encode(request)
        encoded = time.perf_counter()
        self._file.write(data)
        self._file.flush()
        return request["id"], started, encoded

    def receive(self) -> tuple[dict, float, float]:
        """Block for one response; ``(response, arrived, decoded)``."""
        import repro.server.protocol as protocol

        if self.binary:
            header = self._file.read(protocol.FRAME_HEADER.size)
            if len(header) < protocol.FRAME_HEADER.size:
                raise ConnectionError("server closed the connection")
            payload = self._file.read(protocol.FRAME_HEADER.unpack(header)[0])
        else:
            payload = self._file.readline()
        if not payload:
            raise ConnectionError("server closed the connection")
        arrived = time.perf_counter()
        response = protocol.decode_payload(payload)
        return response, arrived, time.perf_counter()

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._socket.close()


@dataclass
class Session:
    """One statement on its way from SQL text to its last row."""

    index: int
    sql: str
    started: float = 0.0
    ttf_s: Optional[float] = None
    ttk_s: Optional[float] = None
    first_page: int = 0
    rows: list = field(default_factory=list)
    version: Optional[int] = None
    engine: str = ""
    requests: int = 0
    #: Traced run: the operation id its spans and round factor go by.
    op: int = 0

    def absorb(self, response: dict, stamp: float) -> bool:
        """Fold one response in; True when the session is complete."""
        self.requests += 1
        if self.ttf_s is None:
            self.ttf_s = stamp - self.started
            self.first_page = len(response["rows"])
            self.version = response["version"]
            self.engine = response["engine"]
        self.rows.extend(response["rows"])
        if response["done"]:
            self.ttk_s = stamp - self.started
            return True
        return False


class WireRun:
    """State of one wire-workload run."""

    def __init__(
        self,
        name: str,
        sizes: workloads.Sizes,
        seed: int,
        server_args: tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.sizes = sizes
        self.seed = seed
        self.server_args = server_args
        self.spec = workloads.serve_spec(sizes, seed)
        self.pipelined = name == "serve_pipelined"
        self.server: Optional[Server] = None
        self.trace: list[dict] = []
        self.trace_sha256 = ""
        self.steps: Iterator[dict] = iter(())
        self.shadow: Any = None
        self.snapshots: dict[int, Any] = {}
        self.to_verify: list[Session] = []
        self.session_count = 0
        self.attempted = 0
        self.failed = 0
        self.open_peak = 0
        #: ``(slice index, seconds)`` of the untraced loop's client-side
        #: mutation round trips.
        self.mutate_s: list[tuple[int, float]] = []
        self.problems: list[str] = []

    # -- set-up ----------------------------------------------------------
    def set_up(self) -> dict:
        """Imports once; then data, server boot and warm-up a few times."""
        once = SetupClock()
        import repro.sql  # noqa: F401  (the imports are the stage)
        from repro.dynamic import VersionedDatabase
        from repro.server.cli import parse_generator_spec
        from repro.server.client import Client

        once.stage_done()
        repeats = []
        for _ in range(self.sizes.setup_repeats):
            self.tear_down()
            clock = SetupClock()
            self.shadow = VersionedDatabase(parse_generator_spec(self.spec))
            self.snapshots = {self.shadow.version: self.shadow.snapshot()}
            self.trace = workloads.wire_trace(self.name, self.sizes, self.seed)
            self.trace_sha256 = workloads.trace_sha256(self.trace)
            clock.stage_done()
            self.server = Server(self.spec, self.server_args)
            clock.stage_done()
            with Client(port=self.server.port, timeout=CLIENT_TIMEOUT_S) as client:
                for _, template in workloads.TEMPLATES:
                    sql = template.format(v=0, limit=workloads.SESSION_LIMIT)
                    self._run_session(client.call, Session(-1, sql))
            clock.stage_done()
            repeats.append(clock)
        self.steps = iter(self.trace)
        return setup_metrics(once, repeats)

    def tear_down(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- steps -------------------------------------------------------------
    def _new_session(self, sql: str) -> Session:
        self.session_count += 1
        return Session(self.session_count, sql)

    def _next_session(self) -> Optional[Session]:
        """The next session step (read-only traces hold nothing else)."""
        step = next(self.steps, None)
        return None if step is None else self._new_session(step["sql"])

    def _run_session(self, call: Callable[..., dict], session: Session) -> None:
        """Drain one session over a synchronous ``call(op, **fields)``."""
        session.started = time.perf_counter()
        response = call("query", sql=session.sql, fetch=INLINE_ROWS)
        while not session.absorb(response, time.perf_counter()):
            response = call("fetch", cursor=response["cursor"], n=PAGE_ROWS)

    def _mutated(self, sql: str, response: dict) -> None:
        """Commit on the shadow what the server just acknowledged."""
        import repro.sql

        result = repro.sql.mutate(self.shadow, sql)
        self.snapshots[result.version] = self.shadow.snapshot()
        if (response["version"], response["rows"]) != (result.version, result.rows):
            self.problems.append(
                f"{sql!r}: server at version {response['version']} "
                f"({response['rows']} rows), shadow at {result.version} "
                f"({result.rows} rows)"
            )

    def _finished(self, session: Session) -> None:
        if session.index % workloads.VERIFY_EVERY == 0:
            self.to_verify.append(session)

    def _failure(self, exc: Exception) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"failed: {type(exc).__name__}: {exc}")

    def _attempt(self, action: Callable[[], None]) -> bool:
        """Run one operation; a refusal, error or timeout counts as failed."""
        from repro.server.client import ServerError
        from repro.server.protocol import ProtocolError

        self.attempted += 1
        try:
            action()
        except (ServerError, ProtocolError, OSError, KeyError) as exc:
            self._failure(exc)
            return False
        return True

    # -- the untraced closed loops -------------------------------------------
    def measure(self, seconds: float) -> Window:
        if self.pipelined:
            return self._measure_pipelined(seconds)
        return self._measure_churn(seconds)

    def _close_round(
        self, window: Window, started: float, sessions: list[Session]
    ) -> None:
        """Burst, then file the round's samples as the window's next slice."""
        ended = time.perf_counter()
        window.calibrator.mark()
        index = len(window.slices)
        for session in sessions:
            window.sessions.append(
                (
                    session.ttf_s * 1000.0,
                    session.ttk_s * 1000.0,
                    len(session.rows) - session.first_page,
                    index,
                )
            )
        window.slices.append(
            (ended - started, sum(len(session.rows) for session in sessions))
        )

    def _measure_churn(self, seconds: float) -> Window:
        from repro.server.client import Client

        window = Window()
        deadline = window.started + seconds
        with Client(port=self.server.port, timeout=CLIENT_TIMEOUT_S) as client:

            def mutate(sql: str) -> None:
                started = time.perf_counter()
                response = client.call("mutate", sql=sql)
                self.mutate_s.append(
                    (len(window.slices), time.perf_counter() - started)
                )
                self._mutated(sql, response)

            window.calibrator.mark()
            exhausted = False
            while time.perf_counter() < deadline and not exhausted:
                started = time.perf_counter()
                done: list[Session] = []
                while time.perf_counter() - started < workloads.ROUND_SECONDS:
                    step = next(self.steps, None)
                    if step is None:
                        exhausted = True
                        break
                    if step["kind"] == "mutate":
                        self._attempt(lambda: mutate(step["sql"]))
                        continue
                    session = self._new_session(step["sql"])
                    if self._attempt(
                        lambda: self._run_session(client.call, session)
                    ):
                        self.open_peak = 1
                        self._finished(session)
                        done.append(session)
                self._close_round(window, started, done)
        window.close()
        return window

    def _measure_pipelined(self, seconds: float) -> Window:
        """Eight sessions in flight on one connection, 32 per round."""
        from repro.server.client import PipelinedClient, ServerError

        window = Window()
        deadline = window.started + seconds
        arrivals: "queue.SimpleQueue[tuple]" = queue.SimpleQueue()

        def send(session: Session, op: str, **fields: Any) -> None:
            future = client.submit(op, **fields)
            future.add_done_callback(
                lambda done: arrivals.put((session, time.perf_counter(), done))
            )

        with PipelinedClient(
            port=self.server.port, timeout=CLIENT_TIMEOUT_S
        ) as client:
            window.calibrator.mark()
            exhausted = False
            while time.perf_counter() < deadline and not exhausted:
                started = time.perf_counter()
                done: list[Session] = []
                to_start = workloads.PIPELINE_ROUND
                in_flight = 0
                while True:
                    while (
                        to_start
                        and in_flight < workloads.PIPELINE_WINDOW
                        and not exhausted
                    ):
                        session = self._next_session()
                        if session is None:
                            exhausted = True
                            break
                        self.attempted += 1
                        to_start -= 1
                        in_flight += 1
                        session.started = time.perf_counter()
                        send(session, "query", sql=session.sql, fetch=INLINE_ROWS)
                    if not in_flight:
                        break
                    self.open_peak = max(self.open_peak, in_flight)
                    try:
                        session, stamp, future = arrivals.get(
                            timeout=CLIENT_TIMEOUT_S
                        )
                    except queue.Empty:
                        raise BenchError(
                            f"{in_flight} pipelined sessions got no response "
                            f"within {CLIENT_TIMEOUT_S} s"
                        ) from None
                    try:
                        response = client.result(future)
                        complete = session.absorb(response, stamp)
                    except (ServerError, OSError, KeyError) as exc:
                        self._failure(exc)
                        in_flight -= 1
                        continue
                    if complete:
                        in_flight -= 1
                        self._finished(session)
                        done.append(session)
                    else:
                        send(
                            session,
                            "fetch",
                            cursor=response["cursor"],
                            n=PAGE_ROWS,
                        )
                self._close_round(window, started, done)
        window.close()
        return window

    # -- the traced loop -----------------------------------------------------
    def measure_traced(
        self,
        seconds: float,
        in_flight_limit: int,
        recorder: SpanRecorder,
        scale: dict[int, float],
    ) -> list[Session]:
        """The same closed loop on the benchmark's own socket.

        One thread: sessions are started until ``in_flight_limit`` are
        open, then the next response — whichever session it belongs to —
        is read and its session advanced.  Each request gets a
        ``server.tcp.rtt.<op>`` span from the start of encoding to the end
        of decoding, with the two protocol steps as its children, under
        the span of its session.  Returns the completed sessions;
        ``scale`` receives the round factor of every operation.
        """
        from repro.server.client import ServerError

        connection = RawConnection(self.server.port, binary=self.pipelined)
        calibrator = Calibrator()
        deadline = time.perf_counter() + seconds
        completed: list[Session] = []
        open_spans: dict[int, int] = {}  # operation id -> its session span
        #: request id -> (operation id, op, session or SQL, encode bounds)
        pending: dict[int, tuple] = {}
        rounds: list[set[int]] = []  # operation ids by round (= slice)

        def send(op_id: int, op: str, subject: Any, **fields: Any) -> None:
            request, started, encoded = connection.send(op, **fields)
            pending[request] = (op_id, op, subject, started, encoded)

        def start(step: dict) -> None:
            self.attempted += 1
            op_id = self.attempted
            if step["kind"] == "mutate":
                send(op_id, "mutate", step["sql"], sql=step["sql"])
                receive()  # nothing else is in flight beside a write
                return
            session = self._new_session(step["sql"])
            session.op = op_id
            session.started = time.perf_counter()
            open_spans[op_id] = recorder.add(
                "session", session.started, None, op_id
            )
            send(op_id, "query", session, sql=session.sql, fetch=INLINE_ROWS)

        def receive() -> None:
            response, arrived, decoded = connection.receive()
            op_id, op, subject, started, encoded = pending.pop(response["id"])
            rtt = recorder.add(
                f"server.tcp.rtt.{op}", started, decoded, op_id,
                open_spans.get(op_id),
            )
            recorder.add("server.protocol.encode", started, encoded, op_id, rtt)
            recorder.add("server.protocol.decode", arrived, decoded, op_id, rtt)
            rounds[-1].add(op_id)
            complete = True
            if not response.get("ok"):
                error = response.get("error") or {}
                self._failure(
                    ServerError(error.get("code", "?"), error.get("message", ""))
                )
            elif op == "mutate":
                self._mutated(subject, response)
            elif subject.absorb(response, arrived):
                self._finished(subject)
                completed.append(subject)
            else:
                complete = False
                send(op_id, "fetch", subject, cursor=response["cursor"], n=PAGE_ROWS)
            if complete and op_id in open_spans:
                recorder.close(open_spans.pop(op_id), arrived)

        try:
            calibrator.mark()
            exhausted = False
            while time.perf_counter() < deadline and not exhausted:
                round_started = time.perf_counter()
                rounds.append(set())
                sessions_started = 0
                while True:
                    while len(open_spans) < in_flight_limit and not exhausted:
                        if self.pipelined:
                            if sessions_started >= workloads.PIPELINE_ROUND:
                                break
                        elif (
                            time.perf_counter() - round_started
                            >= workloads.ROUND_SECONDS
                        ):
                            break
                        step = next(self.steps, None)
                        if step is None:
                            exhausted = True
                            break
                        start(step)
                        sessions_started += step["kind"] == "session"
                    self.open_peak = max(self.open_peak, len(open_spans))
                    if not pending:
                        break
                    receive()
                calibrator.mark()
        finally:
            connection.close()
        for index, ops in enumerate(rounds):
            scale.update(dict.fromkeys(ops, calibrator.factor(index)))
        return completed

    def server_stats(self) -> dict:
        from repro.server.client import Client

        with Client(port=self.server.port, timeout=CLIENT_TIMEOUT_S) as client:
            return client.stats()

    def replay_in_process(self, seconds: float) -> dict[str, list[float]]:
        """``QueryService.handle`` times per op (ref-ms) for the trace's
        first steps, replayed without a socket on a fresh service."""
        from repro.dynamic import VersionedDatabase
        from repro.obs.trace import tracer
        from repro.server.cli import parse_generator_spec
        from repro.server.service import QueryService

        tracer_was_on = tracer.enabled
        service = QueryService(VersionedDatabase(parse_generator_spec(self.spec)))
        rounds: list[list[tuple[str, float]]] = []
        calibrator = Calibrator()
        deadline = time.perf_counter() + seconds
        steps = iter(self.trace)

        def handle(op: str, **fields: Any) -> dict:
            started = time.perf_counter()
            response = service.handle({"id": 0, "op": op, **fields})
            rounds[-1].append((op, time.perf_counter() - started))
            if not response.get("ok"):
                self.problems.append(f"in-process {op}: {response.get('error')}")
            return response

        try:
            calibrator.mark()
            exhausted = False
            while time.perf_counter() < deadline and not exhausted:
                round_started = time.perf_counter()
                rounds.append([])
                while time.perf_counter() - round_started < workloads.ROUND_SECONDS:
                    step = next(steps, None)
                    if step is None:
                        exhausted = True
                        break
                    if step["kind"] == "mutate":
                        handle("mutate", sql=step["sql"])
                        continue
                    response = handle("query", sql=step["sql"], fetch=INLINE_ROWS)
                    while response.get("ok") and not response["done"]:
                        response = handle(
                            "fetch", cursor=response["cursor"], n=PAGE_ROWS
                        )
                calibrator.mark()
        finally:
            service.shutdown()
            if not tracer_was_on:
                tracer.disable()
        handle_ms: dict[str, list[float]] = {"query": [], "fetch": [], "mutate": []}
        for index, timed in enumerate(rounds):
            for op, elapsed in timed:
                handle_ms[op].append(elapsed * 1000.0 * calibrator.factor(index))
        return handle_ms

    # -- correctness -----------------------------------------------------
    def verify(self) -> None:
        """Sampled sessions against the shadow database at their version."""
        expected: dict[tuple, list] = {}
        for session in self.to_verify:
            snapshot = self.snapshots.get(session.version)
            if snapshot is None:
                self.problems.append(
                    f"session {session.index} pinned unknown version "
                    f"{session.version}"
                )
                continue
            key = (session.sql, session.version, session.engine)
            if key not in expected:
                expected[key] = oracle.session_reference(
                    snapshot, session.sql, session.engine
                )
            self.problems.extend(
                oracle.check_session(expected[key], session.rows, session.sql)
            )
        self.to_verify = []


def _delta_mean(before: dict, after: dict, op: str) -> float:
    """Mean of the server's own per-op latency between two ``stats``."""
    old = before["op_latency_ms"].get(op, {"count": 0, "mean": 0.0})
    new = after["op_latency_ms"].get(op, {"count": 0, "mean": 0.0})
    count = new["count"] - old["count"]
    if count <= 0:
        return 0.0
    return (new["count"] * new["mean"] - old["count"] * old["mean"]) / count


def _stats_metrics(before: dict, after: dict) -> dict[str, float]:
    """What the server counted between two ``stats`` reads."""

    def delta(*path: str) -> float:
        old, new = before, after
        for key in path:
            old, new = old[key], new[key]
        return new - old

    lookups = delta("plan_cache", "hits") + delta("plan_cache", "misses")
    rows = delta("rows_served")
    return {
        "server.plancache.hit_rate": (
            delta("plan_cache", "hits") / lookups if lookups else 0.0
        ),
        "server.plancache.recosts": delta("plan_cache", "recosts"),
        "server.cursors.opened": delta("cursors", "opened"),
        "server.cursors.evicted": delta("cursors", "evicted"),
        "server.errors": delta("errors"),
        "dynamic.versions": delta("database", "version"),
        "util.counters.heap_ops_per_result": (
            delta("counters", "heap_ops") / rows if rows else 0.0
        ),
        "util.counters.tuples_read_per_result": (
            delta("counters", "tuples_read") / rows if rows else 0.0
        ),
        "server.service.op_ms_mean.query": _delta_mean(before, after, "query"),
        "server.service.op_ms_mean.fetch": _delta_mean(before, after, "fetch"),
    }


def _p50(values: list[float]) -> float:
    return stats.percentile(values, 50) if values else 0.0


def _layer_metrics(
    state: WireRun,
    window: Window,
    sessions: list[Session],
    recorder: SpanRecorder,
    scale: dict[int, float],
    window1_rtt_ms: list[float],
    handle_ms: dict[str, list[float]],
) -> dict[str, float]:
    """The per-layer metrics of a traced wire run (0 where a layer is not
    on this workload's path)."""
    total_ms = recorder.total_ms(scale)
    rtt_ms = {
        op: total_ms.get(f"server.tcp.rtt.{op}", [])
        for op in ("query", "fetch", "mutate")
    }
    encode_ms = _p50(total_ms["server.protocol.encode"])
    decode_ms = _p50(total_ms["server.protocol.decode"])
    metrics = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    metrics["server.protocol.encode_us_p50"] = encode_ms * 1000.0
    metrics["server.protocol.decode_us_p50"] = decode_ms * 1000.0
    for op, values in rtt_ms.items():
        metrics[f"server.tcp.rtt_ms_p50.{op}"] = _p50(values)
        metrics[f"server.service.{op}_ms_p50"] = _p50(handle_ms[op])
    for op in ("query", "fetch"):
        metrics[f"server.tcp.overhead_ms.{op}"] = (
            metrics[f"server.tcp.rtt_ms_p50.{op}"]
            - metrics[f"server.service.{op}_ms_p50"]
            - encode_ms
            - decode_ms
        )
    metrics["server.tcp.ttf_ms_p90"] = stats.percentile(
        [s.ttf_s * 1000.0 * scale[s.op] for s in sessions], 90
    )
    if window1_rtt_ms:
        metrics["server.tcp.queue_ms_p50"] = _p50(
            rtt_ms["query"] + rtt_ms["fetch"]
        ) - _p50(window1_rtt_ms)
    metrics["server.cursors.open_peak"] = state.open_peak
    metrics["server.requests_per_session"] = sum(
        s.requests for s in sessions
    ) / len(sessions)
    metrics["dynamic.mutate_rtt_ms_p50"] = _p50(
        [
            elapsed * 1000.0 * window.calibrator.factor(index)
            for index, elapsed in state.mutate_s
        ]
    )
    untraced = window.summary(normalised=True, strict_tail=False)
    metrics["trace.overhead_share"] = (
        stats.percentile([s.ttk_s * 1000.0 * scale[s.op] for s in sessions], 50)
        / untraced["ttk_p50"]
        - 1.0
    )
    return metrics


def run(
    name: str,
    sizes: workloads.Sizes,
    seed: int,
    seconds: float,
    trace: bool,
    trace_out: Optional[str] = None,
    server_args: tuple[str, ...] = (),
) -> RunResult:
    state = WireRun(name, sizes, seed, server_args)
    try:
        setup = state.set_up()
        info = {"trace_sha256": state.trace_sha256, "spec": state.spec}
        if trace:
            window = state.measure(seconds * UNTRACED_SHARE)
            before = state.server_stats()
            recorder, scale = SpanRecorder(), {}
            if state.pipelined:
                sessions = state.measure_traced(
                    seconds * TRACED_SHARE,
                    workloads.PIPELINE_WINDOW,
                    recorder,
                    scale,
                )
                after = state.server_stats()
                alone, alone_scale = SpanRecorder(), {}
                state.measure_traced(seconds * WINDOW1_SHARE, 1, alone, alone_scale)
                alone_ms = alone.total_ms(alone_scale)
                window1_rtt_ms = (
                    alone_ms["server.tcp.rtt.query"]
                    + alone_ms["server.tcp.rtt.fetch"]
                )
            else:
                sessions = state.measure_traced(
                    seconds * (TRACED_SHARE + WINDOW1_SHARE), 1, recorder, scale
                )
                after = state.server_stats()
                window1_rtt_ms = []
            handle_ms = state.replay_in_process(seconds * REPLAY_SHARE)
            metrics = _layer_metrics(
                state, window, sessions, recorder, scale, window1_rtt_ms, handle_ms
            )
            metrics.update(_stats_metrics(before, after))
            metrics.update(shared_layer_metrics(window, setup))
            raw = {}
            info["traced_sessions"] = len(sessions)
            if trace_out:
                recorder.write(trace_out)
        else:
            window = state.measure(seconds)
            metrics, raw = end_to_end_metrics(
                window, setup, sizes.strict_tail, state.server.peak_rss_mb()
            )
        info["sessions"] = len(window.sessions)
        state.verify()
    finally:
        state.tear_down()
    return RunResult(
        attempted=state.attempted,
        failed=state.failed,
        metrics=metrics,
        raw=raw,
        info=info,
        problems=state.problems,
    )
