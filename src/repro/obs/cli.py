"""The ``repro-obs`` console script: observe a running ``repro-serve``.

Snapshots (or live-refreshes) the server's observability surface over
the same JSON-lines protocol every other client uses — no side channel,
no extra port.

Examples::

    repro-obs --port 7632                 # one combined snapshot
    repro-obs --metrics                   # Prometheus text, verbatim
    repro-obs --metrics --json            # the registry as JSON
    repro-obs --stats                     # the stats op (latency, delay)
    repro-obs --trace t3f2a-1             # one buffered trace, rendered
    repro-obs --traces                    # the newest buffered traces
    repro-obs --watch 2                   # refresh the summary every 2 s
    repro-obs --metrics --watch 5         # live Prometheus text every 5 s
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Optional, Sequence

import repro.server.protocol as protocol
from repro.server.client import Client, ServerError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Snapshot or live-refresh the observability surface of a "
        "running repro-serve: unified metrics, per-op latency, anytime-"
        "delay profiles, and request traces.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="server address")
    parser.add_argument(
        "--port",
        type=int,
        default=protocol.DEFAULT_PORT,
        help=f"server TCP port (default {protocol.DEFAULT_PORT})",
    )
    what = parser.add_mutually_exclusive_group()
    what.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry (Prometheus text; --json for JSON)",
    )
    what.add_argument(
        "--stats",
        action="store_true",
        help="print the stats op (op latency, delay profiles, caches)",
    )
    what.add_argument(
        "--trace",
        metavar="TRACE_ID",
        help="print one buffered trace (the trace_id echoed on responses)",
    )
    what.add_argument(
        "--traces",
        action="store_true",
        help="list the newest buffered traces",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of rendered text",
    )
    parser.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="live-refresh the selected view every SECONDS (clear + "
        "redraw; applies to the summary and --metrics views; exit "
        "cleanly with ^C)",
    )
    return parser


def _print_metrics(client: Client, as_json: bool) -> None:
    if as_json:
        response = client.call("metrics", format="json")
        print(json.dumps(response["metrics"], indent=2, default=str))
    else:
        response = client.call("metrics")
        print(response["metrics"], end="")


def _print_stats(client: Client, as_json: bool) -> None:
    stats = client.stats()
    if as_json:
        print(json.dumps(stats, indent=2, default=str))
        return
    print(render_summary(stats))


def _print_trace(client: Client, trace_id: str, as_json: bool) -> int:
    try:
        response = client.trace(trace_id=trace_id)
    except ServerError as exc:
        if exc.code == protocol.UNKNOWN_TRACE:
            # The ring buffer is bounded: old traces fall out.  Say so
            # plainly instead of dumping a wire error.
            print(
                f"repro-obs: no buffered trace {trace_id!r} — it never "
                "existed or has been evicted from the server's ring "
                "buffer (see --trace-capacity on repro-serve)"
            )
            return 1
        raise
    if as_json:
        print(json.dumps(response["trace"], indent=2, default=str))
    else:
        print(response["rendered"])
    return 0


def _print_traces(client: Client, as_json: bool) -> None:
    response = client.call("trace")
    if as_json:
        print(json.dumps(response["recent"], indent=2, default=str))
        return
    info = response.get("tracer", {})
    print(
        f"tracer: {info.get('buffered', 0)} buffered / "
        f"{info.get('started', 0)} started / "
        f"{info.get('dropped', 0)} dropped"
    )
    for trace in response.get("recent", ()):
        spans = trace.get("spans", ())
        root = spans[0] if spans else {}
        duration = root.get("duration_ms")
        shown = f"{duration:.3f} ms" if duration is not None else "open"
        print(
            f"  {trace['trace_id']:<16} {trace.get('op', '?'):<8} "
            f"{shown:>12}  spans={len(spans)}"
        )


def render_summary(stats: dict) -> str:
    """The one-screen digest --watch repaints (and --stats prints)."""
    lines = [
        f"uptime {stats.get('uptime_s', 0):.0f}s  "
        f"queries={stats.get('queries', 0)}  "
        f"fetches={stats.get('fetches', 0)}  "
        f"rows_served={stats.get('rows_served', 0)}  "
        f"mutations={stats.get('mutations', 0)}",
    ]
    cursors = stats.get("cursors", {})
    lines.append(
        f"cursors open={cursors.get('open', 0)}/{cursors.get('limit', 0)}  "
        f"evicted={cursors.get('evicted', 0)}  "
        f"rejected={cursors.get('rejected', 0)}"
    )
    plan_cache = stats.get("plan_cache", {})
    lines.append(
        f"plan cache {plan_cache.get('entries', 0)} entries  "
        f"hits={plan_cache.get('hits', 0)} misses={plan_cache.get('misses', 0)}"
    )
    latency = stats.get("op_latency_ms", {})
    if latency:
        lines.append("op latency (ms):")
        for op in sorted(latency):
            summary = latency[op]
            lines.append(
                f"  {op:<8} count={summary.get('count', 0):<7} "
                f"p50={summary.get('p50_ms', 0):>9.3f} "
                f"p95={summary.get('p95_ms', 0):>9.3f} "
                f"p99={summary.get('p99_ms', 0):>9.3f} "
                f"max={summary.get('max', 0):>9.3f}"
            )
    profiles = stats.get("delay_profiles", {})
    if profiles:
        lines.append("anytime delay (in-engine, ms):")
        for engine in sorted(profiles):
            profile = profiles[engine]
            delay = profile.get("delay_ms", {})
            ttf = profile.get("ttf_ms", {})
            lines.append(
                f"  {engine:<10} results={profile.get('results', 0):<8} "
                f"delay p50={delay.get('p50_ms', 0):>8.4f} "
                f"p99={delay.get('p99_ms', 0):>8.4f}  "
                f"ttf p50={ttf.get('p50_ms', 0):>8.3f}"
            )
    memory = stats.get("memory")
    if memory:
        watermark = memory.get("watermark_bytes")
        shown = (
            f"{watermark / 1048576:g} MB" if watermark else "off"
        )
        lines.append(
            f"memory live={memory.get('live_bytes', 0)} B  "
            f"watermark={shown}  "
            f"pressure rejected={memory.get('pressure_rejections', 0)} "
            f"evicted={memory.get('pressure_evictions', 0)}"
        )
        mem_profiles = memory.get("profiles", {})
        if mem_profiles:
            lines.append("peak memory (accounted, per engine):")
            for engine in sorted(mem_profiles):
                p = mem_profiles[engine]
                lines.append(
                    f"  {engine:<10} peak_entries={p.get('peak_entries', 0):>10}  "
                    f"streams={p.get('streams', 0)}"
                )
    tracer_info = stats.get("tracer", {})
    if tracer_info:
        lines.append(
            f"tracer: {tracer_info.get('buffered', 0)} buffered traces "
            f"({tracer_info.get('dropped', 0)} dropped)"
        )
    return "\n".join(lines)


def _watch(render, period: float, header: str) -> int:
    """Clear + redraw ``render()``'s output every ``period`` seconds.

    The live-refresh loop behind ``--watch``.  ^C exits cleanly —
    watching is how the loop is *meant* to end, not an error.
    """
    try:
        while True:
            print("\033[2J\033[H", end="")  # clear screen, home
            print(f"{header}  ({time.strftime('%H:%M:%S')})")
            render()
            time.sleep(period)
    except KeyboardInterrupt:
        print()
        return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.watch is not None and args.watch <= 0:
        print("repro-obs: --watch needs a positive refresh period")
        return 2
    if args.watch is not None and (args.trace or args.traces):
        print(
            "repro-obs: --watch live-refreshes the summary and --metrics "
            "views only"
        )
        return 2
    try:
        client = Client(host=args.host, port=args.port, timeout=10.0)
    except OSError as exc:
        print(f"repro-obs: cannot reach {args.host}:{args.port}: {exc}")
        return 1
    exit_code = 0
    header = f"repro-obs @ {args.host}:{args.port}"
    try:
        if args.metrics:
            if args.watch is not None:
                exit_code = _watch(
                    lambda: _print_metrics(client, args.json),
                    args.watch,
                    header,
                )
            else:
                _print_metrics(client, args.json)
        elif args.trace:
            exit_code = _print_trace(client, args.trace, args.json)
        elif args.traces:
            _print_traces(client, args.json)
        elif args.watch is not None:
            # --metrics --watch is handled above; every other surviving
            # combination watches the summary view.
            exit_code = _watch(
                lambda: print(render_summary(client.stats())),
                args.watch,
                header,
            )
        else:  # --stats, and the no-flag default snapshot
            _print_stats(client, args.json)
    except ServerError as exc:
        print(f"repro-obs: {exc}")
        return 1
    except ConnectionError as exc:
        print(f"repro-obs: connection lost: {exc}")
        return 1
    finally:
        client.close()
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
