"""The ``repro-loadgen`` console script: seeded load tests with SLO reports.

Examples::

    repro-loadgen --list
    repro-loadgen --scenario read-mostly --seed 7 --duration 5
    repro-loadgen --scenario bursty --clients 8 --mode wire
    repro-loadgen --scenario churn --mode inprocess --sample 0.25

    # Against a separately booted server (must serve the scenario's
    # dataset spec for validation to line up):
    repro-serve --gen "path:length=3,size=400,domain=50,seed=13" --port 0
    repro-loadgen --scenario read-mostly --connect 127.0.0.1:PORT

The text report prints to stdout; ``--json PATH`` also writes the
machine-readable report there.  The same ``--scenario --seed --duration
--clients`` always replays the identical request trace — the report's
``trace.sha256`` is the receipt.  Exit status: 0 on a clean run, 2 when
replay validation found mismatches (a correctness bug, not a performance
problem).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.workload.driver import run_scenario
from repro.workload.metrics import render_text
from repro.workload.scenarios import SCENARIOS, build_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-loadgen",
        description="Generate seeded, deterministic query/mutation traffic "
        "against the any-k stack and report latency SLOs "
        "(p50/p95/p99, time-to-first-result, throughput) with "
        "sampled replay validation.",
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        help="built-in scenario to run (see --list)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list built-in scenarios and exit"
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="trace seed (default 7)"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=5.0,
        help="schedule horizon in seconds (default 5); the full schedule "
        "always executes, even if the server falls behind",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=4,
        help="concurrent query lanes (default 4); mutations ride one "
        "extra dedicated lane",
    )
    parser.add_argument(
        "--mode",
        choices=("wire", "wire-pipelined", "inprocess"),
        default="wire",
        help="wire: one socket per lane against an ephemeral (or "
        "--connect'ed) server; wire-pipelined: every lane multiplexed "
        "onto one shared binary-framed pipelined socket; inprocess: "
        "call QueryService directly to isolate engine cost from wire "
        "cost (default wire)",
    )
    parser.add_argument(
        "--client-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="client-side bound on each wire round trip; expiries are "
        "recorded as client_timeout errors and lanes keep going "
        "(default: wait indefinitely)",
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="drive an existing repro-serve instead of booting one "
        "(wire mode only); it must serve the scenario's dataset spec",
    )
    parser.add_argument(
        "--sample",
        type=float,
        default=0.1,
        help="fraction of result pages replayed against a serial "
        "recompute on the cursor's pinned snapshot (default 0.1; "
        "0 disables validation)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="partition-parallelism budget for a self-booted server "
        "(ignored with --connect)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the machine-readable report to PATH",
    )
    parser.add_argument(
        "--slo",
        action="append",
        metavar="SPEC",
        default=None,
        help="grade the run against this SLO spec instead of the "
        "scenario's defaults, e.g. 'query_p99_ms<=25', 'ttfr_ms<=5', "
        "'error_rate<=0.1%%' (repeatable; see repro.obs.slo)",
    )
    parser.add_argument(
        "--trace-only",
        action="store_true",
        help="print the materialized request trace as JSON and exit "
        "without contacting any server (determinism checks)",
    )
    return parser


def _print_scenarios() -> None:
    width = max(len(name) for name in SCENARIOS)
    for name in sorted(SCENARIOS):
        scenario = SCENARIOS[name]
        print(f"{name:<{width}}  {scenario.description}")
        print(
            f"{'':<{width}}  arrival: {scenario.arrival.describe()}; "
            f"popularity: {scenario.popularity}; "
            f"mutations: {scenario.mutation_rate:g}/s; "
            f"dataset: {scenario.dataset}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        _print_scenarios()
        return 0
    if not args.scenario:
        print(
            "repro-loadgen: --scenario is required (try --list)",
            file=sys.stderr,
        )
        return 64
    if args.connect and args.mode == "inprocess":
        print(
            "repro-loadgen: --connect needs a wire mode", file=sys.stderr
        )
        return 64

    scenario = SCENARIOS[args.scenario]
    if args.trace_only:
        trace = build_trace(
            scenario,
            seed=args.seed,
            duration=args.duration,
            clients=args.clients,
        )
        payload = trace.to_jsonable()
        payload["sha256"] = trace.sha256()
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0

    connect = None
    if args.connect:
        host, _, port = args.connect.rpartition(":")
        try:
            connect = (host or "127.0.0.1", int(port))
        except ValueError:
            print(
                f"repro-loadgen: bad --connect {args.connect!r} "
                "(expected HOST:PORT)",
                file=sys.stderr,
            )
            return 64

    if args.slo is not None:
        from repro.obs.slo import SloError, parse_slos

        try:
            parse_slos(args.slo)
        except SloError as exc:
            print(f"repro-loadgen: bad --slo spec: {exc}", file=sys.stderr)
            return 64

    result = run_scenario(
        scenario,
        seed=args.seed,
        duration=args.duration,
        clients=args.clients,
        mode=args.mode,
        connect=connect,
        sample=args.sample,
        service_options=None if args.connect else {"workers": args.workers},
        slos=args.slo,
        client_timeout=args.client_timeout,
    )
    print(render_text(result.report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nJSON report written to {args.json}")
    if result.validation is not None and result.validation.mismatches:
        print(
            f"repro-loadgen: {len(result.validation.mismatches)} replay "
            "mismatches — the served pages disagree with a serial "
            "recompute on the pinned snapshot",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
