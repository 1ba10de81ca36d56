"""The ``repro-serve`` console script: load a database, serve it.

Sources, one of:

- ``--data DIR`` — a directory of ``<relation>.csv`` files (the
  :mod:`repro.data.io` format, same as ``repro-sql --data``);
- ``--demo {graph,path,star}`` — the built-in demo databases;
- ``--gen SPEC`` — a generator spec, e.g.
  ``path:length=3,size=500,domain=60,seed=7`` or
  ``graph:num_edges=2000,num_nodes=300,seed=1``.

Examples::

    repro-serve --demo graph --port 7632
    repro-serve --data ./relations --max-cursors 128
    repro-serve --gen "star:arms=3,size=1000,domain=80,seed=7" --port 0

``--port 0`` binds an ephemeral port; the bound address is printed on a
``listening on host:port`` line once the socket is ready (scripts can
wait for that line).
"""

from __future__ import annotations

import argparse
from typing import Callable, Optional, Sequence

from repro.data.database import Database
from repro.data.generators import (
    path_database,
    random_graph_database,
    star_database,
)
import repro.server.protocol as protocol

#: Generator-spec name -> factory taking keyword int arguments.
GENERATORS: dict[str, Callable[..., Database]] = {
    "path": path_database,
    "star": star_database,
    "graph": random_graph_database,
}


def parse_generator_spec(spec: str) -> Database:
    """``name:key=value,...`` -> a generated database (ints only)."""
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name not in GENERATORS:
        raise SystemExit(
            f"repro-serve: unknown generator {name!r}; known: "
            + ", ".join(sorted(GENERATORS))
        )
    kwargs = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise SystemExit(
                    f"repro-serve: bad generator option {item!r} "
                    "(expected key=value)"
                )
            try:
                kwargs[key.strip()] = int(value)
            except ValueError:
                raise SystemExit(
                    f"repro-serve: generator option {key.strip()!r} must be "
                    f"an integer, got {value!r}"
                ) from None
    try:
        return GENERATORS[name](**kwargs)
    except TypeError as exc:
        raise SystemExit(f"repro-serve: bad spec for {name!r}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve ranked top-k SQL over weighted relations: "
        "a JSON-lines-over-TCP any-k query service with resumable cursors "
        "and a plan cache.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--data",
        metavar="DIR",
        help="directory of <relation>.csv files (header row, optional "
        "trailing __weight__ column)",
    )
    source.add_argument(
        "--demo",
        choices=("graph", "path", "star"),
        help="serve a built-in demo database",
    )
    source.add_argument(
        "--gen",
        metavar="SPEC",
        help="generator spec, e.g. 'path:length=3,size=500,domain=60,seed=7' "
        "or 'graph:num_edges=2000,num_nodes=300,seed=1'",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="seed for --demo databases"
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=protocol.DEFAULT_PORT,
        help=f"TCP port (default {protocol.DEFAULT_PORT}; 0 = ephemeral)",
    )
    parser.add_argument(
        "--max-cursors",
        type=int,
        default=64,
        help="admission limit on concurrently open cursors",
    )
    parser.add_argument(
        "--max-mem-mb",
        type=float,
        default=None,
        metavar="MB",
        help="server-wide memory watermark: once the accounted live bytes "
        "of all open cursors exceed MB, new queries are refused with a "
        "mem_pressure error after evicting idle cursors (default: no "
        "watermark; accounting still runs)",
    )
    parser.add_argument(
        "--plan-cache",
        type=int,
        default=128,
        help="LRU capacity of the plan cache",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=100,
        help="default rows per fetch when a request does not say",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="partition-parallelism budget per query: shard the database "
        "across this many worker processes when the router judges it "
        "worthwhile (default 1 = serial)",
    )
    parser.add_argument(
        "--max-frame-bytes",
        type=int,
        default=protocol.MAX_FRAME_BYTES,
        metavar="BYTES",
        help="largest request frame accepted, in bytes (both the JSON-"
        "lines and the binary framing; oversized requests are answered "
        f"with a frame_too_large error; default {protocol.MAX_FRAME_BYTES})",
    )
    parser.add_argument(
        "--readonly",
        action="store_true",
        help="refuse 'mutate' requests (INSERT/DELETE) with a clean "
        "sql_error instead of committing new snapshots",
    )
    parser.add_argument(
        "--trace-capacity",
        type=int,
        default=None,
        metavar="N",
        help="ring-buffer capacity of the span tracer (recent traces "
        "kept for the 'trace' op; default: the tracer's built-in size)",
    )
    return parser


def load_database(args: argparse.Namespace) -> Database:
    # Deferred import keeps `repro-serve --help` snappy.
    from repro.sql.cli import DEMOS, load_directory

    if args.data:
        return load_directory(args.data)
    if args.gen:
        return parse_generator_spec(args.gen)
    return DEMOS[args.demo or "graph"](args.seed)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    db = load_database(args)
    from repro.dynamic import VersionedDatabase
    from repro.server.tcp import AnykTCPServer

    server = AnykTCPServer(
        # Ownership handover: the CLI never touches db again, so skip the
        # isolation copy a library caller would get by default.
        VersionedDatabase(db, copy=False),
        host=args.host,
        port=args.port,
        max_frame_bytes=args.max_frame_bytes,
        max_cursors=args.max_cursors,
        max_mem_mb=args.max_mem_mb,
        plan_cache_size=args.plan_cache,
        default_batch=args.batch,
        workers=args.workers,
        readonly=args.readonly,
        trace_capacity=args.trace_capacity,
    )
    names = ", ".join(
        f"{name}({len(db[name])})" for name in db.names()
    )
    print(f"repro-serve: serving {names}", flush=True)
    print(
        f"repro-serve: listening on {args.host}:{server.bound_port}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro-serve: shutting down", flush=True)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
