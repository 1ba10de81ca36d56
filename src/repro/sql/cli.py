"""Command-line SQL shell: ``repro-sql``.

Runs one statement against a directory of CSV relations (the
:mod:`repro.data.io` format — header row, optional trailing ``__weight__``
column) or against a built-in demo database, and prints the ranked results
or the routed plan::

    repro-sql --demo graph "SELECT * FROM E AS e1 JOIN E AS e2 \\
        ON e1.dst = e2.src ORDER BY weight LIMIT 5"
    repro-sql --data ./relations --explain "SELECT ... LIMIT 10"

With no SQL argument the statement is read from stdin, so the command
composes with heredocs and pipes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.data.database import Database
from repro.data.generators import (
    path_database,
    random_graph_database,
    star_database,
)
from repro.data.io import load_relation
from repro.query.cq import QueryError
from repro.sql.errors import SqlError

DEMOS = {
    "graph": lambda seed: random_graph_database(
        num_edges=2000, num_nodes=300, seed=seed
    ),
    "path": lambda seed: path_database(length=3, size=500, domain=60, seed=seed),
    "star": lambda seed: star_database(arms=3, size=500, domain=60, seed=seed),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sql",
        description="Ranked top-k SQL over weighted relations "
        "(any-k ranked enumeration instead of join-then-sort).",
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
        choices=sorted(DEMOS),
        help="use a built-in demo database instead of --data",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="seed for --demo databases"
    )
    parser.add_argument(
        "--engine",
        help="force an engine (part:lazy, part:eager, rec, batch, "
        "lawler, ...) instead of the cost-based router",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the routed plan instead of executing",
    )
    parser.add_argument(
        "sql",
        nargs="*",
        help="one or more SQL statements, run in order against the same "
        "database (INSERT/DELETE mutate it for the following statements); "
        "omitted or '-': read one statement from stdin",
    )
    return parser


def load_directory(directory: str) -> Database:
    root = Path(directory)
    if not root.is_dir():
        raise SystemExit(f"repro-sql: {directory!r} is not a directory")
    db = Database()
    for path in sorted(root.glob("*.csv")):
        db.add(load_relation(path))
    if len(db) == 0:
        raise SystemExit(f"repro-sql: no *.csv relations found in {directory!r}")
    return db


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Import here so `repro-sql --help` stays fast and dependency-light.
    import repro.sql

    if args.data:
        db = load_directory(args.data)
    else:
        db = DEMOS[args.demo or "graph"](args.seed)

    statements = list(args.sql)
    if not statements or statements == ["-"]:
        statements = [sys.stdin.read()]
    if not any(s.strip() for s in statements):
        print("repro-sql: empty statement", file=sys.stderr)
        return 2

    # Mutations need the copy-on-write layer; statements after one see
    # the newest snapshot, exactly like the server's mutate op.
    from repro.dynamic import VersionedDatabase
    from repro.sql.nodes import ExplainStatement, SelectStatement
    from repro.sql.parser import parse_any

    vdb = VersionedDatabase(db, copy=False)
    try:
        for sql in statements:
            statement = parse_any(sql)
            if isinstance(statement, ExplainStatement):
                # EXPLAIN renders the plan; EXPLAIN ANALYZE also runs the
                # statement and reports stage/operator timings and the
                # anytime-delay profile (repro.sql.explain dispatches).
                print(repro.sql.explain(vdb.snapshot(), sql, engine=args.engine))
                continue
            if not isinstance(statement, SelectStatement):
                # Mutations apply even under --explain: later statements'
                # plans must describe the data they would really run on.
                outcome = repro.sql.mutate(vdb, sql)
                prefix = "-- mutation applied (no plan): " if args.explain else "-- "
                print(f"{prefix}{outcome}")
                continue
            snapshot = vdb.snapshot()
            if args.explain:
                print(repro.sql.explain(snapshot, sql, engine=args.engine))
                continue
            result = repro.sql.query(snapshot, sql, engine=args.engine)
            print(f"-- engine: {result.plan.engine}")
            print(" | ".join(result.columns) + " | weight")
            for row, weight in result:
                rendered = " | ".join(str(value) for value in row)
                shown = f"{weight:.6g}" if isinstance(weight, float) else str(weight)
                print(f"{rendered} | {shown}")
        return 0
    except (SqlError, QueryError) as error:
        print(f"repro-sql: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (head, less) closed the pipe mid-stream; the
        # anytime contract makes that a normal way to stop.  Detach stdout
        # so interpreter shutdown does not raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
