"""Partition-parallel any-k: shard, enumerate per process, merge ranked.

Walkthrough of :mod:`repro.parallel` at both of its surfaces:

1. the library — ``rank_enumerate(..., workers=N)`` against the same
   call serial, asserting the merged stream is byte-identical;
2. the server — ``serve_background(db, workers=2)``, a sharded query
   over the wire behind an ordinary resumable cursor, and the
   ``parallel:`` line in EXPLAIN output.

The ``if __name__ == "__main__":`` guard is **required**, as for any
program that spawns ``multiprocessing`` workers: when the pool cannot
use plain ``fork`` (threaded parent — the server regime — or macOS /
Windows spawn platforms), worker bootstrap re-imports ``__main__``, and
an unguarded script would re-run itself inside every worker.
"""

from repro.anyk import rank_enumerate
from repro.data.generators import path_database, random_graph_database
from repro.engine.planner import route
from repro.query.cq import path_query
from repro.server import Client, serve_background


def library_surface() -> None:
    print("== 1. library: rank_enumerate(workers=2) ==")
    db = path_database(length=3, size=3000, domain=80, seed=7)
    query = path_query(3)
    plan = route(db, query, k=200, workers=2)
    print(f"  router: engine={plan.engine}, workers={plan.workers}, "
          f"hash-sharded on {plan.shard_variable}")
    serial = list(rank_enumerate(db, query, method="auto", k=200))
    sharded = list(rank_enumerate(db, query, method="auto", k=200, workers=2))
    print(f"  2-shard merged prefix == serial prefix: {sharded == serial} "
          f"({len(sharded)} rows)")
    assert sharded == serial


def server_surface() -> None:
    print("== 2. server: repro-serve --workers 2 (in-process) ==")
    db = random_graph_database(num_edges=4000, num_nodes=300, seed=1)
    server, port = serve_background(db, port=0, workers=2)
    sql = (
        "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
        "ORDER BY weight LIMIT 100"
    )
    try:
        with Client(port=port) as client:
            explain = client.explain(sql)
            parallel_line = next(
                line for line in explain.splitlines() if "parallel:" in line
            )
            print(f"  EXPLAIN says: {parallel_line.strip()}")
            rows = list(client.execute(sql, batch=25))
            print(f"  fetched {len(rows)} rows in 4 pages through one "
                  "resumable cursor over the merged stream")
            assert len(rows) == 100
            assert "parallel: 2 workers" in explain
    finally:
        server.shutdown()
        server.server_close()
    print("  server stopped cleanly")


if __name__ == "__main__":
    library_surface()
    server_surface()
    print("parallel top-k: merged ranked streams are byte-identical")
