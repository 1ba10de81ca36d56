"""Serving showcase: the anytime property as server-side pagination.

Boots an in-process `repro.server` TCP server over a weighted graph and
walks a client through the service's three headline behaviors:

1. resumable cursors — a paused enumeration resumed across *separate
   connections* yields the exact continuation of the ranked stream;
2. the warm plan cache — a `?` statement is analyzed once; a second
   submission with other params skips parse and analysis and is routed
   on its own values (watch `plan_cached` flip);
3. deadlines and admission — a 1 ms deadline returns a partial page with
   `deadline_exceeded`, and the open-cursor limit rejects the overflow
   query with a clean `cursor_limit` error.

Run:  python examples/serve_client.py
"""

import itertools

from repro.data.generators import random_graph_database
from repro.server import Client, ServerError, serve_background

TOPK_SQL = (
    "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
    "ORDER BY weight LIMIT 200"
)


def main() -> None:
    db = random_graph_database(num_edges=2000, num_nodes=220, seed=7)
    server, port = serve_background(db, max_cursors=4, idle_evict_s=None)
    print(f"serving {len(db['E'])} edges on 127.0.0.1:{port}\n")

    print("== 1. pause on one connection, resume on another ==")
    with Client(port=port) as first:
        cursor = first.execute(TOPK_SQL, batch=5, prefetch=5)
        page_one = list(itertools.islice(iter(cursor), 5))
        cursor_id = cursor.cursor_id
        print(f"  fetched {len(page_one)} rows, paused cursor {cursor_id}")
    with Client(port=port) as second:  # a brand-new connection
        response = second.call("fetch", cursor=cursor_id, n=5)
        page_two = response["rows"]
        print(f"  resumed on a new connection: {len(page_two)} more rows")
        rerun = second.execute(TOPK_SQL, batch=10, prefetch=10)
        continued = [w for _, w in page_one] + [w for _, w in page_two]
        uninterrupted = [w for _, w in itertools.islice(iter(rerun), 10)]
        print(f"  identical to one uninterrupted run: "
              f"{continued == uninterrupted}")
        second.call("close", cursor=cursor_id)
        rerun.close()

    print("\n== 2. the plan cache warms up ==")
    with Client(port=port) as client:
        three_hop = (
            "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
            "JOIN E AS e3 ON e2.dst = e3.src WHERE e1.src > ? "
            "ORDER BY weight LIMIT ?"
        )
        cold = client.execute(three_hop, params=[10, 50], batch=3, prefetch=3)
        warm = client.execute(three_hop, params=[40, 20], batch=3, prefetch=3)
        print(f"  first submission  plan_cached={cold.plan_cached}")
        print(f"  second submission plan_cached={warm.plan_cached} "
              "(same text, other params: keyed on the SQL text)")
        info = client.stats()["plan_cache"]
        print(f"  cache: {info['hits']} hits / {info['misses']} misses")
        cold.close()
        warm.close()

    print("\n== 3. deadlines and admission control ==")
    with Client(port=port) as client:
        response = client.call(
            "query", sql=TOPK_SQL, fetch=200, deadline_ms=1
        )
        print(f"  1 ms deadline: {len(response['rows'])} of 200 rows, "
              f"deadline_exceeded={response.get('deadline_exceeded', False)}")
        held = [client.execute(TOPK_SQL, prefetch=1) for _ in range(3)]
        try:
            client.execute(TOPK_SQL, prefetch=1)
        except ServerError as error:
            print(f"  5th cursor rejected: [{error.code}] at the "
                  "--max-cursors=4 admission limit")
        for cursor in held:
            cursor.close()

    server.shutdown()
    server.server_close()
    print("\nserver stopped cleanly")


if __name__ == "__main__":
    main()
