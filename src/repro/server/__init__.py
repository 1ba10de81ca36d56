"""Concurrent any-k query service: ranked enumeration as a server.

The anytime property of any-k algorithms — answers stream out in rank
order, the caller stops whenever satisfied — becomes *pagination* the
moment enumeration state survives between requests.  This package keeps a
paused :class:`~repro.anyk.api.PausableStream` per open cursor, so a
client's second ``fetch`` resumes the ranked stream exactly where the
first left off instead of recomputing a larger top-k from scratch.

Layers (transport-agnostic core first, wire last):

- :mod:`repro.server.plancache` — parameterized plan cache: literals are
  lifted into a bound-parameter vector during normalization (and ``?``
  placeholders bind explicitly), so every instantiation of a query
  template shares one LRU entry, validated against a catalog fingerprint
  on each hit;
- :mod:`repro.server.cursors` — the session/cursor manager with an
  admission limit and idle eviction;
- :mod:`repro.server.service` — :class:`QueryService`, the dict-in /
  dict-out request handler (usable in-process, no sockets);
- :mod:`repro.server.protocol` — the wire protocol: JSON-lines by
  default, length-prefixed binary frames after a ``hello`` negotiation,
  ``params`` vectors, pipelined requests matched by id, and a frame
  size ceiling;
- :mod:`repro.server.tcp` — an asyncio TCP server: pipelined requests
  per connection, a bounded executor for engine work, and a graceful
  drain that finishes in-flight responses whole;
- :mod:`repro.server.client` — :class:`Client` (one request at a time,
  strict timeouts) and its subclass :class:`PipelinedClient` (the same
  query surface over many requests in flight on one socket, futures
  matched by id);
- :mod:`repro.server.cli` — the ``repro-serve`` console script.

Quickstart::

    from repro.data.generators import random_graph_database
    from repro.server import serve_background, Client

    db = random_graph_database(num_edges=2000, num_nodes=300, seed=1)
    server, port = serve_background(db, port=0)       # ephemeral port
    with Client(port=port) as client:
        cur = client.execute(
            "SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src "
            "WHERE e1.src > ? ORDER BY weight LIMIT ?", params=[5, 100],
            batch=10)
        for row, weight in cur:                        # fetches lazily
            print(weight, row)
    server.shutdown()
"""

from repro.server.client import (
    Client,
    ClientTimeout,
    DeadlineExceeded,
    PipelinedClient,
    ResultCursor,
    ServerError,
)
from repro.server.cursors import CursorLimitError, UnknownCursorError
from repro.server.plancache import PlanCache, normalize_sql, parameterize_sql
from repro.server.service import QueryService
from repro.server.tcp import AnykTCPServer, serve_background

__all__ = [
    "AnykTCPServer",
    "Client",
    "ClientTimeout",
    "CursorLimitError",
    "DeadlineExceeded",
    "PipelinedClient",
    "PlanCache",
    "QueryService",
    "ResultCursor",
    "ServerError",
    "UnknownCursorError",
    "normalize_sql",
    "parameterize_sql",
    "serve_background",
]
