"""Concurrent any-k query service: ranked enumeration as a server.

The anytime property of any-k algorithms — answers stream out in rank
order, the caller stops whenever satisfied — becomes *pagination* the
moment enumeration state survives between requests.  This package keeps a
paused, memoized :class:`~repro.server.cursors.SharedStream` per
statement and snapshot, read by every open cursor on it at its own
offset, so a client's second ``fetch`` resumes the ranked stream exactly
where the first left off instead of recomputing a larger top-k from
scratch, and a second client asking the same question reads the rows
already produced — also after the first has finished, while the result
ended cleanly on the newest snapshot.

Layers (transport-agnostic core first, wire last):

- :mod:`repro.server.cursors` — the session/cursor manager with its
  shared streams, the completed results it keeps joinable, an admission
  limit and idle eviction;
- :mod:`repro.server.service` — :class:`QueryService`, the dict-in /
  dict-out request handler (usable in-process, no sockets), with the
  plan cache: an LRU of analyzed statements keyed on the SQL text, so a
  repeated text (``?`` placeholders bound per request from ``params``)
  skips parse and analysis, while every request binds and routes on its
  own snapshot;
- :mod:`repro.server.protocol` — the wire protocol: JSON-lines by
  default, length-prefixed binary frames after a ``hello`` negotiation,
  ``params`` vectors, pipelined requests matched by id, and a frame
  size ceiling;
- :mod:`repro.server.tcp` — the TCP server: one thread per connection
  reads, runs and answers its requests in arrival order, and a
  graceful drain finishes each request in progress with its response
  written whole;
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
from repro.server.service import QueryService
from repro.server.tcp import AnykTCPServer, serve_background

__all__ = [
    "AnykTCPServer",
    "Client",
    "ClientTimeout",
    "CursorLimitError",
    "DeadlineExceeded",
    "PipelinedClient",
    "QueryService",
    "ResultCursor",
    "ServerError",
    "UnknownCursorError",
    "serve_background",
]
