"""The wire protocol: JSON requests/responses, two framings.

The default framing is JSON lines — one request per line, one response
per line, both UTF-8 JSON objects — the simplest framing that composes
with ``nc``, log files, and every language's standard library.  A client
may switch the connection to **binary framing** (a 4-byte big-endian
payload length followed by the same UTF-8 JSON payload, no newline
scanning) by sending a ``hello`` op; the server's hello *response* still
arrives in the old framing, and everything after it uses the negotiated
one.  Either way a frame larger than the server's limit
(:data:`MAX_FRAME_BYTES` by default) is answered with a
``frame_too_large`` error and the connection stays usable.

Requests may be **pipelined**: a client can write any number of requests
without waiting for responses.  Pipelining is the one way to put several
requests on a round trip.  Responses may complete out of order, so
clients match them by the request ``id`` every response carries (the
bundled server happens to answer each connection in arrival order).  All requests share the envelope::

    {"id": <any>, "op": "query" | "fetch" | "explain" | "mutate" | "close"
     | "hello" | "stats" | "metrics" | "trace",
     ...op fields...,
     "deadline_ms": <optional int>}

and all responses echo the id::

    {"id": <any>, "ok": true,  ...payload...}
    {"id": <any>, "ok": false, "error": {"code": "...", "message": "..."}}

Op fields (see :class:`repro.server.service.QueryService` for semantics):

``query``
    ``sql`` (required), ``engine`` (optional router override), ``fetch``
    (optional int: rows to inline in the response, default 0), ``params``
    (optional list of numbers/strings bound positionally to the
    statement's ``?`` placeholders).  The response carries ``version``,
    the snapshot generation the cursor is pinned to for its whole
    lifetime (validation harnesses replay pages against a recompute of
    exactly that generation).
``fetch``
    ``cursor`` (required), ``n`` (optional int, default server batch).
    The response carries ``rows``, ``done`` and ``results_emitted``, the
    cursor's cumulative result count.
``explain``
    ``sql`` (required), ``engine`` (optional), ``params`` (optional, as
    for ``query``), ``analyze`` (optional bool: run the statement to
    completion and include the EXPLAIN ANALYZE report — per-stage/
    per-operator wall time, tuples produced, cache/shard attribution,
    and the in-engine anytime-delay profile).
``mutate``
    ``sql`` (required): one ``INSERT INTO`` / ``DELETE FROM`` statement.
    Commits a new copy-on-write snapshot; open cursors keep draining the
    snapshot they were planned on.  Responds with ``applied``,
    ``relation``, ``rows``, and the new ``version``.
``close``
    ``cursor`` (required).  Responds with ``closed`` and
    ``results_emitted``.
``hello``
    ``frames`` (optional: ``"json"`` — the default line framing — or
    ``"binary"``).  Negotiates the connection's framing; the response
    (``{"frames": ..., "protocol": ..., "max_frame_bytes": ...}``)
    travels in the *old* framing, everything after it in the new one.
    In-process callers get the capability echo with no framing change.
``stats``
    no fields.
``metrics``
    ``format`` (optional: ``"prometheus"`` — the default, Prometheus
    text exposition — or ``"json"``).  Returns the unified metrics
    registry: request counters, cache/cursor gauges, per-op latency
    histograms, and per-engine delay/TTF histograms.
``trace``
    ``trace`` (optional: a trace id, as echoed in every response's
    ``trace_id``).  Returns the server's buffered span tree for that
    request; with no id, the newest buffered traces.  An id the ring no
    longer (or never) buffered answers with an ``unknown_trace`` error.

A field the protocol does not know is ignored.

``deadline_ms`` bounds row production for this request: the server stops
pulling results once the deadline passes and returns the partial batch
with ``"deadline_exceeded": true`` (the anytime property as a per-request
latency SLO).  Rows travel as ``[row_values..., weight]``-shaped pairs in
``"rows": [[row, weight], ...]`` with tuples rendered as JSON arrays.

``query``/``fetch`` responses additionally carry a ``mem`` object
(``{"live_entries": ..., "peak_entries": ...}``): the entries the
cursor's engine structures (priority queues, memoized solutions, T-DP
state, materialized rows) hold now and have held at most.  Live entries
read 0 once the stream is drained.  A server started with
``--max-mem-mb`` prices each open cursor's live entries in bytes, one
factor per engine family, and refuses new queries with a
``mem_pressure`` error once the sum exceeds the watermark and evicting
idle cursors cannot free enough; the refusal is deliberate admission
control, never an ``internal`` failure.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Optional

#: Protocol revision, echoed by the ``stats`` op.  2 added pipelining,
#: ``params`` binding, and the ``hello`` op.
PROTOCOL_VERSION = 2

#: Default TCP port of ``repro-serve`` (overridable everywhere).
DEFAULT_PORT = 7632

#: Largest request/response frame the server accepts, in bytes (both
#: framings; ``repro-serve --max-frame-bytes`` overrides).  Oversized
#: requests are answered with ``frame_too_large``, never a hangup.
MAX_FRAME_BYTES = 1_000_000

#: Most values one ``params`` vector may carry.
MAX_PARAMS = 64

#: Framing names a ``hello`` op may negotiate.
FRAMES = ("json", "binary")

#: Binary framing header: 4-byte big-endian unsigned payload length.
FRAME_HEADER = struct.Struct(">I")

#: op name -> required field names.
OPS: dict[str, tuple[str, ...]] = {
    "query": ("sql",),
    "fetch": ("cursor",),
    "explain": ("sql",),
    "mutate": ("sql",),
    "close": ("cursor",),
    "hello": (),
    "stats": (),
    "metrics": (),
    "trace": (),
}

# Error codes (the machine-readable half of every failure).
BAD_REQUEST = "bad_request"
SQL_ERROR = "sql_error"
UNKNOWN_CURSOR = "unknown_cursor"
UNKNOWN_TRACE = "unknown_trace"
CURSOR_LIMIT = "cursor_limit"
MEM_PRESSURE = "mem_pressure"
FRAME_TOO_LARGE = "frame_too_large"
CLIENT_TIMEOUT = "client_timeout"
INTERNAL = "internal"


class ProtocolError(Exception):
    """A malformed request (bad JSON, missing op/fields, wrong types)."""

    def __init__(self, message: str, code: str = BAD_REQUEST) -> None:
        super().__init__(message)
        self.code = code


def encode(message: dict) -> bytes:
    """One response/request as a JSON line (newline-terminated bytes)."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> dict:
    """Parse one wire line into a request dict.

    Raises :class:`ProtocolError` on malformed JSON or a non-object
    payload — the server answers those with a ``bad_request`` error
    instead of dropping the connection.
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(message).__name__}"
        )
    return message


def validate_request(request: dict) -> str:
    """Check the envelope; returns the op name.

    Field-level validation (types of ``n``, ``fetch``, ``deadline_ms``)
    also happens here so the service layer only sees well-formed input.
    """
    op = request.get("op")
    if not isinstance(op, str) or op not in OPS:
        known = ", ".join(sorted(OPS))
        raise ProtocolError(f"unknown op {op!r}; known ops: {known}")
    for name in OPS[op]:
        if name not in request:
            raise ProtocolError(f"op {op!r} requires a {name!r} field")
    if op in ("query", "explain", "mutate") and not isinstance(
        request["sql"], str
    ):
        raise ProtocolError("'sql' must be a string")
    if op in ("fetch", "close") and not isinstance(request["cursor"], str):
        raise ProtocolError("'cursor' must be a string (a cursor id)")
    # 'n' asks for rows (>= 1: an empty page would read as a timeout);
    # 'fetch' may be 0, the explicit "open the cursor, inline nothing".
    if "n" in request and (
        not isinstance(request["n"], int) or request["n"] < 1
    ):
        raise ProtocolError("'n' must be a positive integer")
    if "fetch" in request and (
        not isinstance(request["fetch"], int) or request["fetch"] < 0
    ):
        raise ProtocolError("'fetch' must be a non-negative integer")
    deadline = request.get("deadline_ms")
    if deadline is not None and (
        not isinstance(deadline, (int, float)) or deadline <= 0
    ):
        raise ProtocolError("'deadline_ms' must be a positive number")
    engine = request.get("engine")
    if engine is not None and not isinstance(engine, str):
        raise ProtocolError("'engine' must be a string engine name")
    if op == "explain" and "analyze" in request and not isinstance(
        request["analyze"], bool
    ):
        raise ProtocolError("'analyze' must be a boolean")
    if op == "metrics":
        format_ = request.get("format", "prometheus")
        if format_ not in ("prometheus", "json"):
            raise ProtocolError(
                "'format' must be 'prometheus' or 'json'"
            )
    if op == "trace" and "trace" in request and not isinstance(
        request["trace"], str
    ):
        raise ProtocolError("'trace' must be a string (a trace id)")
    if op in ("query", "explain"):
        validate_params(request.get("params"))
    if op == "hello":
        frames = request.get("frames", "json")
        if frames not in FRAMES:
            known = " or ".join(repr(f) for f in FRAMES)
            raise ProtocolError(f"'frames' must be {known}")
    return op


def validate_params(params: Any) -> None:
    """Check a ``params`` vector: a short list of scalar values.

    Booleans are rejected explicitly — they are ``int`` subclasses in
    Python, and relations never store them, so a ``true`` in a params
    vector is a client bug better caught at the envelope.
    """
    if params is None:
        return
    if not isinstance(params, list):
        raise ProtocolError("'params' must be a list of numbers/strings")
    if len(params) > MAX_PARAMS:
        raise ProtocolError(
            f"'params' carries at most {MAX_PARAMS} values, got {len(params)}"
        )
    for i, value in enumerate(params):
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ProtocolError(
                f"params[{i}] must be a number or string, "
                f"got {type(value).__name__}"
            )


def ok_response(request_id: Any, payload: dict) -> dict:
    """Success envelope around ``payload``."""
    return {"id": request_id, "ok": True, **payload}


def error_response(request_id: Any, code: str, message: str) -> dict:
    """Failure envelope with a machine-readable code."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def encode_frame(message: dict) -> bytes:
    """One message in binary framing: 4-byte big-endian length + JSON."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return FRAME_HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    """Parse one binary-frame payload into a request dict.

    Same contract as :func:`decode_line` (which additionally strips the
    newline terminator the line framing carries).
    """
    return decode_line(payload)


def jsonable_rows(rows: list) -> list:
    """``(row, weight)`` pairs as JSON-serializable nested lists.

    Weights in the lex carrier are tuples of floats; they become JSON
    arrays (and the client turns them back into tuples).
    """
    return [[list(row), _jsonable_weight(weight)] for row, weight in rows]


def _jsonable_weight(weight: Any) -> Any:
    return list(weight) if isinstance(weight, tuple) else weight
