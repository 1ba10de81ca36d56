"""Lightweight end-to-end span tracing.

A *span* is one timed stage of a request — ``parse``, ``plan``,
``cache_lookup``, ``execute.setup``, ``page_fetch`` — with a monotonic
start/duration, key/value attributes, and a link to its parent span.
Spans with the same ``trace_id`` form a *trace*: the tree of stages one
protocol request (or one library call) went through, which is what
turns "wire p99 is 25 ms but the engine averages 2.8 ms" from a mystery
into a per-stage attribution.

Design constraints, in order:

- **Near-zero cost when disabled.**  The tracer ships disabled; every
  instrumentation seam costs one attribute read and one ``if`` before
  bailing out to a shared no-op span.  Nothing is allocated, no clock
  is read.  The overhead guard in ``tests/test_obs.py`` holds the
  disabled-tracer tax on a seeded PART enumeration to a few percent.
- **Correct parenting under concurrency.**  The current span lives in a
  :mod:`contextvars` context variable, so socketserver handler threads
  (and any future asyncio core) each see their own span stack without
  locks on the hot path.
- **Bounded memory.**  Finished traces land in a ring buffer of the
  last ``capacity`` traces; an abandoned or chatty workload can never
  grow tracer state without bound.  The server's ``trace`` op reads
  this buffer.

Spans use :func:`time.perf_counter` (monotonic, highest resolution) for
durations and a single :func:`time.time` stamp per trace for wall-clock
anchoring.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from collections import OrderedDict
from typing import Any, Iterator, Optional

_ids = itertools.count(1)


def new_trace_id() -> str:
    """A process-unique trace id (cheap: no entropy pool, no UUID).

    The pid is read per call, not at import: a ``fork``-spawned shard
    worker inherits this module already imported, and an import-time
    prefix would make every worker mint the parent's ids.
    """
    return f"t{os.getpid():x}-{next(_ids):x}"


#: The traceparent version prefix we emit (W3C-style ``version-traceid-
#: parentid-flags``; our ids are process-scoped strings, not 16-byte hex).
TRACEPARENT_VERSION = "00"


def format_traceparent(trace_id: str, span_id: str) -> str:
    """Render a W3C-traceparent-style context string for the wire.

    The protocol's ``trace_context`` request field carries this; the
    server adopts ``trace_id`` and parents its root span under
    ``span_id``, so client-side and server-side spans form one tree.
    """
    return f"{TRACEPARENT_VERSION}-{trace_id}-{span_id}-01"


def parse_traceparent(value: Any) -> Optional[tuple[str, str]]:
    """``(trace_id, parent_span_id)`` from a traceparent string, or None.

    Lenient by design — a malformed context must degrade to "no
    propagation", never fail the request.  Trace ids may themselves
    contain dashes (ours do: ``t<pid>-<n>``), so the parent id and the
    flags are split from the *right*.
    """
    if not isinstance(value, str):
        return None
    parts = value.split("-")
    if len(parts) < 4:
        return None
    version = parts[0]
    if len(version) != 2 or not all(c in "0123456789abcdef" for c in version):
        return None
    trace_id = "-".join(parts[1:-2])
    parent_id = parts[-2]
    if not trace_id or not parent_id:
        return None
    return trace_id, parent_id


class Span:
    """One timed, attributed stage of a trace.

    Usable as a context manager (the normal idiom via
    :meth:`Tracer.span`) and directly via :meth:`finish` for callers
    whose stage does not nest lexically.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_s",
        "duration_ms",
        "attrs",
        "error",
        "_token",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        attrs: dict,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.error: Optional[str] = None
        self.duration_ms: Optional[float] = None
        self._token: Optional[contextvars.Token] = None
        self.start_s = time.perf_counter()

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span (chainable)."""
        self.attrs.update(attrs)
        return self

    def finish(self) -> None:
        if self.duration_ms is None:
            self.duration_ms = (time.perf_counter() - self.start_s) * 1000.0

    def detach(self) -> "Span":
        """Stop being the context's current span but stay open (a span
        around a generator's pulls must not stay current over a yield)."""
        if self._token is not None:
            _current_span.reset(self._token)
            self._token = None
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and self.error is None:
            self.error = f"{exc_type.__name__}: {exc}"
        self.detach()
        self.finish()

    def to_dict(self) -> dict:
        out = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ms": None,  # filled relative to the trace root
            "duration_ms": (
                round(self.duration_ms, 4) if self.duration_ms is not None else None
            ),
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.error:
            out["error"] = self.error
        return out


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def finish(self) -> None:
        pass

    def detach(self) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NOOP_SPAN = _NoopSpan()

#: The innermost open span of the calling context (None outside traces).
_current_span: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class _TraceRecord:
    """One finished (or in-flight) trace in the ring buffer."""

    __slots__ = ("trace_id", "started_at", "spans", "request_id", "op")

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.started_at = time.time()
        self.spans: list[Span] = []
        self.request_id: Any = None
        self.op: Optional[str] = None


class Tracer:
    """Span factory plus a bounded ring buffer of recent traces.

    One instance per process is the normal deployment (the module-level
    :data:`tracer`); tests may build private instances.  All state
    transitions take an internal lock; span *creation* on a disabled
    tracer takes none.
    """

    def __init__(self, capacity: int = 256, enabled: bool = False) -> None:
        if capacity < 1:
            raise ValueError("trace ring capacity must be >= 1")
        self.enabled = enabled
        self.capacity = capacity
        self._lock = threading.Lock()
        #: trace_id -> record, in insertion order (the ring).
        self._ring: "OrderedDict[str, _TraceRecord]" = OrderedDict()
        #: request id (as string) -> trace_id, bounded alongside the ring.
        self._by_request: "OrderedDict[str, str]" = OrderedDict()
        self._span_ids = itertools.count(1)
        # Captured at construction (not import) so a Tracer built inside
        # a fork-spawned shard worker carries the *worker's* pid — span
        # ids from four workers and their coordinator must never collide
        # once grafted into one trace (a collision makes the rendered
        # tree cyclic).
        self._id_prefix = f"{os.getpid():x}"
        self.traces_started = 0
        self.traces_joined = 0
        self.traces_dropped = 0

    def _new_span_id(self) -> str:
        # Process-prefixed (dot-separated: dashes would break traceparent
        # splitting) so client and server span ids never collide when a
        # propagated trace is joined across processes.
        return f"s{self._id_prefix}.{next(self._span_ids):x}"

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def set_capacity(self, capacity: int) -> None:
        """Resize the ring (``repro-serve --trace-capacity``); evicts the
        oldest traces immediately if the new capacity is smaller."""
        if capacity < 1:
            raise ValueError("trace ring capacity must be >= 1")
        with self._lock:
            self.capacity = capacity
            while len(self._ring) > self.capacity:
                self._evict_oldest_locked()

    def _evict_oldest_locked(self) -> None:
        dropped_id, _ = self._ring.popitem(last=False)
        self.traces_dropped += 1
        # Drop the request index entries too (linear scan is fine: it
        # runs once per evicted trace, over a bounded dict).
        for key, value in list(self._by_request.items()):
            if value == dropped_id:
                del self._by_request[key]

    def start_trace(
        self,
        name: str,
        request_id: Any = None,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **attrs: Any,
    ):
        """Open a root span under a (possibly propagated) trace.

        ``request_id`` (the protocol envelope id) indexes the trace for
        ``trace`` op lookup by request.  A caller-provided ``trace_id``
        (e.g. from a ``trace_context`` request field) is *adopted*: if
        the ring already buffers that trace — the caller lives in this
        process — the new root span joins the existing record instead of
        replacing it, so client-side and server-side spans of one
        request land in one tree.  ``parent_id`` (the traceparent's
        parent span id) links this root under the propagating caller's
        span even across process boundaries.
        """
        if not self.enabled:
            return NOOP_SPAN
        tid = trace_id or new_trace_id()
        with self._lock:
            record = self._ring.get(tid) if trace_id is not None else None
            if record is None:
                record = _TraceRecord(tid)
                record.op = name
                self.traces_started += 1
                self._ring[tid] = record
            else:
                # Joining an adopted trace keeps it hot in the ring.
                self.traces_joined += 1
                self._ring.move_to_end(tid)
            if request_id is not None:
                record.request_id = request_id
                self._by_request[str(request_id)] = tid
            while len(self._ring) > self.capacity:
                self._evict_oldest_locked()
        span = Span(tid, self._new_span_id(), parent_id, name, attrs)
        span._token = _current_span.set(span)
        record.spans.append(span)
        return span

    def span(self, name: str, **attrs: Any):
        """Open a child span of the context's current span.

        Outside any trace (or with tracing disabled) this is free: the
        shared no-op span is returned and nothing is recorded.
        """
        if not self.enabled:
            return NOOP_SPAN
        parent = _current_span.get()
        if parent is None:
            return NOOP_SPAN
        span = Span(
            parent.trace_id,
            self._new_span_id(),
            parent.span_id,
            name,
            attrs,
        )
        with self._lock:
            record = self._ring.get(parent.trace_id)
        if record is None:  # trace already evicted mid-flight
            return NOOP_SPAN
        record.spans.append(span)
        span._token = _current_span.set(span)
        return span

    def current_trace_id(self) -> Optional[str]:
        span = _current_span.get()
        return span.trace_id if span is not None else None

    def current_span(self) -> Optional[Span]:
        """The context's innermost open span (None outside any trace)."""
        return _current_span.get()

    def graft(
        self,
        anchor: Any,
        spans: list,
        base_start_s: Optional[float] = None,
    ) -> int:
        """Splice remote span dicts into ``anchor``'s trace.

        ``spans`` is a list of :meth:`Span.to_dict`-shaped dicts shipped
        across a process boundary (a shard worker's done frame).  Their
        ids are remote-process-unique already; spans without a parent in
        the shipped batch are re-parented under ``anchor``, so a
        worker's subtree hangs off the coordinator's span.  Remote
        ``start_ms`` offsets are rebased onto ``base_start_s`` (a
        perf_counter stamp in *this* process — normally when the worker
        was launched) so the merged timeline stays roughly ordered.
        Returns the number of spans grafted (0 when disabled, the
        anchor is a no-op span, or the trace was already evicted).
        """
        if not self.enabled or not spans or not isinstance(anchor, Span):
            return 0
        with self._lock:
            record = self._ring.get(anchor.trace_id)
        if record is None:  # trace already evicted mid-flight
            return 0
        if base_start_s is None:
            base_start_s = anchor.start_s
        shipped_ids = {s.get("span_id") for s in spans}
        grafted = 0
        for shipped in spans:
            span_id = shipped.get("span_id")
            if not span_id:
                continue
            parent_id = shipped.get("parent_id")
            if parent_id not in shipped_ids:
                parent_id = anchor.span_id
            span = Span(
                anchor.trace_id,
                span_id,
                parent_id,
                str(shipped.get("name", "?")),
                dict(shipped.get("attrs") or {}),
            )
            span.start_s = base_start_s + float(shipped.get("start_ms") or 0.0) / 1000.0
            span.duration_ms = shipped.get("duration_ms")
            span.error = shipped.get("error")
            record.spans.append(span)
            grafted += 1
        return grafted

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def get(self, trace_id: str) -> Optional[dict]:
        """The span tree of ``trace_id`` as a JSON-ready dict (or None)."""
        with self._lock:
            record = self._ring.get(trace_id)
        if record is None:
            return None
        return _render_record(record)

    def find_by_request(self, request_id: Any) -> Optional[dict]:
        with self._lock:
            trace_id = self._by_request.get(str(request_id))
        return self.get(trace_id) if trace_id is not None else None

    def recent(self, n: int = 20) -> list[dict]:
        """The last ``n`` traces, newest first."""
        with self._lock:
            records = list(self._ring.values())[-n:]
        return [_render_record(record) for record in reversed(records)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def info(self) -> dict:
        with self._lock:
            return {
                "enabled": self.enabled,
                "capacity": self.capacity,
                "buffered": len(self._ring),
                "started": self.traces_started,
                "joined": self.traces_joined,
                "dropped": self.traces_dropped,
            }

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._by_request.clear()


def _render_record(record: _TraceRecord) -> dict:
    root_start = record.spans[0].start_s if record.spans else 0.0
    spans = []
    for span in record.spans:
        rendered = span.to_dict()
        rendered["start_ms"] = round((span.start_s - root_start) * 1000.0, 4)
        spans.append(rendered)
    return {
        "trace_id": record.trace_id,
        "op": record.op,
        "request_id": record.request_id,
        "started_at": record.started_at,
        "spans": spans,
    }


def render_trace_tree(trace: dict) -> str:
    """A human-readable indented rendering of one :meth:`Tracer.get` dict."""
    spans = trace.get("spans", ())
    known = {span["span_id"] for span in spans}
    children: dict[Optional[str], list[dict]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None and parent not in known:
            # A propagated root whose parent lives in another process's
            # buffer (the traceparent's span id): render it as a root.
            parent = None
        children.setdefault(parent, []).append(span)

    lines = [
        f"trace {trace['trace_id']}"
        + (f"  (request id {trace['request_id']})" if trace.get("request_id") is not None else "")
    ]

    def walk(parent: Optional[str], depth: int) -> Iterator[str]:
        for span in children.get(parent, ()):  # insertion order == start order
            duration = span.get("duration_ms")
            shown = f"{duration:.3f} ms" if duration is not None else "open"
            attrs = span.get("attrs") or {}
            suffix = (
                "  " + " ".join(f"{k}={v}" for k, v in attrs.items()) if attrs else ""
            )
            error = f"  !! {span['error']}" if span.get("error") else ""
            yield (
                f"{'  ' * depth}{span['name']:<{max(1, 24 - 2 * depth)}} "
                f"+{span['start_ms']:.3f} ms  {shown}{suffix}{error}"
            )
            yield from walk(span["span_id"], depth + 1)

    lines.extend(walk(None, 1))
    return "\n".join(lines)


def join_traces(local: Optional[dict], remote: Optional[dict]) -> Optional[dict]:
    """Merge two rendered trace dicts for the *same* trace id.

    ``local`` is the caller's view (e.g. the client's connect/serialize/
    wait spans), ``remote`` the server's.  Used by
    :meth:`repro.server.client.Client.trace` to present one tree when
    the two processes each buffered half of a propagated trace.  Spans
    are concatenated local-first with de-duplicated ids; ``start_ms``
    offsets stay per-origin (they share a root only logically — the
    clocks are different processes'), which is fine for tree rendering
    because parenting is by span id, not by time.
    """
    if not local:
        return remote
    if not remote or remote.get("trace_id") != local.get("trace_id"):
        return local
    seen = {span["span_id"] for span in local.get("spans", ())}
    merged = dict(remote)
    merged["spans"] = list(local.get("spans", ())) + [
        span for span in remote.get("spans", ()) if span["span_id"] not in seen
    ]
    if local.get("request_id") is not None and merged.get("request_id") is None:
        merged["request_id"] = local["request_id"]
    return merged


#: The process-wide tracer every instrumentation seam reports to.
#: Disabled by default; :class:`repro.server.service.QueryService`
#: enables it (spans are per-request, far off the per-result hot path).
tracer = Tracer()
