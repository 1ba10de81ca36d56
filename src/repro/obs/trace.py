"""Lightweight end-to-end span tracing.

A *span* is one timed stage of a request — ``cache_lookup``,
``parse``, ``analyze``, ``plan``, ``execute.setup``, ``page_fetch`` —
with a monotonic start/duration, key/value attributes, and a link to
its parent span.
Spans with the same ``trace_id`` form a *trace*: the tree of stages one
protocol request (or one library call) went through in this process,
with shard workers' subtrees grafted in (:meth:`Tracer.graft`), which
is what turns "wire p99 is 25 ms but the engine averages 2.8 ms" from a
mystery into a per-stage attribution.

Design constraints, in order:

- **Near-zero cost when disabled.**  The tracer ships disabled; every
  instrumentation seam costs one attribute read and one ``if`` before
  bailing out to a shared no-op span.  Nothing is allocated, no clock
  is read.  The overhead guard in ``tests/test_obs.py`` holds the
  disabled-tracer tax on a seeded PART enumeration to a few percent.
- **Correct parenting under concurrency.**  The current span lives in a
  :mod:`contextvars` context variable, so the server's connection
  threads each see their own span stack without locks on the hot
  path.
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
import weakref
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


class Span:
    """One timed, attributed stage of a trace.

    Usable as a context manager (the normal idiom via
    :meth:`Tracer.span`) and directly via :meth:`finish` for callers
    whose stage does not nest lexically.
    """

    __slots__ = (
        "trace_id",
        "record",
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
        record: "_TraceRecord",
        span_id: str,
        parent_id: Optional[str],
        name: str,
        attrs: dict,
    ) -> None:
        self.trace_id = record.trace_id
        # Weak: the record lists its spans, and the ring alone owns a
        # trace, so evicting it frees it by reference counting.
        self.record = weakref.ref(record)
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
    """One finished (or in-flight) trace in the ring buffer.

    ``request_id`` is the protocol envelope id, kept for display only:
    envelope ids are per connection, so they name no trace on their own.
    """

    __slots__ = (
        "trace_id",
        "started_at",
        "spans",
        "request_id",
        "op",
        "__weakref__",
    )

    def __init__(self, op: str, request_id: Any) -> None:
        self.trace_id = new_trace_id()
        self.started_at = time.time()
        self.spans: list[Span] = []
        self.request_id = request_id
        self.op = op


class Tracer:
    """Span factory plus a bounded ring buffer of recent traces.

    One instance per process is the normal deployment (the module-level
    :data:`tracer`); tests may build private instances.  Opening a trace
    takes the ring lock once; child spans and grafts reach their trace
    through the parent span's reference to its record and take no lock,
    and span *creation* on a disabled tracer takes none either.
    """

    def __init__(self, capacity: int = 256, enabled: bool = False) -> None:
        if capacity < 1:
            raise ValueError("trace ring capacity must be >= 1")
        self.enabled = enabled
        self.capacity = capacity
        self._lock = threading.Lock()
        #: trace_id -> record, in insertion order (the ring).
        self._ring: "OrderedDict[str, _TraceRecord]" = OrderedDict()
        self._span_ids = itertools.count(1)
        # Captured at construction (not import) so a Tracer built inside
        # a fork-spawned shard worker carries the *worker's* pid — span
        # ids from four workers and their coordinator must never collide
        # once grafted into one trace (a collision makes the rendered
        # tree cyclic).
        self._id_prefix = f"{os.getpid():x}"
        self.traces_started = 0
        self.traces_dropped = 0

    def _new_span_id(self) -> str:
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
            self._trim_locked()

    def _trim_locked(self) -> None:
        while len(self._ring) > self.capacity:
            self._ring.popitem(last=False)
            self.traces_dropped += 1

    def start_trace(self, name: str, request_id: Any = None, **attrs: Any):
        """Open a new trace's root span; ``request_id`` is shown with it."""
        if not self.enabled:
            return NOOP_SPAN
        record = _TraceRecord(name, request_id)
        span = Span(record, self._new_span_id(), None, name, attrs)
        record.spans.append(span)
        with self._lock:
            self.traces_started += 1
            self._ring[record.trace_id] = record
            self._trim_locked()
        span._token = _current_span.set(span)
        return span

    def span(self, name: str, **attrs: Any):
        """Open a child span of the context's current span.

        Outside any trace (or with tracing disabled) this is free: the
        shared no-op span is returned and nothing is recorded; so is a
        span of a trace the ring has already evicted.
        """
        if not self.enabled:
            return NOOP_SPAN
        parent = _current_span.get()
        record = parent.record() if parent is not None else None
        if record is None:
            return NOOP_SPAN
        span = Span(record, self._new_span_id(), parent.span_id, name, attrs)
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
        record = anchor.record()
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
                record,
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
                "dropped": self.traces_dropped,
            }

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()


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
    children: dict[Optional[str], list[dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)

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


#: The process-wide tracer every instrumentation seam reports to.
#: Disabled by default; :class:`repro.server.service.QueryService`
#: enables it (spans are per-request, far off the per-result hot path).
tracer = Tracer()
