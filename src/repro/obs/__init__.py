"""repro.obs — end-to-end observability for the any-k stack.

Seven pieces, one per module:

- :mod:`repro.obs.trace` — lightweight span tracing around the request
  pipeline (parse → plan → cache lookup → shard/enumerate → merge →
  page fetch), with a bounded ring buffer of recent traces,
  W3C-traceparent-style context propagation (client spans, server
  spans, and grafted per-shard worker subtrees form one tree), and
  near-zero cost while disabled.
- :mod:`repro.obs.registry` — the process-wide metrics registry
  (counters, gauges, histograms) with Prometheus-text and JSON
  exporters, unifying the RAM-model :class:`~repro.util.counters.Counters`
  and the workload histograms behind one model.
- :mod:`repro.obs.delay` — the anytime-delay profiler: per-cursor
  inter-result delay, TTF, and TT(k) histograms recorded *inside* the
  engines (PART/REC/batch/HRJN and the parallel merge), with worker
  snapshots folded back across process boundaries.
- :mod:`repro.obs.analyze` — ``EXPLAIN ANALYZE``: run the statement and
  report per-stage/per-operator wall time, tuples produced, cache and
  shard attribution, and the delay profile.
- :mod:`repro.obs.events` — the structured query log: sampled
  per-request JSON-lines records with forced slow/error capture,
  size-based rotation, and replay against a live server.
- :mod:`repro.obs.memory` — the space profiler: calibrated
  bytes-per-entry models over the engines' load-bearing structures
  (priority queues, REC solution lists, T-DP state, HRJN buffers, hash
  buckets, batch rows) folded into live/peak per-cursor profiles
  at O(1) hot-path cost, feeding the admission watermark
  (``repro-serve --max-mem-mb``) and the planner's Q-error feedback.
- :mod:`repro.obs.slo` — declarative SLO specs (latency percentiles,
  per-cursor peak memory, error rate, availability) evaluated with
  multi-window burn rates over the registry's live numbers.

The server (:mod:`repro.server`) exposes all of it on the wire:
``metrics``, ``trace``, and ``slo`` ops, ``trace_id`` echoed on every
response, ``trace_context`` adoption on every request, and the
``repro-obs`` CLI (:mod:`repro.obs.cli`) to snapshot or tail a running
``repro-serve``.
"""

from __future__ import annotations

from repro.obs.analyze import build_report, render_analyze, run_analyze
from repro.obs.delay import DELAY_BOUNDS, TTK_CHECKPOINTS, DelayProfile
from repro.obs.events import EventLog, read_events, replay_events, sql_hash
from repro.obs.memory import (
    MEM_BOUNDS,
    QERROR_BOUNDS,
    MemoryProfile,
    SpaceGauge,
    attach_tracker,
    q_error,
    tracker_of,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import (
    DEFAULT_SLOS,
    SloEngine,
    SloError,
    SloSpec,
    evaluate_specs,
    parse_slo,
    parse_slos,
    render_slo_report,
)
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    Tracer,
    format_traceparent,
    join_traces,
    new_trace_id,
    parse_traceparent,
    render_trace_tree,
    tracer,
)

__all__ = [
    "DEFAULT_SLOS",
    "DELAY_BOUNDS",
    "DelayProfile",
    "EventLog",
    "MEM_BOUNDS",
    "MemoryProfile",
    "MetricsRegistry",
    "NOOP_SPAN",
    "QERROR_BOUNDS",
    "SloEngine",
    "SloError",
    "SloSpec",
    "SpaceGauge",
    "Span",
    "TTK_CHECKPOINTS",
    "Tracer",
    "attach_tracker",
    "build_report",
    "evaluate_specs",
    "format_traceparent",
    "join_traces",
    "new_trace_id",
    "parse_slo",
    "q_error",
    "parse_slos",
    "parse_traceparent",
    "read_events",
    "render_analyze",
    "render_slo_report",
    "render_trace_tree",
    "replay_events",
    "run_analyze",
    "sql_hash",
    "tracer",
    "tracker_of",
]
