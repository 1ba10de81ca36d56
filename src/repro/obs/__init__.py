"""repro.obs — end-to-end observability for the any-k stack.

Five pieces, one per module:

- :mod:`repro.obs.trace` — lightweight span tracing around the request
  pipeline (parse → plan → cache lookup → shard/enumerate → merge →
  page fetch), with a bounded ring buffer of recent server-side
  request trees (per-shard worker subtrees grafted under the
  coordinator's span), and near-zero cost while disabled.
- :mod:`repro.obs.registry` — the metrics registry (counter and
  histogram families plus pull-time collector gauges) with
  Prometheus-text and JSON exporters.  A server's registry is the only
  place its server-wide numbers accumulate: the ``stats`` and
  ``metrics`` ops both read it.
- :mod:`repro.obs.delay` — the anytime-delay profiler: per-cursor
  inter-result delay histogram, TTF and TT(k) recorded *inside* the
  engines (PART/REC/batch and the parallel merge), with each shard
  worker's result count and busy time filed for per-shard attribution.
- :mod:`repro.obs.analyze` — ``EXPLAIN ANALYZE``: run the statement and
  report per-stage/per-operator wall time, tuples produced, cache and
  shard attribution, the delay profile and the planner's Q-error.
- :mod:`repro.obs.memory` — the space profiler: live/peak entry counts
  of the engines' load-bearing structures (priority queues, REC
  solution lists, T-DP state, hash buckets, batch rows)
  at O(1) hot-path cost, priced in bytes by one factor per engine
  family for the admission watermark (``repro-serve --max-mem-mb``).

The server (:mod:`repro.server`) exposes all of it on the wire:
``metrics`` and ``trace`` ops, ``trace_id`` echoed on every
response, and the ``repro-obs`` CLI (:mod:`repro.obs.cli`) to
snapshot or tail a running ``repro-serve``.
"""

from __future__ import annotations

from repro.obs.analyze import analyze_plan, q_error, render_analyze, run_analyze
from repro.obs.delay import DELAY_BOUNDS, TTK_CHECKPOINTS, DelayProfile
from repro.obs.memory import (
    ENTRY_BOUNDS,
    MemoryProfile,
    SpaceGauge,
    attach_tracker,
    tracker_of,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    Tracer,
    new_trace_id,
    render_trace_tree,
    tracer,
)

__all__ = [
    "DELAY_BOUNDS",
    "DelayProfile",
    "ENTRY_BOUNDS",
    "MemoryProfile",
    "MetricsRegistry",
    "NOOP_SPAN",
    "SpaceGauge",
    "Span",
    "TTK_CHECKPOINTS",
    "Tracer",
    "analyze_plan",
    "attach_tracker",
    "new_trace_id",
    "q_error",
    "render_analyze",
    "render_trace_tree",
    "run_analyze",
    "tracer",
    "tracker_of",
]
