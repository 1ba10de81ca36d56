"""Measurement: per-op latency, TTFR/TTK, throughput windows, SLO report.

Each driver lane records into its own :class:`MetricsCollector` — no
locks on the hot path — and the run merges them at the end (histograms
merge exactly; see :mod:`repro.util.histogram`).  The merged collector
plus run metadata becomes the SLO report — including per-spec burn-rate
verdicts from :func:`evaluate_slos` (same spec language as the server's
:mod:`repro.obs.slo` engine) — rendered both as text for humans and as
a JSON document (``repro-loadgen --json PATH``).

Latency taxonomy (all wall-clock at the driver, ms):

- ``query`` — the opening round trip (parse/plan/admission + inline
  prefetch);
- ``fetch`` — one resumed page of the ranked stream;
- ``mutate`` — one INSERT/DELETE commit;
- ``ttfr`` — time from issuing the query to holding the *first* ranked
  row, the any-k headline metric;
- ``ttk`` — time from issuing the query to the stream completing (the
  LIMIT-k'th row), the anytime counterpart.
"""

from __future__ import annotations

from collections import Counter as Multiset
from typing import Optional, Sequence

from repro.obs.slo import evaluate_specs, parse_slos, render_slo_report
from repro.util.histogram import Histogram

#: The ops that get their own latency histogram.
OPS = ("query", "fetch", "mutate")


class MetricsCollector:
    """One lane's (or the merged run's) measurements."""

    def __init__(self) -> None:
        self.op_latency = {op: Histogram() for op in OPS}
        self.ttfr = Histogram()
        self.ttk = Histogram()
        self.errors: Multiset = Multiset()
        self.rows = 0
        self.requests = 0
        #: 1-second windows: seconds-since-t0 -> completed ops, for
        #: peak-throughput reporting.
        self.windows: Multiset = Multiset()

    # ------------------------------------------------------------------
    # Recording (single-threaded per collector)
    # ------------------------------------------------------------------
    def record_op(self, op: str, latency_ms: float, at_s: float) -> None:
        self.op_latency[op].record(latency_ms)
        self.requests += 1
        self.windows[int(at_s)] += 1

    def record_ttfr(self, latency_ms: float) -> None:
        self.ttfr.record(latency_ms)

    def record_ttk(self, latency_ms: float) -> None:
        self.ttk.record(latency_ms)

    def record_rows(self, n: int) -> None:
        self.rows += n

    def record_error(self, code: str) -> None:
        self.errors[code] += 1

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsCollector") -> "MetricsCollector":
        for op in OPS:
            self.op_latency[op].merge(other.op_latency[op])
        self.ttfr.merge(other.ttfr)
        self.ttk.merge(other.ttk)
        self.errors.update(other.errors)
        self.rows += other.rows
        self.requests += other.requests
        self.windows.update(other.windows)
        return self

    @property
    def error_count(self) -> int:
        return sum(self.errors.values())

    def peak_window_ops(self) -> int:
        return max(self.windows.values(), default=0)

    def histogram_for(self, indicator: str) -> Optional[Histogram]:
        """Map an SLO latency indicator to the matching histogram.

        Accepts the op names (``query``/``fetch``/``mutate``) plus the
        driver's derived metrics: ``ttfr`` (alias ``ttf`` — the server's
        name for the same idea) and ``ttk``.
        """
        if indicator in self.op_latency:
            return self.op_latency[indicator]
        if indicator in ("ttfr", "ttf"):
            return self.ttfr
        if indicator == "ttk":
            return self.ttk
        return None


def evaluate_slos(metrics: MetricsCollector, slos: Sequence[str]) -> dict:
    """Grade one run's merged collector against SLO specs.

    Single-window (the whole run) evaluation using the same parser,
    burn math, and verdict thresholds as the server's rolling
    :class:`repro.obs.slo.SloEngine` — one SLO language everywhere.
    """
    specs = parse_slos(slos)
    return evaluate_specs(
        specs,
        metrics.histogram_for,
        lambda: (metrics.requests, metrics.error_count),
    )


def build_report(
    *,
    scenario: str,
    seed: int,
    duration: float,
    clients: int,
    mode: str,
    trace_sha256: str,
    query_count: int,
    mutation_count: int,
    wall_s: float,
    metrics: MetricsCollector,
    validation: Optional[dict] = None,
    server: Optional[dict] = None,
    slos: Optional[Sequence[str]] = None,
) -> dict:
    """Assemble the machine-readable SLO report (JSON-ready dict)."""
    ops = {op: metrics.op_latency[op].summary() for op in OPS}
    return {
        "kind": "repro-loadgen SLO report",
        "scenario": scenario,
        "seed": seed,
        "duration_s": duration,
        "clients": clients,
        "mode": mode,
        "trace": {
            "sha256": trace_sha256,
            "queries": query_count,
            "mutations": mutation_count,
        },
        "wall_s": round(wall_s, 3),
        "throughput": {
            "ops_per_s": round(metrics.requests / wall_s, 2) if wall_s else 0.0,
            "peak_1s_window_ops": metrics.peak_window_ops(),
            "rows_per_s": round(metrics.rows / wall_s, 2) if wall_s else 0.0,
        },
        "ops": ops,
        "ttfr_ms": metrics.ttfr.summary(),
        "ttk_ms": metrics.ttk.summary(),
        "rows": metrics.rows,
        "errors": {
            "total": metrics.error_count,
            "by_code": dict(sorted(metrics.errors.items())),
        },
        "validation": validation
        or {"enabled": False, "sampled_pages": 0, "mismatches": 0},
        "server": server or {},
        "slo": (
            evaluate_slos(metrics, slos)
            if slos
            else {"status": "ok", "slos": [], "windows_s": []}
        ),
    }


def _fmt_ms(value) -> str:
    return f"{value:8.2f}" if isinstance(value, (int, float)) else f"{'-':>8}"


def render_text(report: dict) -> str:
    """The human-facing rendering of :func:`build_report`'s dict."""
    lines = [
        "== repro-loadgen SLO report ==",
        (
            f"scenario: {report['scenario']}  seed={report['seed']}  "
            f"duration={report['duration_s']:g}s  "
            f"clients={report['clients']}  mode={report['mode']}"
        ),
        (
            f"trace:    {report['trace']['queries']} queries, "
            f"{report['trace']['mutations']} mutations  "
            f"(sha256 {report['trace']['sha256'][:12]}…)"
        ),
        (
            f"wall:     {report['wall_s']:g}s   "
            f"throughput {report['throughput']['ops_per_s']:g} op/s "
            f"(peak 1s window {report['throughput']['peak_1s_window_ops']} ops), "
            f"{report['throughput']['rows_per_s']:g} rows/s"
        ),
        "",
        f"{'op':<8} {'count':>7} {'p50':>8} {'p95':>8} {'p99':>8} "
        f"{'max':>8}  (ms)",
    ]
    sections = list(report["ops"].items()) + [
        ("ttfr", report["ttfr_ms"]),
        ("ttk", report["ttk_ms"]),
    ]
    for name, summary in sections:
        if not summary.get("count"):
            lines.append(f"{name:<8} {0:>7}")
            continue
        lines.append(
            f"{name:<8} {summary['count']:>7} "
            f"{_fmt_ms(summary.get('p50_ms'))} {_fmt_ms(summary.get('p95_ms'))} "
            f"{_fmt_ms(summary.get('p99_ms'))} {_fmt_ms(summary.get('max_ms'))}"
        )
    errors = report["errors"]
    lines.append("")
    if errors["total"]:
        detail = ", ".join(
            f"{code}={n}" for code, n in errors["by_code"].items()
        )
        lines.append(f"errors:   {errors['total']} ({detail})")
    else:
        lines.append("errors:   none")
    validation = report["validation"]
    if validation.get("enabled"):
        lines.append(
            f"validate: {validation['checked']}/{validation['sampled_pages']} "
            f"sampled pages replayed against serial recompute, "
            f"{validation['mismatches']} mismatches"
            + (
                f" ({validation['unverifiable']} unverifiable)"
                if validation.get("unverifiable")
                else ""
            )
        )
    else:
        lines.append("validate: off")
    server = report.get("server") or {}
    op_latency = server.get("op_latency_ms")
    if op_latency:
        parts = [
            f"{op} n={summary['count']} mean={summary['mean']:.2f} "
            f"max={summary['max']:.2f}"
            for op, summary in sorted(op_latency.items())
        ]
        lines.append("server:   " + " | ".join(parts))
    slo = report.get("slo")
    if slo and slo.get("slos"):
        lines.append("")
        lines.extend(render_slo_report(slo))
    return "\n".join(lines)
