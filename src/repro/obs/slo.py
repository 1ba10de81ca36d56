"""Declarative SLOs with multi-window burn-rate evaluation.

An *SLO spec* is one line of text declaring an objective over the
numbers the :class:`~repro.obs.registry.MetricsRegistry` already
collects::

    query_p99_ms<=25        # 99% of query requests complete in <= 25 ms
    ttf_ms<=5               # p99 (the default percentile) of in-engine TTF
    peak_mem_mb<=64         # 99% of cursors peak below 64 MB of engine state
    error_rate<=0.1%        # at most 0.1% of requests answer with an error
    availability>=99.9%     # at least 99.9% of requests succeed

Latency specs read the corresponding latency histogram
(``repro_op_latency_ms{op=...}`` for op names, ``repro_ttf_ms`` /
``repro_result_delay_ms`` for the in-engine indicators ``ttf`` and
``delay``); the *bad-event* count is the number of observations above
the threshold — computed with :meth:`Histogram.count_le`, whose
bucket-edge conservatism means a verdict can be pessimistic but never
optimistic.  Memory specs (the ``_mb`` suffix) work the same way over a
byte-valued histogram — ``peak_mem`` reads ``repro_mem_peak_bytes``,
the per-cursor peak distribution the space profiler feeds at cursor
retirement.  ``error_rate`` and ``availability`` read the request /
error totals.

Evaluation follows the SRE burn-rate model: each spec implies an error
*budget* (the allowed bad-event fraction — ``1 - q/100`` for a
percentile spec, the rate itself for ``error_rate``, the complement for
``availability``), and the **burn rate** of a time window is the
window's bad fraction divided by that budget.  Burn 1.0 means the
budget is being spent exactly as fast as it accrues; burn 10 means ten
times too fast.  :class:`SloEngine` keeps a pruned history of
cumulative-count snapshots and reports the burn over several rolling
windows at once; a spec only escalates when *every* window burns — the
multi-window AND that keeps one slow request from paging and a sustained
regression from hiding in a long average:

- ``page``: all windows burn at >= ``page_burn`` (default 10x)
- ``warn``: all windows burn at >= ``warn_burn`` (default 1x)
- ``ok``: otherwise

The engine is pull-driven — no background thread.  The server ticks it
(time-gated) per request and on every ``slo`` op; a single evaluation
with no history simply reports the since-start window everywhere.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from typing import Callable, Optional, Sequence

from repro.util.histogram import Histogram

#: Rolling windows (seconds) a deployment-grade evaluation looks at.
DEFAULT_WINDOWS_S: tuple[float, ...] = (60.0, 300.0, 3600.0)

#: Burn-rate thresholds for the warn / page verdicts.
WARN_BURN = 1.0
PAGE_BURN = 10.0

#: The specs ``repro-serve`` evaluates when none are configured —
#: deliberately generous (an unconfigured dev server should sit at
#: ``ok``), overridden wholesale by ``--slo``.
DEFAULT_SLOS: tuple[str, ...] = (
    "query_p99_ms<=250",
    "fetch_p99_ms<=250",
    "error_rate<=1%",
)

_LATENCY_RE = re.compile(
    r"^(?P<indicator>[a-z_][a-z0-9_]*?)(?:_p(?P<q>\d+(?:\.\d+)?))?_ms$"
)
_MEMORY_RE = re.compile(
    r"^(?P<indicator>[a-z_][a-z0-9_]*?)(?:_p(?P<q>\d+(?:\.\d+)?))?_mb$"
)
_SPEC_RE = re.compile(r"^\s*(?P<lhs>[^<>=\s]+)\s*(?P<cmp><=|>=)\s*(?P<rhs>[^\s]+)\s*$")


class SloError(ValueError):
    """A malformed SLO spec string."""


class SloSpec:
    """One parsed objective (see the module docstring for the grammar)."""

    __slots__ = ("raw", "kind", "indicator", "percentile", "threshold_ms", "budget")

    def __init__(
        self,
        raw: str,
        kind: str,
        indicator: str,
        percentile: Optional[float],
        threshold_ms: Optional[float],
        budget: float,
    ) -> None:
        self.raw = raw
        self.kind = kind  # 'latency' | 'memory' | 'error_rate' | 'availability'
        self.indicator = indicator
        self.percentile = percentile
        # Threshold in the indicator's spec unit: ms for latency specs,
        # MB for memory specs (converted to bytes at evaluation time).
        self.threshold_ms = threshold_ms
        self.budget = budget

    def objective(self) -> str:
        """A human-readable restatement of the spec."""
        if self.kind == "latency":
            return (
                f"p{self.percentile:g} of {self.indicator} latency "
                f"<= {self.threshold_ms:g} ms"
            )
        if self.kind == "memory":
            return (
                f"p{self.percentile:g} of per-cursor {self.indicator} "
                f"<= {self.threshold_ms:g} MB"
            )
        if self.kind == "error_rate":
            return f"error rate <= {self.budget * 100:g}%"
        return f"availability >= {(1.0 - self.budget) * 100:g}%"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SloSpec({self.raw!r})"


def parse_slo(raw: str) -> SloSpec:
    """Parse one spec string; raises :class:`SloError` with the reason."""
    match = _SPEC_RE.match(raw)
    if match is None:
        raise SloError(
            f"malformed SLO spec {raw!r}: expected "
            "'<indicator><=value', e.g. 'query_p99_ms<=25' or "
            "'error_rate<=0.1%'"
        )
    lhs, cmp_, rhs = match.group("lhs"), match.group("cmp"), match.group("rhs")
    percent = rhs.endswith("%")
    try:
        value = float(rhs[:-1] if percent else rhs)
    except ValueError:
        raise SloError(f"malformed SLO spec {raw!r}: {rhs!r} is not a number")
    if lhs == "error_rate":
        if cmp_ != "<=":
            raise SloError(f"{raw!r}: error_rate objectives use '<='")
        budget = value / 100.0 if percent else value
        if not 0.0 < budget < 1.0:
            raise SloError(f"{raw!r}: error budget must be in (0, 1)")
        return SloSpec(raw, "error_rate", "requests", None, None, budget)
    if lhs == "availability":
        if cmp_ != ">=":
            raise SloError(f"{raw!r}: availability objectives use '>='")
        target = value / 100.0 if percent else value
        if not 0.0 < target < 1.0:
            raise SloError(f"{raw!r}: availability target must be in (0, 1)")
        return SloSpec(raw, "availability", "requests", None, None, 1.0 - target)
    memory = _MEMORY_RE.match(lhs)
    if memory is not None:
        if cmp_ != "<=":
            raise SloError(f"{raw!r}: memory objectives use '<='")
        if percent:
            raise SloError(f"{raw!r}: memory thresholds are in MB, not percent")
        q = float(memory.group("q")) if memory.group("q") else 99.0
        if not 0.0 < q < 100.0:
            raise SloError(f"{raw!r}: percentile must be in (0, 100)")
        if value <= 0:
            raise SloError(f"{raw!r}: memory threshold must be positive")
        return SloSpec(
            raw, "memory", memory.group("indicator"), q, value, 1.0 - q / 100.0
        )
    latency = _LATENCY_RE.match(lhs)
    if latency is None:
        raise SloError(
            f"malformed SLO spec {raw!r}: unknown indicator {lhs!r} "
            "(expected '<op>_p<q>_ms', '<op>_ms', '<indicator>_mb', "
            "'error_rate', or 'availability')"
        )
    if cmp_ != "<=":
        raise SloError(f"{raw!r}: latency objectives use '<='")
    if percent:
        raise SloError(f"{raw!r}: latency thresholds are in ms, not percent")
    q = float(latency.group("q")) if latency.group("q") else 99.0
    if not 0.0 < q < 100.0:
        raise SloError(f"{raw!r}: percentile must be in (0, 100)")
    if value <= 0:
        raise SloError(f"{raw!r}: latency threshold must be positive")
    return SloSpec(raw, "latency", latency.group("indicator"), q, value, 1.0 - q / 100.0)


def parse_slos(raws: Sequence[str]) -> list[SloSpec]:
    return [parse_slo(raw) for raw in raws]


# ----------------------------------------------------------------------
# Counting
# ----------------------------------------------------------------------
def spec_counts(
    spec: SloSpec,
    histogram_for: Callable[[str], Optional[Histogram]],
    requests_errors: Callable[[], tuple[int, int]],
) -> tuple[int, int]:
    """``(total_events, bad_events)`` for one spec, right now.

    ``histogram_for`` maps a latency indicator (an op name, ``ttf``,
    ``delay``) to a merged :class:`Histogram` (or None when nothing was
    recorded); ``requests_errors`` returns cumulative request and error
    totals.  :class:`SloEngine`'s ``source`` applies it to every spec.
    """
    if spec.kind == "latency":
        hist = histogram_for(spec.indicator)
        if hist is None or hist.count == 0:
            return (0, 0)
        return (hist.count, hist.count - hist.count_le(spec.threshold_ms))
    if spec.kind == "memory":
        hist = histogram_for(spec.indicator)
        if hist is None or hist.count == 0:
            return (0, 0)
        threshold_bytes = spec.threshold_ms * 1024.0 * 1024.0
        return (hist.count, hist.count - hist.count_le(threshold_bytes))
    total, errors = requests_errors()
    return (total, min(errors, total))


def _burn(total: int, bad: int, budget: float) -> float:
    if total <= 0:
        return 0.0
    return (bad / total) / budget


def _verdict(burns: Sequence[float]) -> str:
    """Multi-window AND: escalate only when every window burns."""
    floor = min(burns) if burns else 0.0
    if floor >= PAGE_BURN:
        return "page"
    if floor >= WARN_BURN:
        return "warn"
    return "ok"


_STATUS_RANK = {"ok": 0, "warn": 1, "page": 2}


def worst_status(statuses: Sequence[str]) -> str:
    return max(statuses, key=lambda s: _STATUS_RANK.get(s, 0), default="ok")


class SloEngine:
    """Rolling multi-window burn-rate evaluation over live metrics.

    ``source`` returns the *cumulative* ``(total, bad)`` pair per spec
    (aligned with ``specs``); the engine snapshots it over time and
    diffs snapshots to get per-window counts.  History is pruned to the
    longest window, so memory is bounded by
    ``max(windows) / min_tick_interval_s`` snapshots.
    """

    def __init__(
        self,
        specs: Sequence[SloSpec],
        source: Callable[[], Sequence[tuple[int, int]]],
        windows_s: Sequence[float] = DEFAULT_WINDOWS_S,
        min_tick_interval_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not windows_s or any(w <= 0 for w in windows_s):
            raise ValueError("windows_s must be positive")
        self.specs = list(specs)
        self._source = source
        self.windows_s = tuple(sorted(windows_s))
        self._min_tick = min_tick_interval_s
        self._clock = clock
        self._lock = threading.Lock()
        self._history: "deque[tuple[float, list[tuple[int, int]]]]" = deque()
        self._last_tick = -float("inf")
        self.tick(force=True)

    def tick(self, force: bool = False) -> bool:
        """Snapshot cumulative counts (time-gated unless ``force``)."""
        now = self._clock()
        with self._lock:
            if not force and now - self._last_tick < self._min_tick:
                return False
            self._last_tick = now
        counts = [tuple(pair) for pair in self._source()]
        with self._lock:
            self._history.append((now, counts))
            horizon = now - self.windows_s[-1]
            # Keep one snapshot at or before the horizon as the oldest
            # baseline the longest window can diff against.
            while len(self._history) >= 2 and self._history[1][0] <= horizon:
                self._history.popleft()
        return True

    def _baseline(self, start: float) -> list[tuple[int, int]]:
        """The newest snapshot taken at or before ``start`` (falling back
        to the oldest — a short history widens the window to 'since
        start', never narrows it)."""
        chosen = self._history[0][1]
        for t, counts in self._history:
            if t <= start:
                chosen = counts
            else:
                break
        return chosen

    def evaluate(self) -> dict:
        """Per-spec burn rates over every window, plus the verdicts."""
        self.tick(force=True)
        with self._lock:
            now, current = self._history[-1]
            baselines = {
                window: self._baseline(now - window) for window in self.windows_s
            }
        slos = []
        for i, spec in enumerate(self.specs):
            total_now, bad_now = current[i]
            burns: dict[str, float] = {}
            for window in self.windows_s:
                total_then, bad_then = baselines[window][i]
                burns[f"{window:g}s"] = round(
                    _burn(total_now - total_then, bad_now - bad_then, spec.budget),
                    4,
                )
            slos.append(
                {
                    "spec": spec.raw,
                    "objective": spec.objective(),
                    "kind": spec.kind,
                    "budget": spec.budget,
                    "total": total_now,
                    "bad": bad_now,
                    "bad_fraction": (
                        round(bad_now / total_now, 6) if total_now else 0.0
                    ),
                    "burn_rates": burns,
                    "status": _verdict(list(burns.values())),
                }
            )
        return {
            "status": worst_status([s["status"] for s in slos]),
            "windows_s": list(self.windows_s),
            "warn_burn": WARN_BURN,
            "page_burn": PAGE_BURN,
            "slos": slos,
        }


def render_slo_report(report: dict) -> list[str]:
    """Text lines for one evaluation dict (the ``repro-obs`` summary)."""
    lines = [f"slo status: {report.get('status', 'ok')}"]
    for entry in report.get("slos", ()):
        burns = entry.get("burn_rates", {})
        shown = " ".join(f"{k}={v:g}x" for k, v in burns.items())
        lines.append(
            f"  [{entry['status']:>4}] {entry['spec']:<28} "
            f"bad {entry['bad']}/{entry['total']}  burn {shown}"
        )
    if not report.get("slos"):
        lines.append("  (no SLO specs configured)")
    return lines
