"""Process-wide metrics registry: counters, gauges, histograms.

One model for every number the system publishes, unifying what used to
be three ad-hoc shapes — :class:`repro.util.counters.Counters`
(RAM-model work), the server's ``(count, total, max)`` op timers, and
the latency histograms — behind two exporters:

- :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` / sample lines, histograms
  with cumulative ``_bucket{le=...}`` series), servable verbatim by the
  ``metrics`` op;
- :meth:`MetricsRegistry.to_json` — the same samples as a nested dict
  for programmatic consumers (``repro-obs --json``, benchmarks).

Metric *families* carry optional label names; ``family.labels(op="query")``
returns the child for one label assignment (created on first use).  An
unlabeled family acts as its own single child, so the common case reads
``registry.counter("repro_queries_total").inc()``.

Thread-safety: one lock per family guards child creation and value
updates; exports snapshot under the same locks, so a reader racing
concurrent ``inc``/``observe`` calls sees internally consistent values.
*Collector callbacks* (:meth:`MetricsRegistry.add_collector`) pull
numbers that already live elsewhere — cursor-manager stats, plan-cache
info, ``Counters`` snapshots — at export time, so owners keep their
own synchronized state and nothing is double-counted.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from repro.util.histogram import DEFAULT_BOUNDS, Histogram

#: A collector yields ``(metric_name, labels_dict, value)`` gauge samples.
CollectorSample = tuple[str, dict, Union[int, float]]

_VALID_TYPES = ("counter", "gauge", "histogram")


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(
            f"invalid metric name {name!r} (Prometheus names are "
            "[a-zA-Z0-9_:]+)"
        )
    return name


def _render_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(str(value))}"' for key, value in labels.items()
    )
    return "{" + body + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: Union[int, float]) -> str:
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


class _Child:
    """Base for one labeled child of a family."""

    __slots__ = ("_lock",)

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock


class CounterChild(_Child):
    __slots__ = ("value",)

    def __init__(self, lock: threading.Lock) -> None:
        super().__init__(lock)
        self.value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount


class GaugeChild(_Child):
    __slots__ = ("value", "callback")

    def __init__(
        self, lock: threading.Lock, callback: Optional[Callable[[], float]] = None
    ) -> None:
        super().__init__(lock)
        self.value = 0.0
        self.callback = callback

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        self.inc(-amount)

    def read(self) -> Union[int, float]:
        if self.callback is not None:
            return self.callback()
        with self._lock:
            return self.value


class HistogramChild(_Child):
    __slots__ = ("histogram",)

    def __init__(self, lock: threading.Lock, bounds: Sequence[float]) -> None:
        super().__init__(lock)
        self.histogram = Histogram(bounds)

    def observe(self, value: float) -> None:
        with self._lock:
            self.histogram.record(value)

    def merge_histogram(self, other: Histogram) -> None:
        """Fold an externally-built histogram (a worker's, a cursor's)."""
        with self._lock:
            self.histogram.merge(other)

    def summary(self) -> dict:
        with self._lock:
            return self.histogram.summary()

    def copy(self) -> Histogram:
        """An independent :class:`Histogram` clone, taken under the lock
        (the SLO engine diffs such clones to get per-window counts)."""
        with self._lock:
            return self.histogram.copy()


class MetricFamily:
    """One named metric with optional label dimensions."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: tuple[str, ...],
        bounds: Sequence[float] = DEFAULT_BOUNDS,
    ) -> None:
        assert kind in _VALID_TYPES
        self.name = _validate_name(name)
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self._bounds = tuple(bounds)
        self._lock = threading.Lock()
        self._children: dict[tuple, Any] = {}
        if not labelnames:
            self._default = self._make_child()
            self._children[()] = self._default
        else:
            self._default = None

    def _make_child(self, callback: Optional[Callable[[], float]] = None):
        if self.kind == "counter":
            return CounterChild(self._lock)
        if self.kind == "gauge":
            return GaugeChild(self._lock, callback)
        return HistogramChild(self._lock, self._bounds)

    def labels(self, **labels: Any):
        """The child for one label assignment (created on first use)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
        return child

    # Unlabeled convenience pass-throughs ------------------------------
    def _only(self):
        if self._default is None:
            raise ValueError(
                f"metric {self.name!r} is labeled ({self.labelnames}); "
                "call .labels(...) first"
            )
        return self._default

    def inc(self, amount: Union[int, float] = 1) -> None:
        self._only().inc(amount)

    def set(self, value: Union[int, float]) -> None:
        self._only().set(value)

    def dec(self, amount: Union[int, float] = 1) -> None:
        self._only().dec(amount)

    def observe(self, value: float) -> None:
        self._only().observe(value)

    def children(self) -> list[tuple[dict, Any]]:
        """``(labels_dict, child)`` pairs, snapshot under the lock."""
        with self._lock:
            items = list(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child) for key, child in items
        ]


class MetricsRegistry:
    """A named collection of metric families plus pull-time collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "dict[str, MetricFamily]" = {}
        self._collectors: list[Callable[[], Iterable[CollectorSample]]] = []

    # ------------------------------------------------------------------
    # Registration (idempotent per name; conflicting kinds are an error)
    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: tuple[str, ...],
        bounds: Sequence[float] = DEFAULT_BOUNDS,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels {family.labelnames}"
                    )
                return family
            family = MetricFamily(name, kind, help_text, labelnames, bounds)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, "counter", help_text, tuple(labelnames))

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        callback: Optional[Callable[[], float]] = None,
    ) -> MetricFamily:
        family = self._family(name, "gauge", help_text, tuple(labelnames))
        if callback is not None:
            if family.labelnames:
                raise ValueError("callback gauges cannot be labeled")
            family._default.callback = callback
        return family

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        bounds: Sequence[float] = DEFAULT_BOUNDS,
    ) -> MetricFamily:
        return self._family(name, "histogram", help_text, tuple(labelnames), bounds)

    def add_collector(
        self, fn: Callable[[], Iterable[CollectorSample]]
    ) -> None:
        """Register a pull-time sample source (exported as gauges)."""
        with self._lock:
            self._collectors.append(fn)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _families_snapshot(self) -> list[MetricFamily]:
        with self._lock:
            return list(self._families.values())

    def _collector_samples(self) -> list[CollectorSample]:
        with self._lock:
            collectors = list(self._collectors)
        samples: list[CollectorSample] = []
        for fn in collectors:
            try:
                samples.extend(fn())
            except Exception:  # a broken collector must not kill export
                continue
        return samples

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: list[str] = []
        for family in self._families_snapshot():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, child in family.children():
                if family.kind == "counter":
                    with family._lock:
                        value = child.value
                    lines.append(
                        f"{family.name}{_render_labels(labels)} {_fmt(value)}"
                    )
                elif family.kind == "gauge":
                    lines.append(
                        f"{family.name}{_render_labels(labels)} "
                        f"{_fmt(child.read())}"
                    )
                else:
                    lines.extend(_render_histogram(family.name, labels, child))
        collected = self._collector_samples()
        seen_names: list[str] = []
        for name, labels, value in collected:
            if name not in seen_names:
                seen_names.append(name)
                lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name}{_render_labels(labels)} {_fmt(value)}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        """The same samples as a nested JSON-ready dict."""
        out: dict[str, Any] = {}
        for family in self._families_snapshot():
            entry: dict[str, Any] = {"type": family.kind, "help": family.help}
            samples = []
            for labels, child in family.children():
                if family.kind == "counter":
                    with family._lock:
                        value = child.value
                    samples.append({"labels": labels, "value": value})
                elif family.kind == "gauge":
                    samples.append({"labels": labels, "value": child.read()})
                else:
                    samples.append({"labels": labels, **child.summary()})
            entry["samples"] = samples
            out[family.name] = entry
        for name, labels, value in self._collector_samples():
            entry = out.setdefault(
                name, {"type": "gauge", "help": "", "samples": []}
            )
            entry["samples"].append({"labels": labels, "value": value})
        return out


def _render_histogram(name: str, labels: dict, child: HistogramChild) -> list[str]:
    with child._lock:
        bounds = child.histogram.bounds
        buckets = list(child.histogram.buckets)
        count = child.histogram.count
        total = child.histogram.total
    lines = []
    cumulative = 0
    for edge, n in zip(bounds, buckets):
        cumulative += n
        le_labels = dict(labels)
        le_labels["le"] = _fmt(edge)
        lines.append(f"{name}_bucket{_render_labels(le_labels)} {cumulative}")
    inf_labels = dict(labels)
    inf_labels["le"] = "+Inf"
    lines.append(f"{name}_bucket{_render_labels(inf_labels)} {count}")
    lines.append(f"{name}_sum{_render_labels(labels)} {_fmt(total)}")
    lines.append(f"{name}_count{_render_labels(labels)} {count}")
    return lines
