"""``--compare A [B]``: do two sets of runs agree within the bounds?

One row per (workload, end-to-end metric): both medians, each side's
interquartile range as a share of its median, the metric's bound, and a
verdict.  ``ok`` needs both spreads within the bound *and* the second
median no worse than the first by more than the bound; a spread wider
than the bound is ``unresolved`` whatever the medians say, because the
runs cannot tell a regression of that size from noise.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Optional

from bench import stats
from bench.measure import RAW_TWIN
from bench.metrics import END_TO_END
from bench.workloads import WORKLOADS


def load(path: str) -> dict[str, list[dict]]:
    """Untraced run records of ``path`` by workload, in file order."""
    runs: dict[str, list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs[record["workload"]].append(record)
    return runs


def verdict(
    first: list[float], second: list[float], better: str, bound: float
) -> tuple[str, float]:
    """``(ok | regressed | unresolved, relative worsening of the median)``."""
    base, other = stats.median(first), stats.median(second)
    change = (other - base) / base
    worsening = change if better == "lower" else -change
    if max(stats.spread(first), stats.spread(second)) > bound:
        return "unresolved", worsening
    return ("regressed" if worsening > bound else "ok"), worsening


def compare(path_a: str, path_b: Optional[str], raw: bool) -> tuple[str, bool]:
    """The table as text, and whether every row is ``ok``."""
    runs_a = load(path_a)
    runs_b = load(path_b) if path_b else {}
    lines = [
        f"{'workload':<16}{'metric':<20}{'median A':>12}{'median B':>12}"
        f"{'iqr/med A':>11}{'iqr/med B':>11}{'change':>9}{'bound':>7}  verdict"
    ]
    all_ok = True
    for workload in WORKLOADS:
        first, second = runs_a.get(workload.name, []), runs_b.get(workload.name, [])
        if not path_b:  # one file: its first half against its second
            half = len(first) // 2
            first, second = first[:half], first[half:]
        if not first or not second:
            lines.append(f"{workload.name:<16}no runs on one side")
            all_ok = False
            continue
        for metric in END_TO_END:
            key = RAW_TWIN[metric.name] if raw else metric.name
            source = "raw" if raw else "metrics"
            values_a = [run[source][key] for run in first]
            values_b = [run[source][key] for run in second]
            outcome, worsening = verdict(
                values_a, values_b, metric.better, metric.bound
            )
            all_ok = all_ok and outcome == "ok"
            lines.append(
                f"{workload.name:<16}{key:<20}"
                f"{stats.median(values_a):>12.4f}{stats.median(values_b):>12.4f}"
                f"{stats.spread(values_a):>11.3f}{stats.spread(values_b):>11.3f}"
                f"{worsening:>+9.3f}{metric.bound:>7.2f}  {outcome}"
            )
    return "\n".join(lines), all_ok
