"""Shared helpers for the benchmark harness.

Every bench prints its series as an aligned table (the "rows the paper
reports") and uses pytest-benchmark for one representative wall-clock
measurement.  Operation counts are the primary series — the repro band for
this paper notes that pure-Python timings are not comparable to the
authors' Java testbed, while RAM-model counts transfer.
"""

from __future__ import annotations

from typing import Sequence


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Aligned fixed-width table to stdout."""
    print(f"\n== {title} ==")
    widths = [
        max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    print(" | ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    print("-+-".join("-" * w for w in widths))
    for row in rows:
        print(" | ".join(_fmt(v).rjust(w) for v, w in zip(row, widths)))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
