"""The benchmark's unit of time: a frozen calibration kernel.

This VM's speed drifts by 10-20 % on a seconds timescale, so a raw
wall-clock latency says as much about the moment it was taken as about
the code.  Every timing the benchmark reports is therefore expressed in
*reference* units: the wall time of a slice, multiplied by
``CAL_REF_MS / cal_ms``, where ``cal_ms`` is the mean of the two bursts of
:func:`kernel` that bracket the slice.  ``CAL_REF_MS`` is the kernel's
median burst on the reference box, so 1 ref-ms is about 1 ms there.

The kernel mixes tuple, dict, list and heapq work over a working set of a
few thousand entries because that is what the engines do (the issue's
scratch study found an arithmetic loop tracked them worse).

FROZEN: this file defines the unit every committed number is in.  Its
sha256 is pinned in ``bench/__init__.py`` and checked at start-up, so
the unit cannot change without the pin changing in the same diff.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

#: Median burst (faster of two kernel runs) on the reference box, in ms.
CAL_REF_MS = 4.2

#: Iterations of the kernel loop (~4.2 ms on the reference box).
KERNEL_ITERATIONS = 5000

#: What :func:`kernel` must return; a different value means the kernel
#: (or the interpreter's integer/heap semantics) is not the frozen one.
KERNEL_CHECKSUM = 1526811


def kernel() -> int:
    """One fixed burst of engine-like work; returns a checksum."""
    table: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    rows: list[tuple[int, int, int]] = []
    x = 12345
    for i in range(KERNEL_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 4095
        rows.append((key, i, x))
        table[key] = table.get(key, 0) + (x & 255)
        heappush(heap, (x & 0xFFFF, i))
        if len(heap) > 512:
            heappop(heap)
    return sum(row[0] for row in rows[::7]) + len(table) + len(heap)


def burst() -> float:
    """Milliseconds of the faster of two kernel runs.

    The minimum of two discards a run that was descheduled; what is left
    is the machine's speed while it runs.  (Counting both runs and
    averaging over eight bursts follows injected pauses better on the
    in-process workloads — 1 % against 6 % — but over-corrected the wire
    workloads, which mostly wait, by 17 % in a real noisy phase: README.md,
    "Noise study".)
    """
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best * 1000.0


class Calibrator:
    """Brackets slices with bursts and turns wall time into reference time.

    ``mark()`` runs one burst; slice ``i`` is the stretch between burst
    ``i`` and burst ``i + 1``, so consecutive slices share a burst and N
    slices cost N + 1 bursts.
    """

    def __init__(self) -> None:
        self.bursts_ms: list[float] = []
        self.busy_s = 0.0

    def mark(self) -> None:
        started = time.perf_counter()
        self.bursts_ms.append(burst())
        self.busy_s += time.perf_counter() - started

    def factor(self, slice_index: int) -> float:
        """Reference time per wall time for slice ``slice_index``:
        ``CAL_REF_MS`` over the mean of the two bursts that bracket it."""
        before, after = self.bursts_ms[slice_index : slice_index + 2]
        return CAL_REF_MS / ((before + after) / 2.0)
