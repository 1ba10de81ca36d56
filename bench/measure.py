"""What a measuring window collects, and the metrics computed from it.

A *slice* is the stretch between two calibration bursts: one engine
operation with its ``gc.collect()``, or one round of wire sessions.  A
*session* is one SQL statement taken from text to its k-th row.  Sessions
give the latency metrics, slices the throughput; both are scaled by their
slice's calibration factor before any percentile is taken.  The loop that
fills a window must run one burst before the first slice and one after
every slice, so that slice ``i`` lies between bursts ``i`` and ``i + 1``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from bench import BenchError, stats
from bench.calibrate import Calibrator

@dataclass
class RunResult:
    """One run's outcome: the contract's four fields plus bookkeeping."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    #: Un-normalised twins of the end-to-end metrics (``--out`` files keep
    #: them so ``--compare --raw`` can show what normalisation buys).
    raw: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    #: What a correctness check or a failed request complained about.
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


_END_TO_END = {
    "ttf_p50": "ttf_ref_ms_p50",
    "ttk_p50": "ttk_ref_ms_p50",
    "ttk_p90": "ttk_ref_ms_p90",
    "delay_p50": "delay_ref_us_p50",
    "throughput": "results_per_ref_s",
}

#: The un-normalised twin of each end-to-end metric.
_RAW = {
    "ttf_p50": "raw.ttf_ms_p50",
    "ttk_p50": "raw.ttk_ms_p50",
    "ttk_p90": "raw.ttk_ms_p90",
    "delay_p50": "raw.delay_us_p50",
    "throughput": "raw.results_per_s",
}

RAW_TWIN = {_END_TO_END[key]: _RAW[key] for key in _END_TO_END} | {
    "setup_s": "raw.setup_s",
    "peak_rss_mb": "raw.peak_rss_mb",
}


class Window:
    """Samples of one measuring window."""

    def __init__(self) -> None:
        self.calibrator = Calibrator()
        #: ``(ttf_ms, ttk_ms, results_after_first, slice index)`` per session.
        self.sessions: list[tuple[float, float, int, int]] = []
        #: ``(busy_s, results)`` per slice.
        self.slices: list[tuple[float, int]] = []
        self.started = time.perf_counter()
        self.ended = self.started

    def close(self) -> None:
        self.ended = time.perf_counter()
        if len(self.calibrator.bursts_ms) != len(self.slices) + 1:
            raise BenchError(
                f"{len(self.slices)} slices need {len(self.slices) + 1} bursts, "
                f"the loop ran {len(self.calibrator.bursts_ms)}"
            )

    # ------------------------------------------------------------------
    def _series(self, normalised: bool) -> dict[str, list[float]]:
        ttf, ttk, delay = [], [], []
        for ttf_ms, ttk_ms, later, index in self.sessions:
            scale = self.calibrator.factor(index) if normalised else 1.0
            ttf.append(ttf_ms * scale)
            ttk.append(ttk_ms * scale)
            if later > 0:
                delay.append((ttk_ms - ttf_ms) * scale * 1000.0 / later)
        return {"ttf": ttf, "ttk": ttk, "delay": delay}

    def _throughput(self, normalised: bool) -> float:
        """Results per second of busy time, median over the slices.

        The ratio of the window's totals would let a few disturbed slices
        (the machine, not the program) move the whole number.
        """
        return stats.median(
            [
                count
                / (busy_s * (self.calibrator.factor(index) if normalised else 1.0))
                for index, (busy_s, count) in enumerate(self.slices)
                if count
            ]
        )

    def summary(self, normalised: bool, strict_tail: bool) -> dict[str, float]:
        """Latency and throughput of the window, in reference units or as
        the wall clock gave them.  ``strict_tail`` refuses a p90 with fewer
        than ten samples beyond it; the traced run, which spends half its
        time here, takes the plain nearest-rank value instead."""
        series = self._series(normalised)
        tail = stats.strict_percentile if strict_tail else stats.percentile
        return {
            "ttf_p50": stats.percentile(series["ttf"], 50),
            "ttk_p50": stats.percentile(series["ttk"], 50),
            "ttk_p90": tail(series["ttk"], 90),
            "delay_p50": stats.percentile(series["delay"], 50),
            "throughput": self._throughput(normalised),
        }

    def end_to_end(self, strict_tail: bool) -> dict[str, float]:
        summary = self.summary(normalised=True, strict_tail=strict_tail)
        return {name: summary[key] for key, name in _END_TO_END.items()}

    def raw(self, strict_tail: bool) -> dict[str, float]:
        summary = self.summary(normalised=False, strict_tail=strict_tail)
        return {name: summary[key] for key, name in _RAW.items()}

    def calibration(self) -> dict[str, float]:
        bursts = self.calibrator.bursts_ms
        return {
            "cal.ms_p50": stats.median(bursts),
            "cal.spread": stats.spread(bursts),
            "cal.overhead_share": self.calibrator.busy_s
            / (self.ended - self.started),
        }


class SetupClock:
    """Times set-up stages, each bracketed by calibration bursts."""

    def __init__(self) -> None:
        self._calibrator = Calibrator()
        self._calibrator.mark()
        self._stages_s: list[float] = []
        self._started = time.perf_counter()

    def stage_done(self) -> None:
        """Close the stage that began at construction or the last call."""
        self._stages_s.append(time.perf_counter() - self._started)
        self._calibrator.mark()
        self._started = time.perf_counter()

    @property
    def raw_s(self) -> float:
        return sum(self._stages_s)

    @property
    def ref_s(self) -> float:
        return sum(
            elapsed * self._calibrator.factor(index)
            for index, elapsed in enumerate(self._stages_s)
        )


def setup_metrics(once: SetupClock, repeats: list[SetupClock]) -> dict:
    """``setup_s`` and its raw twin: what is paid once per process (the
    imports) plus the median of the repeated set-ups."""
    return {
        "setup_s": once.ref_s + stats.median([c.ref_s for c in repeats]),
        "raw.setup_s": once.raw_s + stats.median([c.raw_s for c in repeats]),
    }


def end_to_end_metrics(
    window: Window, setup: dict, strict_tail: bool, peak_rss_mb: float
) -> tuple[dict[str, float], dict[str, float]]:
    """An untraced run's metrics and their un-normalised twins."""
    metrics = {
        "setup_s": setup["setup_s"],
        **window.end_to_end(strict_tail),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        **window.raw(strict_tail),
        "raw.setup_s": setup["raw.setup_s"],
        "raw.peak_rss_mb": peak_rss_mb,
    }
    return metrics, raw


def shared_layer_metrics(window: Window, setup: dict) -> dict[str, float]:
    """The ``raw.*`` and ``cal.*`` metrics every traced run reports, from
    the untraced part of its window."""
    raw = {**window.raw(strict_tail=False), "raw.setup_s": setup["raw.setup_s"]}
    del raw["raw.delay_us_p50"]  # a twin for --compare --raw, not declared
    return {**raw, **window.calibration()}
