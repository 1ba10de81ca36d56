"""In-process workloads: ``path_part``, ``path_rec``, ``cycle_topk``.

One operation is what a library user does: ``repro.sql.query`` on SQL
text, ``next`` for the first ranked row, ``fetchall`` for the rest.  Every
operation is bracketed by calibration bursts and followed by a
``gc.collect()`` that is timed apart from the latency but counted in the
throughput, and automatic gen-2 collections are held off while the loop
runs, so each operation starts from a collected heap and none carries a
full collection (~25 ms on this heap) at a point its seed decides.

The traced run replays the same pipeline step by step through the public
functions ``repro.sql.query`` itself calls, with a span around each, and
checks that the replayed stream is the measured one.
"""

from __future__ import annotations

import gc
import itertools
import resource
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from bench import BenchError, oracle, stats, workloads
from bench.calibrate import Calibrator
from bench.measure import (
    RunResult,
    SetupClock,
    Window,
    end_to_end_metrics,
    setup_metrics,
    shared_layer_metrics,
)
from bench.metrics import PER_LAYER_NAMES
from bench.spans import SpanRecorder

#: Share of a traced run's seconds spent on the untraced loop (the
#: baseline of ``trace.overhead_share`` and the ``raw.*`` series).
UNTRACED_SHARE = 0.5


def _gen2_collections() -> int:
    return gc.get_stats()[2]["collections"]


@contextmanager
def full_collections_only_between_operations() -> Iterator[None]:
    """Keep the interpreter from starting a gen-2 collection by itself.

    With the default thresholds every operation here carries exactly one
    automatic full collection (~25 ms), and whether it falls before or
    after the first row depends on the seed's allocation count: the same
    code then shows a 13 or a 36 ref-us delay.  Inside this block full
    collections happen only where the loop asks for them — once after
    every operation, timed on its own — and young collections run as
    usual.  ``gc.gen2_in_op_share`` checks that it worked.
    """
    young, middle, old = gc.get_threshold()
    gc.set_threshold(young, middle, 1 << 30)
    try:
        yield
    finally:
        gc.set_threshold(young, middle, old)


def _enumerator(engine: str) -> Callable:
    from repro.anyk.part import anyk_part
    from repro.anyk.rec import anyk_rec

    if engine == "rec":
        return anyk_rec
    if engine.startswith("part:"):
        strategy = engine.split(":", 1)[1]
        return lambda tdp: anyk_part(tdp, strategy=strategy)
    raise BenchError(f"no step-by-step replay for engine {engine!r}")


def replay(
    db,
    sql: str,
    engine: Optional[str],
    recorder: SpanRecorder,
    op: int,
    counters=None,
) -> list:
    """``repro.sql.query(db, sql, engine).fetchall()`` taken apart.

    The steps are the ones ``query`` -> ``execute`` -> ``rank_enumerate``
    run for an any-k engine on an acyclic query or a 4-cycle, each under
    its own span inside one ``op`` span.  ``filtered_database`` runs
    inside ``plan_compiled``; it is timed again on its own, outside the
    ``op`` span, so its cost is visible without being counted twice.
    """
    from repro.anyk.cyclic import enumerate_union_of_trees, is_fourcycle
    from repro.anyk.kernels import install_kernels
    from repro.anyk.ranking import stabilize_ties
    from repro.anyk.tdp import TDP
    from repro.engine.executor import filtered_database
    from repro.engine.planner import plan_compiled
    from repro.joins.heavylight import fourcycle_union_of_trees
    from repro.query.hypergraph import gyo_reduction
    from repro.sql import SqlResult
    from repro.sql.analyzer import analyze

    span = recorder.span
    with span("op", op=op):
        with span("sql.analyze"):
            compiled = analyze(db, sql)
        with span("engine.plan"):
            plan = plan_compiled(db, compiled, engine=engine)
        working, query = plan.working_db, plan.working_cq
        enumerator = _enumerator(plan.engine)
        with span("anyk.tdp.build"):
            tree = gyo_reduction(query)
            if tree is not None:
                tdp = TDP(
                    working,
                    query,
                    ranking=compiled.ranking,
                    tree=tree,
                    counters=counters,
                )
        if tree is not None:
            with span("anyk.kernels.install"):
                install_kernels(tdp, slot=plan.kernel_slot, engine=plan.engine)
            ranked = enumerator(tdp)
            first_span, drain_span = "anyk.enum.first", "anyk.enum.drain"
        elif is_fourcycle(query):
            with span("joins.heavylight.build"):
                trees = fourcycle_union_of_trees(
                    working,
                    query,
                    combine=compiled.ranking.float_combine(),
                    counters=counters,
                )
            ranked = enumerate_union_of_trees(
                trees,
                query.variables,
                compiled.ranking,
                enumerator,
                counters=counters,
            )
            first_span, drain_span = "anyk.cyclic.first", "anyk.cyclic.drain"
        else:
            raise BenchError(f"no step-by-step replay for {query}")
        result = SqlResult(
            compiled,
            plan,
            itertools.islice(stabilize_ties(ranked), compiled.k),
        )
        with span(first_span):
            rows = [next(result)]
        with span(drain_span):
            rows.extend(result)
    with span("engine.filter", op=op):
        filtered_database(db, compiled, negate=False)
    return rows


class EngineRun:
    """State of one engine-workload run."""

    def __init__(self, name: str, sizes: workloads.Sizes, seed: int) -> None:
        self.name = name
        self.sizes = sizes
        self.seed = seed
        self.engine = workloads.BY_NAME[name].engine
        self.sql = workloads.engine_sql(name, sizes)
        self.k = sizes.cycle_k if name == "cycle_topk" else sizes.path_k
        self.db: Any = None
        self.reference: Optional[list] = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.gen2_in_op = 0
        #: Seconds of the ``gc.collect()`` closing each slice of the
        #: untraced window (same indices as the window's slices).
        self.collect_s: list[float] = []

    # -- set-up ----------------------------------------------------------
    def set_up(self) -> dict:
        """Imports once, then data generation + warm-up a few times."""
        once = SetupClock()
        import repro.sql  # noqa: F401  (the imports are the stage)
        from repro.anyk.kernels import clear_kernel_cache
        from repro.data import generators  # noqa: F401

        once.stage_done()
        repeats = []
        for _ in range(self.sizes.setup_repeats):
            # A warm-up that finds the compiled kernel template cached
            # would be cheaper than the first one a user pays.
            clear_kernel_cache()
            clock = SetupClock()
            self.db = workloads.engine_database(self.name, self.sizes, self.seed)
            clock.stage_done()
            self.reference = self.query()[2]
            clock.stage_done()
            repeats.append(clock)
        return setup_metrics(once, repeats)

    # -- one operation -----------------------------------------------------
    def query(self) -> tuple[float, float, list]:
        """``(ttf_s, ttk_s, rows)`` of one untraced operation."""
        import repro.sql

        started = time.perf_counter()
        result = repro.sql.query(self.db, self.sql, engine=self.engine)
        rows = [next(result)]
        first = time.perf_counter()
        rows.extend(result)
        return first - started, time.perf_counter() - started, rows

    def _collect(self) -> float:
        started = time.perf_counter()
        gc.collect()
        return time.perf_counter() - started

    def _check(self, rows: list) -> None:
        self.attempted += 1
        if rows != self.reference:
            self.failed += 1
            self.problems.append(
                f"operation {self.attempted} did not repeat the first stream"
            )

    def measure(self, seconds: float, min_operations: int = 0) -> Window:
        """The untraced closed loop: ``seconds`` long, and up to as long
        again while fewer than ``min_operations`` have completed (a phase
        in which the machine runs at half speed must not cost the run its
        p90)."""
        window = Window()
        deadline = window.started + seconds
        gc.collect()
        window.calibrator.mark()
        with full_collections_only_between_operations():
            while time.perf_counter() < deadline or (
                len(window.slices) < min_operations
                and time.perf_counter() < deadline + seconds
            ):
                gen2 = _gen2_collections()
                ttf_s, ttk_s, rows = self.query()
                if _gen2_collections() > gen2:
                    self.gen2_in_op += 1
                self._check(rows)
                del rows
                collect_s = self._collect()
                window.calibrator.mark()
                window.sessions.append(
                    (ttf_s * 1000.0, ttk_s * 1000.0, self.k - 1, len(window.slices))
                )
                window.slices.append((ttk_s + collect_s, self.k))
                self.collect_s.append(collect_s)
        window.close()
        return window

    def measure_traced(
        self, seconds: float, recorder: SpanRecorder
    ) -> dict[int, float]:
        """The step-by-step loop; returns ``op -> calibration factor``."""
        calibrator = Calibrator()
        deadline = time.perf_counter() + seconds
        gc.collect()
        calibrator.mark()
        with full_collections_only_between_operations():
            for op in itertools.count():
                if op and time.perf_counter() >= deadline:
                    break
                self._check(
                    replay(self.db, self.sql, self.engine, recorder, op)
                )
                self._collect()
                calibrator.mark()
        return {slice_: calibrator.factor(slice_) for slice_ in range(op)}

    # -- correctness -----------------------------------------------------
    def verify(self) -> None:
        """The measured stream against batch and against the replay."""
        reference = oracle.batch_reference(
            self.db, self.sql, self.reference, prune_path=self.name != "cycle_topk"
        )
        self.problems.extend(
            f"against batch: {problem}"
            for problem in oracle.check_topk(self.reference, reference, self.k)
        )
        replayed = replay(self.db, self.sql, self.engine, SpanRecorder(), 0)
        if replayed != self.reference:
            self.problems.append("the step-by-step replay gave another stream")

    def counters(self) -> dict[str, float]:
        """RAM-model counts of one replayed operation (exact per seed)."""
        from repro.util.counters import Counters

        snapshots = []
        for _ in range(2):
            counters = Counters()
            replay(self.db, self.sql, self.engine, SpanRecorder(), 0, counters)
            snapshots.append(counters.snapshot())
        if snapshots[0] != snapshots[1]:
            self.problems.append("operation counts differ between two replays")
        counts = snapshots[0]
        return {
            "util.counters.tuples_read": counts["tuples_read"],
            "util.counters.intermediate_tuples": counts["intermediate_tuples"],
            "util.counters.hash_probes": counts["hash_probes"],
            "util.counters.heap_ops_per_result": counts["heap_ops"] / self.k,
            "util.counters.comparisons_per_result": counts["comparisons"]
            / self.k,
            "util.counters.total_work": counts["total_work"],
        }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_metrics(
    state: EngineRun,
    window: Window,
    recorder: SpanRecorder,
    scale: dict[int, float],
    kernel_counts: dict,
) -> dict[str, float]:
    """The per-layer metrics of a traced run (0 where a layer is not on
    this workload's path)."""
    self_ms = recorder.self_ms(scale)
    op_ms = recorder.total_ms(scale)["op"]

    metrics = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    for span_name, values in self_ms.items():
        if f"{span_name}_ms_p50" in metrics:
            metrics[f"{span_name}_ms_p50"] = stats.percentile(values, 50)
    metrics["anyk.enum.delay_us_p50"] = (
        metrics["anyk.enum.drain_ms_p50"] * 1000.0 / (state.k - 1)
    )
    installs = sum(counts["installs"] for counts in kernel_counts.values())
    if installs:
        metrics["anyk.kernels.template_hit_rate"] = (
            sum(
                counts["template_hits"] + counts["slot_hits"]
                for counts in kernel_counts.values()
            )
            / installs
        )
    metrics.update(state.counters())
    metrics["gc.collect_ms_p50"] = stats.percentile(
        [
            collect_s * 1000.0 * window.calibrator.factor(index)
            for index, collect_s in enumerate(state.collect_s)
        ],
        50,
    )
    metrics["gc.gen2_in_op_share"] = state.gen2_in_op / len(window.sessions)
    # The steps are the op span's only children, so what they account
    # for is the op's duration minus its self time.
    metrics["engine.accounted_share"] = stats.percentile(
        [1.0 - own / whole for own, whole in zip(self_ms["op"], op_ms)], 50
    )
    untraced = window.summary(normalised=True, strict_tail=False)
    metrics["trace.overhead_share"] = (
        stats.percentile(op_ms, 50) / untraced["ttk_p50"] - 1.0
    )
    return metrics


def run(
    name: str,
    sizes: workloads.Sizes,
    seed: int,
    seconds: float,
    trace: bool,
    trace_out: Optional[str] = None,
) -> RunResult:
    state = EngineRun(name, sizes, seed)
    setup = state.set_up()
    info = {
        "trace_sha256": workloads.trace_sha256(
            workloads.engine_trace(name, sizes, seed, state.db)
        ),
        "engine": state.engine or "router",
        "k": state.k,
    }
    if trace:
        from repro.anyk.kernels import kernel_stats, reset_kernel_stats

        window = state.measure(seconds * UNTRACED_SHARE)
        recorder = SpanRecorder()
        reset_kernel_stats()
        scale = state.measure_traced(
            seconds * (1.0 - UNTRACED_SHARE), recorder
        )
        metrics = _layer_metrics(
            state, window, recorder, scale, kernel_stats()
        )
        metrics.update(shared_layer_metrics(window, setup))
        raw = {}
        info["traced_operations"] = len(scale)
        if trace_out:
            recorder.write(trace_out)
    else:
        window = state.measure(
            seconds, stats.P90_MIN_SAMPLES if sizes.strict_tail else 0
        )
        metrics, raw = end_to_end_metrics(
            window, setup, sizes.strict_tail, _peak_rss_mb()
        )
    info["operations"] = len(window.sessions)
    state.verify()
    return RunResult(
        attempted=state.attempted,
        failed=state.failed,
        metrics=metrics,
        raw=raw,
        info=info,
        problems=state.problems,
    )
