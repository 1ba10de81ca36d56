"""EXPLAIN ANALYZE: run the statement, report where the time went.

Plain ``EXPLAIN`` (:func:`repro.sql.explain`) renders the routing
decision without executing.  ``EXPLAIN ANALYZE`` runs the statement to
completion (honoring its LIMIT) and reports what actually happened:

- per-stage wall time — parse, semantic analysis, routing (which
  includes σ-pushdown materialization), and enumeration;
- per-operator attribution — every scan with its base and post-filter
  cardinalities, the enumeration operator with tuples produced;
- the anytime-delay profile (:mod:`repro.obs.delay`): TTF, TT(k), and
  inter-result delay percentiles measured inside the engine, with
  per-shard worker attribution for parallel plans;
- the space profile (:mod:`repro.obs.memory`): per-category live/peak
  entry counts of the engine structures the run built;
- planner feedback: the routing-time cardinality estimate (the AGM
  bound) next to the rows actually produced, with the Q-error between
  them (flagged ``truncated`` when LIMIT cut the run short — a
  truncated count says nothing about the true cardinality);
- the RAM-model counters the engines maintain anyway.

The report is a plain JSON-ready dict (:func:`run_analyze`; the server
runs its own plan through the same :func:`analyze_plan`) with a text
rendering (:func:`render_analyze`) — the server's ``explain`` op ships
the dict and the CLIs render it, so both views can never disagree.
"""

from __future__ import annotations

import time
from typing import Any, Optional, TYPE_CHECKING

from repro.data.database import Database
from repro.obs.delay import DelayProfile
from repro.obs.memory import MemoryProfile
from repro.obs.trace import tracer
from repro.util.counters import Counters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.planner import Plan
    from repro.sql.analyzer import CompiledQuery


def _scan_operators(
    db: Database, compiled: "CompiledQuery", plan: "Plan"
) -> list[dict]:
    """One entry per FROM atom: base vs. post-σ cardinality.

    The working instance the plan was costed on names filtered copies
    ``<relation>__sigma<i>``; pairing its atoms with the original query's
    atoms recovers exactly which scans the pushdown touched and what
    each one's selectivity turned out to be.
    """
    working_db, working_cq = plan.working_db, plan.working_cq
    if working_db is None or working_cq is None:
        from repro.engine.executor import filtered_database

        working_db, working_cq = filtered_database(db, compiled)
    aliases = list(compiled.alias_to_relation)
    operators = []
    for index, (base_atom, work_atom) in enumerate(
        zip(compiled.cq.atoms, working_cq.atoms)
    ):
        alias = aliases[index] if index < len(aliases) else base_atom.relation
        base_rows = len(db[base_atom.relation])
        scan_rows = len(working_db[work_atom.relation])
        entry = {
            "operator": "scan",
            "relation": base_atom.relation,
            "alias": alias,
            "base_rows": base_rows,
            "rows": scan_rows,
        }
        filters = [f for f in compiled.filters if f.table == alias]
        if filters:
            entry["operator"] = "scan+filter"
            entry["filters"] = [str(f) for f in filters]
        operators.append(entry)
    return operators


def analyze_plan(
    db: Database,
    compiled: "CompiledQuery",
    plan: "Plan",
    stages_ms: dict,
    started: float,
    counters: Counters,
    profile: DelayProfile,
    memory: MemoryProfile,
    cache: Optional[dict] = None,
) -> dict:
    """Run a routed ``plan`` to completion and build its report.

    The one execute-and-measure path of EXPLAIN ANALYZE, shared by
    :func:`run_analyze` (the library path) and the server's ``explain``
    op with ``analyze=True`` (which measures around its own plan cache,
    fills ``cache`` with the hit/miss attribution, and folds
    ``counters``/``profile``/``memory`` into its aggregates afterwards).
    ``stages_ms`` holds the stages timed before execution; ``execute``
    and ``total`` (wall time since ``started``, a ``perf_counter``
    reading) are added here.
    """
    from repro.engine.executor import execute
    from repro.sql import render_explain

    with tracer.span(
        "analyze.execute", engine=plan.engine, workers=plan.workers
    ):
        start = time.perf_counter()
        rows = 0
        for _ in execute(
            db,
            compiled,
            plan,
            counters=counters,
            profile=profile,
            memory=memory,
        ):
            rows += 1
        execute_ms = (time.perf_counter() - start) * 1000.0
    stages_ms = dict(stages_ms)
    stages_ms["execute"] = round(execute_ms, 4)
    stages_ms["total"] = round((time.perf_counter() - started) * 1000.0, 4)

    operators = _scan_operators(db, compiled, plan)
    operators.append(
        {
            "operator": f"enumerate[{plan.engine}]",
            "rows": rows,
            "wall_ms": stages_ms["execute"],
            "workers": plan.workers,
            "shard_variable": plan.shard_variable,
        }
    )
    report = {
        "sql": str(compiled.statement),
        "engine": plan.engine,
        "workers": plan.workers,
        "rows": rows,
        "stages_ms": stages_ms,
        "operators": operators,
        "profile": profile.summary(),
        "counters": counters.snapshot(),
        "plan": render_explain(compiled, plan),
        "cache": dict(cache) if cache else {"plan_cache": "bypass"},
        "kernel": _kernel_report(plan),
        "estimates": _estimate_report(compiled, plan, rows),
    }
    if memory.touched:
        report["memory"] = memory.snapshot()
    return report


def q_error(estimated: float, actual: float) -> float:
    """The planner's Q-error: ``max(est/actual, actual/est)`` with both
    sides floored at one row (Moerkotte et al.'s convention, so empty
    results and zero estimates compare as 1 row instead of dividing by
    zero)."""
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return est / act if est >= act else act / est


def _estimate_report(compiled: "CompiledQuery", plan: "Plan", rows: int) -> dict:
    """Planner feedback: the routing-time cardinality estimate next to
    the measured truth.

    The Q-error (``max(est/actual, actual/est)``, both floored at 1) is
    the planner-quality number the registry histograms per template;
    here it sits inline in the report.  ``truncated`` flags runs whose
    LIMIT fired — their row count bounds the true cardinality from
    below, so the Q-error is only a lower-bound misestimate signal.
    """
    k = compiled.k
    truncated = k is not None and rows >= k
    return {
        "estimated_rows": plan.estimates.agm_bound,
        "actual_rows": rows,
        "qerror": round(q_error(plan.estimates.agm_bound, rows), 4),
        "truncated": truncated,
    }


def _kernel_report(plan: "Plan") -> dict:
    """Compiled-kernel attribution for one executed plan.

    ``slot`` says whether this plan holds a pinned compiled template
    (``warm`` after its first any-k execution, ``cold`` before,
    ``none`` for engines without kernels); ``stats`` is the process-wide
    per-engine counter snapshot for the plan's engine.
    """
    from repro.anyk.kernels import kernel_stats

    slot = getattr(plan, "kernel_slot", None)
    if slot is None:
        state = "none"
    elif slot.template is not None:
        state = "warm"
    else:
        state = "cold"
    return {
        "engine": plan.engine,
        "slot": state,
        "stats": kernel_stats().get(plan.engine, {}),
    }


def run_analyze(
    db: Database,
    sql: str,
    engine: Optional[str] = None,
    counters: Optional[Counters] = None,
) -> dict:
    """Execute ``sql`` and build the EXPLAIN ANALYZE report dict.

    ``sql`` may be the bare SELECT or carry the ``EXPLAIN [ANALYZE]``
    prefix (it is stripped — what runs is the inner statement).
    ``engine`` overrides the router exactly as in :func:`repro.sql.query`.
    """
    from repro.engine.planner import plan_compiled
    from repro.sql import _check_engine
    from repro.sql.analyzer import analyze_statement
    from repro.sql.errors import SqlError
    from repro.sql.nodes import ExplainStatement, SelectStatement
    from repro.sql.parser import parse_any

    _check_engine(engine)
    whole_start = time.perf_counter()
    with tracer.span("analyze.parse"):
        start = time.perf_counter()
        statement = parse_any(sql)
        if isinstance(statement, ExplainStatement):
            statement = statement.statement
        if not isinstance(statement, SelectStatement):
            raise SqlError(
                "EXPLAIN ANALYZE applies to SELECT statements only",
                sql,
                statement.pos,
            )
        parse_ms = (time.perf_counter() - start) * 1000.0

    with tracer.span("analyze.semantic"):
        start = time.perf_counter()
        compiled = analyze_statement(db, sql, statement)
        analyze_ms = (time.perf_counter() - start) * 1000.0

    with tracer.span("analyze.plan"):
        start = time.perf_counter()
        plan = plan_compiled(db, compiled, engine=engine)
        plan_ms = (time.perf_counter() - start) * 1000.0

    return analyze_plan(
        db,
        compiled,
        plan,
        stages_ms={
            "parse": round(parse_ms, 4),
            "analyze": round(analyze_ms, 4),
            "plan": round(plan_ms, 4),
        },
        started=whole_start,
        counters=Counters() if counters is None else counters,
        profile=DelayProfile(),
        memory=MemoryProfile(),
    )


def _fmt_ms(value: Any) -> str:
    return f"{value:.3f} ms" if isinstance(value, (int, float)) else str(value)


def render_analyze(report: dict) -> str:
    """Text rendering of a :func:`run_analyze` report (CLI/server views)."""
    lines = [report["plan"], ""]
    stages = report.get("stages_ms", {})
    lines.append(
        "timing:   "
        + "  ".join(
            f"{stage}={_fmt_ms(stages[stage])}"
            for stage in ("parse", "analyze", "plan", "execute", "total")
            if stage in stages
        )
    )
    cache = report.get("cache", {})
    if cache:
        lines.append(
            "cache:    "
            + "  ".join(f"{name}={value}" for name, value in cache.items())
        )
    kernel = report.get("kernel")
    if kernel and kernel.get("slot") != "none":
        stats = kernel.get("stats", {})
        detail = f"slot={kernel['slot']}"
        for event in ("installs", "slot_hits", "template_hits", "compiles"):
            if event in stats:
                detail += f"  {event}={stats[event]}"
        lines.append(f"kernels:  {detail}")
    lines.append("operators:")
    for op in report.get("operators", ()):
        name = op.get("operator", "?")
        if name.startswith("scan"):
            detail = (
                f"{op['relation']} AS {op['alias']}  "
                f"rows={op['rows']}/{op['base_rows']}"
            )
            if op.get("filters"):
                detail += "  σ[" + " AND ".join(op["filters"]) + "]"
        else:
            detail = f"rows={op.get('rows', '?')}"
            if op.get("wall_ms") is not None:
                detail += f"  wall={_fmt_ms(op['wall_ms'])}"
            if op.get("workers", 1) > 1:
                detail += (
                    f"  workers={op['workers']}"
                    f" shard={op.get('shard_variable')}"
                )
        lines.append(f"  {name:<22}{detail}")
    profile = report.get("profile", {})
    if profile.get("results"):
        delay = profile.get("delay_ms", {})
        lines.append(
            "anytime:  "
            f"ttf={_fmt_ms(profile.get('ttf_ms') or 0.0)}  "
            f"delay p50={_fmt_ms(delay.get('p50_ms', 0.0))}"
            f" p99={_fmt_ms(delay.get('p99_ms', 0.0))}"
            f" max={_fmt_ms(delay.get('max_ms', 0.0))}"
        )
        for k, ttk_ms in sorted(
            profile.get("ttk_ms", {}).items(), key=lambda kv: int(kv[0])
        ):
            lines.append(f"          tt({k})={_fmt_ms(ttk_ms)}")
        for shard in profile.get("shards", ()):
            lines.append(
                f"          shard[{shard.get('shard', '?')}]"
                f" results={shard.get('results', 0)}"
                f" busy={_fmt_ms(shard.get('busy_ms', 0.0))}"
            )
    memory = report.get("memory")
    if memory:
        lines.append(
            "memory:   "
            f"peak_entries={memory.get('peak_entries', 0)}"
            f"  live_entries={memory.get('live_entries', 0)}"
        )
        for category, detail in sorted(
            memory.get("categories", {}).items(),
            key=lambda kv: -kv[1].get("peak_entries", 0),
        ):
            lines.append(
                f"          {category:<16}"
                f"peak_entries={detail.get('peak_entries', 0)}"
            )
        for shard in memory.get("shards", ()):
            lines.append(
                f"          shard[{shard.get('shard', '?')}]"
                f" peak_entries={shard.get('peak_entries', 0)}"
            )
    estimates = report.get("estimates")
    if estimates:
        note = "  (LIMIT-truncated)" if estimates.get("truncated") else ""
        lines.append(
            "estimate: "
            f"rows~{estimates.get('estimated_rows', 0.0):.6g}"
            f"  actual={estimates.get('actual_rows', 0)}"
            f"  qerror={estimates.get('qerror', 1.0):g}{note}"
        )
    return "\n".join(lines)
