"""Declarative SQL front-end for ranked enumeration.

The top-k idiom every DBMS user writes —

    SELECT * FROM ... JOIN ... ORDER BY weight LIMIT k

— compiled down to the library's any-k machinery instead of
join-then-sort.  The pipeline is classic: hand-rolled lexer
(:mod:`repro.sql.lexer`) → recursive-descent parser
(:mod:`repro.sql.parser`) → typed AST (:mod:`repro.sql.nodes`) → semantic
analysis against the database catalog (:mod:`repro.sql.analyzer`) →
cost-based engine routing (:mod:`repro.engine`) → execution.

Supported subset: ``SELECT <cols | *> FROM r1 [AS a] {JOIN r2 ON … | , r2}
[WHERE equality joins AND constant filters] [ORDER BY
weight|sum/max/product/lex(weight) [ASC|DESC]] [LIMIT k]``, plus the
mutations ``INSERT INTO r [(cols...)] VALUES ...`` and ``DELETE FROM r
[WHERE constant filters]`` through :func:`mutate` (which needs a
:class:`repro.dynamic.VersionedDatabase`), and ``EXPLAIN [ANALYZE]
<select>`` through :func:`explain` / :func:`explain_analyze`.
Everything else fails with a position-annotated :class:`SqlError`.

Quickstart::

    from repro.data.generators import random_graph_database
    import repro.sql

    db = random_graph_database(num_edges=2000, num_nodes=300, seed=1)
    top = repro.sql.query(db, '''
        SELECT * FROM E AS e1 JOIN E AS e2 ON e1.dst = e2.src
                 JOIN E AS e3 ON e2.dst = e3.src
                 JOIN E AS e4 ON e3.dst = e4.src AND e4.dst = e1.src
        ORDER BY weight LIMIT 10
    ''')
    for row, weight in top:        # the 10 lightest 4-cycles
        print(weight, row)
    print(repro.sql.explain(db, "SELECT ..."))   # the routed plan
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.anyk.api import METHODS
from repro.data.database import Database
from repro.engine.executor import execute
from repro.engine.planner import Plan, plan_compiled
from repro.sql.analyzer import CompiledQuery, analyze
from repro.sql.errors import SqlError
from repro.sql.nodes import SelectStatement
from repro.sql.parser import parse
from repro.util.counters import Counters

def _check_engine(engine: Optional[str]) -> None:
    if engine is not None and engine not in METHODS:
        raise SqlError(
            f"unknown engine {engine!r}; known engines: {', '.join(METHODS)}"
        )


class SqlResult:
    """A lazily-executed ranked result stream.

    Iterating yields ``(row, weight)`` pairs exactly as
    :func:`repro.anyk.rank_enumerate` would for the lowered query;
    ``columns`` names the row fields and ``plan`` is the routing decision.
    """

    def __init__(
        self,
        compiled: CompiledQuery,
        plan: Plan,
        stream: Iterator[tuple[tuple, Any]],
    ) -> None:
        self.compiled = compiled
        self.plan = plan
        self.columns: tuple[str, ...] = compiled.output_columns
        self._stream = stream

    def __iter__(self) -> Iterator[tuple[tuple, Any]]:
        # The stream itself, so ``list(result)`` / ``extend(result)`` drain
        # it at C level instead of through ``__next__`` per row.
        return self._stream

    def __next__(self) -> tuple[tuple, Any]:
        return next(self._stream)

    def fetchall(self) -> list[tuple[tuple, Any]]:
        """Drain the remaining stream into a list."""
        return list(self._stream)

    def __repr__(self) -> str:
        return (
            f"SqlResult(columns={self.columns!r}, engine={self.plan.engine!r})"
        )


def query(
    db: Database,
    sql: str,
    engine: Optional[str] = None,
    counters: Optional[Counters] = None,
) -> SqlResult:
    """Compile, route, and execute ``sql`` over ``db``.

    ``engine`` overrides the router (any :data:`repro.anyk.METHODS`
    entry); omitted, the cost-based router decides.
    """
    _check_engine(engine)
    compiled = analyze(db, sql)
    plan = plan_compiled(db, compiled, engine=engine)
    stream = execute(compiled, plan, counters=counters)
    return SqlResult(compiled, plan, stream)


def mutate(target, sql: str):
    """Compile and commit one ``INSERT INTO`` / ``DELETE FROM`` statement.

    ``target`` must be a :class:`repro.dynamic.VersionedDatabase` — the
    copy-on-write layer is what keeps already-open ranked streams
    snapshot-isolated from the write.  Returns the
    :class:`repro.dynamic.MutationResult` (kind, relation, row count, and
    the newly published version id).
    """
    from repro.dynamic import VersionedDatabase
    from repro.engine.executor import apply_mutation
    from repro.sql.analyzer import analyze_mutation

    if not isinstance(target, VersionedDatabase):
        raise SqlError(
            "mutations need a repro.dynamic.VersionedDatabase (wrap the "
            "Database once: VersionedDatabase(db)); mutating a plain "
            "Database in place would corrupt open ranked streams"
        )
    compiled = analyze_mutation(target.snapshot(), sql)
    return apply_mutation(target, compiled)


def render_explain(compiled: CompiledQuery, plan: Plan) -> str:
    """EXPLAIN text for an already-compiled, already-routed statement.

    Shared by :func:`explain` and the server's ``explain`` op (which
    renders from its plan cache instead of re-analyzing).
    """
    lines = [f"sql:      {compiled.statement}"]
    if compiled.filters:
        lines.append(
            "filters:  " + "; ".join(str(f) for f in compiled.filters)
        )
    if compiled.is_projection:
        lines.append(
            "project:  " + ", ".join(compiled.output_columns)
        )
    lines.append(plan.describe())
    return "\n".join(lines)


def explain(db: Database, sql: str, engine: Optional[str] = None) -> str:
    """The routed plan for ``sql``, rendered as text (no execution).

    ``sql`` may carry an ``EXPLAIN`` prefix (it is stripped); an
    ``EXPLAIN ANALYZE`` prefix delegates to :func:`explain_analyze`,
    which *does* execute the statement.
    """
    from repro.sql.nodes import ExplainStatement
    from repro.sql.parser import parse_any

    _check_engine(engine)
    statement = parse_any(sql)
    if isinstance(statement, ExplainStatement):
        if statement.analyze:
            return explain_analyze(db, sql, engine=engine)
        statement = statement.statement
    if not isinstance(statement, SelectStatement):
        raise SqlError(
            "EXPLAIN applies to SELECT statements only", sql, statement.pos
        )
    from repro.sql.analyzer import analyze_statement

    compiled = analyze_statement(db, sql, statement)
    plan = plan_compiled(db, compiled, engine=engine)
    return render_explain(compiled, plan)


def explain_analyze(
    db: Database, sql: str, engine: Optional[str] = None
) -> str:
    """EXPLAIN ANALYZE: run ``sql`` to completion, report where the time
    went — per-stage and per-operator wall time, tuples produced, and
    the in-engine anytime-delay profile (TTF / TT(k) / inter-result
    delay).  See :mod:`repro.obs.analyze` for the report structure;
    :func:`repro.obs.analyze.run_analyze` returns it as a dict.
    """
    from repro.obs.analyze import render_analyze, run_analyze

    return render_analyze(run_analyze(db, sql, engine=engine))


__all__ = [
    "CompiledQuery",
    "Plan",
    "SelectStatement",
    "SqlError",
    "SqlResult",
    "analyze",
    "explain",
    "explain_analyze",
    "mutate",
    "parse",
    "query",
    "render_explain",
]
