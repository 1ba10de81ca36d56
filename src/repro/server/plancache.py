"""LRU plan cache: parameterized statement templates -> routed plans.

Planning a statement costs a parse, semantic analysis against the
catalog, filter materialization, and the router's shape analysis (GYO
reduction, fractional-cover LP, possibly a tree decomposition).  A serving
workload replays the same handful of statement *shapes* endlessly while
varying the constants — ``v = 17 LIMIT 10`` this request, ``v = 3 LIMIT
25`` the next — so caching on the literal SQL text buys almost nothing.

This cache therefore keys on the **parameterized template**: during
normalization every literal on the constant side of a comparison and the
LIMIT count are lifted into a bound-parameter vector (explicit ``?``
placeholders land in the same vector), and the re-rendered AST — with
``?`` in every lifted position — becomes the cache key.  All
instantiations of one template share one :class:`CachedPlan`; a hit costs
one parse plus a cheap re-bind (dataclass copies substituting the bound
values), never a re-analysis or re-route.

Staleness is handled by **validate-on-hit** instead of fingerprint-keyed
misses: each entry records the catalog fingerprint it was costed on, and
the service compares it against the request snapshot's fingerprint on
every hit.

- identical fingerprint and identical bound values: the entry's plan is
  served as-is, materialized working instance included (the fast path);
- identical or near-identical fingerprint (relation sizes within the
  recost threshold) with different values: the plan's *routing* is
  reused but the filtered working instance is rebuilt from the request
  snapshot at execution time — correct for any binding and any data
  generation, because :func:`repro.engine.executor.execute` falls back
  to :func:`~repro.engine.executor.filtered_database` when the plan
  carries no working instance;
- a large size drift or an empty/non-empty flip: the plan is re-costed
  from fresh statistics (routing may genuinely change, e.g. rank-join
  over an emptied input should flip to batch), which counts as a miss.

Any engine disagreement a reused routing could introduce is bounded by
the library-wide determinism contract: every engine emits the identical
byte-for-byte ranked stream, so a suboptimally-routed binding is slower,
never wrong (the differential tests in ``tests/test_params.py`` pin
this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence, TYPE_CHECKING

from repro.sql.errors import SqlError
from repro.sql.nodes import (
    Comparison,
    Literal,
    Parameter,
    SelectStatement,
)
from repro.sql.parser import parse
from repro.util.lru import LruCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.planner import Plan
    from repro.sql.analyzer import CompiledQuery

#: Relative per-relation size drift beyond which a cached plan is
#: re-costed instead of re-bound (and an empty<->non-empty flip always
#: re-costs: routing rules special-case empty inputs).
RECOST_DRIFT = 0.2

#: One extracted parameter slot: ``("lit", value)`` for a literal lifted
#: out of the statement, ``("arg", i)`` for the i-th explicit ``?``.
Slot = tuple[str, Any]


@dataclass(frozen=True)
class ParameterizedQuery:
    """One statement, split into its template and its constants.

    ``template`` (the re-rendered AST with ``?`` in every parameter
    position) is the cache key material; ``slots`` records where each
    parameter's value comes from, in appearance order.
    """

    sql: str
    template: str
    statement: SelectStatement  # the template AST (Parameter nodes)
    slots: tuple[Slot, ...]

    @property
    def placeholders(self) -> int:
        """How many explicit ``?`` markers the statement carries."""
        return sum(1 for kind, _ in self.slots if kind == "arg")

    def resolve(self, params: Optional[Sequence[Any]]) -> tuple:
        """The concrete value vector for this request.

        Lifted literals supply their own values; explicit ``?`` markers
        consume ``params`` positionally.  Arity mismatches and non-scalar
        values raise :class:`SqlError` (the server maps it to a clean
        ``sql_error``).
        """
        supplied = tuple(params) if params is not None else ()
        wanted = self.placeholders
        if len(supplied) != wanted:
            raise SqlError(
                f"statement has {wanted} bind parameter(s) (?) but "
                f"{len(supplied)} value(s) were supplied"
            )
        values = []
        for kind, payload in self.slots:
            if kind == "lit":
                values.append(payload)
                continue
            value = supplied[payload]
            if isinstance(value, bool) or not isinstance(
                value, (int, float, str)
            ):
                raise SqlError(
                    f"bind parameter {payload + 1} must be a number or "
                    f"string, got {type(value).__name__}"
                )
            values.append(value)
        return tuple(values)


def parameterize(
    statement: SelectStatement,
) -> tuple[SelectStatement, tuple[Slot, ...]]:
    """Lift constants out of ``statement`` into a parameter vector.

    Every literal compared against a column and the integer LIMIT become
    :class:`Parameter` nodes numbered in appearance order; explicit
    ``?`` placeholders are renumbered into the same sequence while
    remembering which request-supplied value they consume.  Join
    predicates (column = column) and pathological literal-literal
    comparisons are left untouched (the analyzer rejects the latter with
    a positioned diagnostic).
    """
    slots: list[Slot] = []

    def lift(operand: Any) -> Any:
        if isinstance(operand, Literal):
            slots.append(("lit", operand.value))
            return Parameter(len(slots) - 1, operand.pos)
        if isinstance(operand, Parameter):
            slots.append(("arg", operand.index))
            return Parameter(len(slots) - 1, operand.pos)
        return operand

    predicates = []
    for predicate in statement.predicates:
        left_const = isinstance(predicate.left, (Literal, Parameter))
        right_const = isinstance(predicate.right, (Literal, Parameter))
        if left_const == right_const:
            # column-column (a join) or literal-literal (rejected later):
            # neither side is a bindable constant slot.
            predicates.append(predicate)
            continue
        predicates.append(
            Comparison(
                lift(predicate.left),
                predicate.op,
                lift(predicate.right),
                predicate.pos,
            )
        )
    limit = statement.limit
    if isinstance(limit, int):
        slots.append(("lit", limit))
        limit = Parameter(len(slots) - 1)
    elif isinstance(limit, Parameter):
        slots.append(("arg", limit.index))
        limit = Parameter(len(slots) - 1, limit.pos)
    template = replace(
        statement, predicates=tuple(predicates), limit=limit
    )
    return template, tuple(slots)


def parameterize_sql(sql: str) -> ParameterizedQuery:
    """Parse ``sql`` and split it into template + parameter slots."""
    statement = parse(sql)
    template_statement, slots = parameterize(statement)
    return ParameterizedQuery(
        sql=sql,
        template=str(template_statement),
        statement=template_statement,
        slots=slots,
    )


def normalize_sql(sql: str) -> tuple[str, SelectStatement]:
    """Canonical (template) text for ``sql``, plus the template AST.

    Formatting differences (whitespace, keyword case, ``!=`` vs ``<>``)
    *and* constant differences (``v = 5`` vs ``v = 9``, ``LIMIT 10`` vs
    ``LIMIT 500``, explicit ``?``) all land on the same canonical text;
    semantically different statement shapes never collide.
    """
    parameterized = parameterize_sql(sql)
    return parameterized.template, parameterized.statement


def bind_statement(
    statement: SelectStatement, values: Sequence[Any]
) -> SelectStatement:
    """The template AST with every parameter replaced by its value."""

    def concrete(operand: Any) -> Any:
        if isinstance(operand, Parameter):
            return Literal(values[operand.index], operand.pos)
        return operand

    predicates = tuple(
        Comparison(
            concrete(p.left), p.op, concrete(p.right), p.pos
        )
        if isinstance(p.left, Parameter) or isinstance(p.right, Parameter)
        else p
        for p in statement.predicates
    )
    limit = statement.limit
    if isinstance(limit, Parameter):
        limit = values[limit.index]
    return replace(statement, predicates=predicates, limit=limit)


def bind_compiled(
    compiled: "CompiledQuery", values: Sequence[Any], sql: str
) -> "CompiledQuery":
    """A concrete, executable copy of a compiled template.

    Cheap by construction — dataclass copies substituting the bound
    values into the filters and the LIMIT; no parsing, no catalog
    resolution, no routing.  Raises :class:`SqlError` when a LIMIT
    parameter is bound to anything but a positive integer.
    """
    filters = tuple(
        replace(f, value=values[f.value.index]) if f.is_template else f
        for f in compiled.filters
    )
    k = compiled.k
    if isinstance(k, Parameter):
        bound = values[k.index]
        if isinstance(bound, bool) or not isinstance(bound, int) or bound < 1:
            raise SqlError(
                f"LIMIT parameter must be a positive integer, got {bound!r}"
            )
        k = bound
    return replace(
        compiled,
        sql=sql,
        statement=bind_statement(compiled.statement, values),
        k=k,
        filters=filters,
    )


def fingerprint_drift(before: tuple, after: tuple) -> float:
    """How far the catalog moved between two fingerprints, in [0, inf].

    Fingerprints are tuples of ``(name, schema, len, version)`` per
    referenced relation (:func:`repro.engine.catalog.database_fingerprint`).
    Returns 0.0 for identical data generations, the maximum relative
    cardinality change for same-shaped catalogs, and ``inf`` when the
    shape changed (relations appeared/disappeared/re-schemed) or any
    relation flipped between empty and non-empty — the cases where
    cached routing decisions are not worth keeping.  Drift measures
    routing risk, not staleness: two generations of equal cardinality
    have drift 0.0 and still hold different rows.
    """
    if before == after:
        return 0.0
    if len(before) != len(after):
        return math.inf
    drift = 0.0
    for old, new in zip(sorted(before), sorted(after)):
        if old[0] != new[0] or old[1] != new[1]:
            return math.inf  # different relation or schema
        old_len, new_len = old[2], new[2]
        if (old_len == 0) != (new_len == 0):
            return math.inf  # empty flip: routing special-cases this
        if old_len < 0 or new_len < 0:
            return math.inf  # a referenced relation is missing
        drift = max(drift, abs(new_len - old_len) / max(1, old_len))
    return drift


@dataclass
class CachedPlan:
    """One plan-cache entry: a statement template plus its costed plan.

    ``compiled`` is the *template* compilation (filters and LIMIT may
    hold :class:`Parameter` sentinels); ``plan`` was costed on
    ``fingerprint`` with ``costed_values`` bound.  ``hits`` is bumped
    atomically under the cache lock; ``recosts`` counts in-place
    re-routings after large data drift.

    For any-k engines the entry also carries the compiled enumeration
    kernel, via ``plan.kernel_slot`` (a
    :class:`repro.anyk.kernels.KernelSlot`): the slot rides inside the
    plan dataclass, and the service's soft-hit re-bind copies the plan
    *sharing the slot by reference*, so a warm statement reuses the
    shape's compiled template without planning or kernel setup.  A
    :meth:`recost` replaces the plan wholesale — and with it the slot —
    exactly when the routing (and possibly the shape) changed.
    """

    compiled: "CompiledQuery"
    plan: "Plan"
    fingerprint: tuple = ()
    costed_values: tuple = ()
    hits: int = field(default=0)
    recosts: int = field(default=0)

    @property
    def kernel_slot(self):
        """The entry's compiled-kernel pin (None for non-any-k plans)."""
        return getattr(self.plan, "kernel_slot", None)

    def recost(
        self, plan: "Plan", fingerprint: tuple, values: tuple
    ) -> None:
        """Swap in a freshly costed plan (the entry stays in place, so
        the LRU order and per-entry hit history survive the re-route)."""
        self.plan = plan
        self.fingerprint = fingerprint
        self.costed_values = values
        self.recosts += 1


def _bump_hits(entry: CachedPlan) -> None:
    entry.hits += 1


class PlanCache:
    """Bounded, thread-safe LRU over :class:`CachedPlan` entries
    (a thin veneer over :class:`repro.util.lru.LruCache`)."""

    def __init__(self, maxsize: int = 128) -> None:
        self._lru = LruCache(maxsize)
        self._recosts = 0

    @staticmethod
    def key(
        normalized_sql: str,
        engine: Optional[str],
        workers: int = 1,
    ) -> tuple:
        """The cache key: template text + engine override + parallelism
        budget (both of the latter route differently).  Catalog
        fingerprints live *inside* the entry (validate-on-hit), not in
        the key — a steady mutation trickle must not turn every repeat
        statement into a miss."""
        return (normalized_sql, engine, workers)

    def lookup(self, key: tuple) -> Optional[CachedPlan]:
        # The per-entry hit bump runs under the LRU lock: concurrent
        # lookups of a hot template must not lose increments.
        return self._lru.get(key, on_hit=_bump_hits)

    def note_recost(self) -> None:
        """Account a validated-then-recosted hit as a miss: the caller
        re-ran statistics and routing, so the cache saved nothing."""
        self._lru.reclassify_hit_as_miss()
        self._recosts += 1

    def store(self, key: tuple, entry: CachedPlan) -> None:
        self._lru.put(key, entry)

    def __len__(self) -> int:
        return len(self._lru)

    def clear(self) -> None:
        self._lru.clear()
        self._recosts = 0

    def info(self) -> dict:
        """Hit/miss/recost counters for the ``stats`` endpoint."""
        out = self._lru.info()
        out["recosts"] = self._recosts
        return out
