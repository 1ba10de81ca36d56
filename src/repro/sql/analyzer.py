"""Semantic analysis: lower a parsed SELECT onto the CQ layer.

The analyzer resolves table aliases and columns against the
:class:`~repro.data.database.Database` catalog, classifies predicates into
equality joins (which become shared query variables via union-find) and
constant filters (applied to base relations before enumeration), picks the
:class:`~repro.anyk.ranking.RankingFunction` named by ORDER BY, and emits a
:class:`CompiledQuery` — everything the engine planner and executor need.

Naming convention: each query variable is named after the first
``alias.column`` occurrence in its equivalence class, so compiled queries
read naturally in EXPLAIN output, e.g.::

    Q(r.src, r.dst, s.dst) :- E(r.src, r.dst), E(r.dst, s.dst)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Sequence

from repro.anyk.ranking import ALL_RANKINGS, DESC_RANKINGS, SUM, RankingFunction
from repro.data.database import Database
from repro.query.cq import Atom, ConjunctiveQuery
from repro.sql.errors import SqlError
from repro.sql.nodes import (
    ColumnRef,
    Comparison,
    DeleteStatement,
    InsertStatement,
    Literal,
    Parameter,
    SelectStatement,
    TableRef,
)
from repro.sql.parser import Statement, parse, parse_any

#: ORDER BY aggregate -> ranking (ASC; DESC takes the DESC_RANKINGS dual).
RANKINGS: dict[str, RankingFunction] = {r.name: r for r in ALL_RANKINGS}

#: Filter predicates as plain functions, keyed by SQL operator.
_FILTER_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Filter:
    """One constant filter ``table.column op literal`` on a FROM entry.

    In a statement with ``?`` placeholders the value may be a
    :class:`~repro.sql.nodes.Parameter` sentinel; such filters describe
    the statement's shape only and must be bound to a concrete value
    (:func:`bind_compiled`) before execution.
    """

    table: str  # resolved alias
    column: str
    op: str
    value: Any

    @property
    def is_template(self) -> bool:
        """True when the comparison value is an unbound parameter."""
        return isinstance(self.value, Parameter)

    def predicate(self, position: int) -> Callable[[tuple], bool]:
        """Row predicate over the owning relation (column pre-resolved)."""
        if self.is_template:
            raise TypeError(
                f"filter {self.table}.{self.column} {self.op} ? is an "
                "unbound template; bind parameters before execution"
            )
        compare = _FILTER_OPS[self.op]
        value = self.value
        return lambda row: _safe_compare(compare, row[position], value)

    def __str__(self) -> str:
        return f"{self.table}.{self.column} {self.op} {self.value!r}"


def _safe_compare(compare, left, right) -> bool:
    try:
        return bool(compare(left, right))
    except TypeError:
        # Mixed-type *ordered* comparisons (e.g. a string value against a
        # numeric literal with <) have no defined order: treat the
        # predicate as unsatisfied and drop the row.  Note = and <> never
        # reach here — Python equality across types is well defined
        # (unequal), so `col <> 'x'` keeps every row of a non-string
        # column rather than emulating SQL's NULL semantics.
        return False


@dataclass
class CompiledQuery:
    """A SELECT statement lowered onto the CQ layer.

    The executor enumerates ``cq`` (after applying ``filters``) under
    ``ranking`` and maps each full result row through
    ``output_positions``; ``descending`` asks for heaviest-first order,
    for which ``ranking`` is the order dual (its weights are negated; the
    executor flips them back).
    """

    sql: str
    statement: SelectStatement
    cq: ConjunctiveQuery
    ranking: RankingFunction
    descending: bool
    #: LIMIT count; in an unbound template this may be a Parameter.
    k: Optional["int | Parameter"]
    output_columns: tuple[str, ...]
    output_positions: tuple[int, ...]
    filters: tuple[Filter, ...]
    alias_to_relation: dict[str, str] = field(default_factory=dict)

    @property
    def is_template(self) -> bool:
        """True when any filter value or the LIMIT is an unbound
        parameter (the compiled statement cannot execute as-is)."""
        return isinstance(self.k, Parameter) or any(
            f.is_template for f in self.filters
        )

    @property
    def is_projection(self) -> bool:
        """True when SELECT drops some query variable.

        Compares *distinct* positions, so ``SELECT R.a, R.a`` over a
        binary relation is still a projection (column b is dropped).
        """
        return set(self.output_positions) != set(range(len(self.cq.variables)))

    @property
    def free_variables(self) -> tuple[str, ...]:
        """The projected (output) query variables."""
        return tuple(self.cq.variables[p] for p in self.output_positions)


@dataclass
class CompiledMutation:
    """An INSERT/DELETE lowered onto the dynamic-data layer.

    ``rows``/``weights`` are schema-ordered and validated for an insert;
    ``filters`` hold the constant predicates of a delete (empty: delete
    everything).  :func:`repro.engine.executor.apply_mutation` turns this
    into a committed :class:`repro.dynamic.MutationResult`.
    """

    sql: str
    statement: Statement
    kind: str  # "insert" | "delete"
    relation: str
    rows: tuple[tuple, ...] = ()
    weights: tuple[float, ...] = ()
    filters: tuple[Filter, ...] = ()


def analyze(db: Database, sql: str) -> CompiledQuery:
    """Parse and semantically check ``sql`` against ``db``'s catalog."""
    statement = parse(sql)
    return analyze_statement(db, sql, statement)


def analyze_mutation(db: Database, sql: str) -> CompiledMutation:
    """Parse and check one INSERT/DELETE against ``db``'s catalog."""
    statement = parse_any(sql)
    if isinstance(statement, InsertStatement):
        return _analyze_insert(db, sql, statement)
    if isinstance(statement, DeleteStatement):
        return _analyze_delete(db, sql, statement)
    raise SqlError(
        "expected an INSERT or DELETE statement here; SELECT goes through "
        "repro.sql.query or the server's 'query' op",
        sql,
        statement.pos,
    )


def _mutation_relation(db: Database, sql: str, name: str, pos: int):
    if name not in db:
        raise SqlError(
            f"unknown relation {name!r}; catalog has: "
            f"{', '.join(db.names()) or '(empty database)'}",
            sql,
            pos,
        )
    return db[name]


def _analyze_insert(
    db: Database, sql: str, statement: InsertStatement
) -> CompiledMutation:
    relation = _mutation_relation(db, sql, statement.relation, statement.pos)
    schema = relation.schema
    if statement.columns is None:
        value_slots: list[Optional[int]] = list(range(len(schema)))
        weight_slot: Optional[int] = None
        expected = len(schema)
    else:
        # The column list must cover the schema exactly (any order) and
        # may additionally name the implicit 'weight' pseudo-column.
        weight_slot = None
        position_of: dict[str, int] = {}
        for index, column in enumerate(statement.columns):
            if column.lower() == "weight" and column not in schema:
                if weight_slot is not None:
                    raise SqlError(
                        "duplicate 'weight' in the INSERT column list",
                        sql,
                        statement.pos,
                    )
                weight_slot = index
                continue
            if column not in schema:
                raise SqlError(
                    f"relation {relation.name!r} has no column {column!r}; "
                    f"its schema is ({', '.join(schema)}) plus the implicit "
                    "'weight'",
                    sql,
                    statement.pos,
                )
            if column in position_of:
                raise SqlError(
                    f"duplicate column {column!r} in the INSERT column list",
                    sql,
                    statement.pos,
                )
            position_of[column] = index
        missing = [c for c in schema if c not in position_of]
        if missing:
            raise SqlError(
                f"INSERT INTO {relation.name} must provide every column; "
                f"missing: {', '.join(missing)}",
                sql,
                statement.pos,
            )
        value_slots = [position_of[c] for c in schema]
        expected = len(statement.columns)
    rows: list[tuple] = []
    weights: list[float] = []
    for value_row in statement.rows:
        if len(value_row) != expected:
            described = (
                "schema order: " + ", ".join(schema)
                if statement.columns is None
                else "column list: " + ", ".join(statement.columns)
            )
            raise SqlError(
                f"INSERT row has {len(value_row)} value(s) but {expected} "
                f"were expected ({described}; add 'weight' to a column list "
                "to set tuple weights)",
                sql,
                value_row[0].pos if value_row else statement.pos,
            )
        rows.append(tuple(value_row[slot].value for slot in value_slots))
        if weight_slot is None:
            weights.append(0.0)
        else:
            literal = value_row[weight_slot]
            if (
                not isinstance(literal.value, (int, float))
                or isinstance(literal.value, bool)
                or not math.isfinite(float(literal.value))
            ):
                raise SqlError(
                    f"'weight' must be a finite number, got "
                    f"{literal.value!r}",
                    sql,
                    literal.pos,
                )
            weights.append(float(literal.value))
    return CompiledMutation(
        sql=sql,
        statement=statement,
        kind="insert",
        relation=relation.name,
        rows=tuple(rows),
        weights=tuple(weights),
    )


def _analyze_delete(
    db: Database, sql: str, statement: DeleteStatement
) -> CompiledMutation:
    relation = _mutation_relation(db, sql, statement.relation, statement.pos)
    table = TableRef(relation.name, None, statement.pos)
    joins, filters = _classify_predicates(
        db, sql, [table], statement.predicates
    )
    if joins:
        raise SqlError(
            "DELETE predicates must compare a column to a literal "
            "(column-to-column predicates would be joins)",
            sql,
            statement.predicates[0].pos,
        )
    if any(f.is_template for f in filters):
        raise SqlError(
            "bind parameters (?) are not supported in DELETE predicates; "
            "mutations take literal values",
            sql,
            statement.pos,
        )
    return CompiledMutation(
        sql=sql,
        statement=statement,
        kind="delete",
        relation=relation.name,
        filters=tuple(filters),
    )


def analyze_statement(
    db: Database, sql: str, statement: SelectStatement
) -> CompiledQuery:
    tables = _resolve_tables(db, sql, statement.tables)
    joins, filters = _classify_predicates(db, sql, tables, statement.predicates)
    cq = _build_cq(db, tables, joins)
    ranking, descending = _resolve_ranking(statement)
    columns, positions = _resolve_output(db, sql, tables, cq, statement.columns)
    return CompiledQuery(
        sql=sql,
        statement=statement,
        cq=cq,
        ranking=ranking,
        descending=descending,
        k=statement.limit,
        output_columns=columns,
        output_positions=positions,
        filters=tuple(filters),
        alias_to_relation={t.name: t.relation for t in tables},
    )


def bind_compiled(
    compiled: CompiledQuery, params: Optional[Sequence[Any]] = None
) -> CompiledQuery:
    """``compiled`` with its ``?`` placeholders bound to ``params``.

    Placeholders bind positionally, in appearance order; a statement
    without any comes back as itself.  A copy costs dataclass
    replacements of the filters, the LIMIT and the statement, no parse
    and no catalog read.  Raises :class:`SqlError` when the number of
    values differs from the number of placeholders, when a value is not
    a number or string, or when a LIMIT placeholder is bound to anything
    but a positive integer.
    """
    values = tuple(params) if params is not None else ()
    wanted = sum(f.is_template for f in compiled.filters) + isinstance(
        compiled.k, Parameter
    )
    if len(values) != wanted:
        raise SqlError(
            f"statement has {wanted} bind parameter(s) (?) but "
            f"{len(values)} value(s) were supplied"
        )
    if not wanted:
        return compiled
    for index, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise SqlError(
                f"bind parameter {index + 1} must be a number or string, "
                f"got {type(value).__name__}"
            )
    k = compiled.k
    if isinstance(k, Parameter):
        k = values[k.index]
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise SqlError(
                f"LIMIT parameter must be a positive integer, got {k!r}"
            )
    return replace(
        compiled,
        statement=_bind_statement(compiled.statement, values),
        k=k,
        filters=tuple(
            replace(f, value=values[f.value.index]) if f.is_template else f
            for f in compiled.filters
        ),
    )


def _bind_statement(
    statement: SelectStatement, values: Sequence[Any]
) -> SelectStatement:
    """The AST with every parameter replaced by its value (what EXPLAIN
    renders)."""

    def concrete(operand: Any) -> Any:
        if isinstance(operand, Parameter):
            return Literal(values[operand.index], operand.pos)
        return operand

    predicates = tuple(
        Comparison(concrete(p.left), p.op, concrete(p.right), p.pos)
        for p in statement.predicates
    )
    limit = statement.limit
    if isinstance(limit, Parameter):
        limit = values[limit.index]
    return replace(statement, predicates=predicates, limit=limit)


# ----------------------------------------------------------------------
# Tables and columns
# ----------------------------------------------------------------------
def _resolve_tables(
    db: Database, sql: str, tables: tuple[TableRef, ...]
) -> list[TableRef]:
    seen: dict[str, TableRef] = {}
    for table in tables:
        if table.relation not in db:
            raise SqlError(
                f"unknown relation {table.relation!r}; catalog has: "
                f"{', '.join(db.names()) or '(empty database)'}",
                sql,
                table.pos,
            )
        if table.name in seen:
            raise SqlError(
                f"duplicate table name {table.name!r} in FROM; give the "
                "second occurrence an alias (self-joins need one alias per "
                "occurrence)",
                sql,
                table.pos,
            )
        seen[table.name] = table
    return list(tables)


def _resolve_column(
    db: Database,
    sql: str,
    tables: list[TableRef],
    ref: ColumnRef,
) -> tuple[str, str]:
    """Resolve to ``(alias, column)``; unqualified names must be unique."""
    if ref.table is not None:
        for table in tables:
            if table.name == ref.table:
                schema = db[table.relation].schema
                if ref.column not in schema:
                    raise SqlError(
                        f"relation {table.relation!r} (as {table.name!r}) has "
                        f"no column {ref.column!r}; its schema is "
                        f"({', '.join(schema)})",
                        sql,
                        ref.pos,
                    )
                return table.name, ref.column
        raise SqlError(
            f"unknown table {ref.table!r}; FROM introduces: "
            f"{', '.join(t.name for t in tables)}",
            sql,
            ref.pos,
        )
    owners = [t for t in tables if ref.column in db[t.relation].schema]
    if not owners:
        raise SqlError(
            f"no FROM table has a column {ref.column!r}", sql, ref.pos
        )
    if len(owners) > 1:
        raise SqlError(
            f"column {ref.column!r} is ambiguous; qualify it with one of: "
            f"{', '.join(t.name for t in owners)}",
            sql,
            ref.pos,
        )
    return owners[0].name, ref.column


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------
def _classify_predicates(
    db: Database,
    sql: str,
    tables: list[TableRef],
    predicates: tuple[Comparison, ...],
) -> tuple[list[tuple[tuple[str, str], tuple[str, str]]], list[Filter]]:
    joins: list[tuple[tuple[str, str], tuple[str, str]]] = []
    filters: list[Filter] = []
    for predicate in predicates:
        left_is_column = isinstance(predicate.left, ColumnRef)
        right_is_column = isinstance(predicate.right, ColumnRef)
        if left_is_column and right_is_column:
            if predicate.op != "=":
                raise SqlError(
                    f"theta-joins ({predicate.op} between columns) are not "
                    "supported; join predicates must be equalities",
                    sql,
                    predicate.pos,
                )
            joins.append(
                (
                    _resolve_column(db, sql, tables, predicate.left),
                    _resolve_column(db, sql, tables, predicate.right),
                )
            )
        elif left_is_column or right_is_column:
            column = predicate.left if left_is_column else predicate.right
            literal = predicate.right if left_is_column else predicate.left
            op = predicate.op
            if not left_is_column:  # literal op column — flip the comparison
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
            alias, name = _resolve_column(db, sql, tables, column)
            # A Parameter flows through as itself: the filter stays a
            # template until bind_compiled substitutes the bound value.
            value = (
                literal.value if isinstance(literal, Literal) else literal
            )
            filters.append(Filter(alias, name, op, value))
        else:
            raise SqlError(
                "predicates between two literals (or two parameters) are "
                "not supported",
                sql,
                predicate.pos,
            )
    return joins, filters


# ----------------------------------------------------------------------
# CQ construction (union-find over alias.column pairs)
# ----------------------------------------------------------------------
def _build_cq(
    db: Database,
    tables: list[TableRef],
    joins: list[tuple[tuple[str, str], tuple[str, str]]],
) -> ConjunctiveQuery:
    # All (alias, column) slots, in FROM order then schema order: this is
    # the first-appearance order that names each variable class.
    slots: list[tuple[str, str]] = []
    for table in tables:
        for column in db[table.relation].schema:
            slots.append((table.name, column))
    parent: dict[tuple[str, str], tuple[str, str]] = {s: s for s in slots}

    def find(slot: tuple[str, str]) -> tuple[str, str]:
        root = slot
        while parent[root] != root:
            root = parent[root]
        while parent[slot] != root:  # path compression
            parent[slot], slot = root, parent[slot]
        return root

    rank_order = {slot: i for i, slot in enumerate(slots)}
    for left, right in joins:
        root_l, root_r = find(left), find(right)
        if root_l == root_r:
            continue
        # Union by first appearance, so the class representative (and hence
        # the variable name) is the earliest slot in FROM order.
        keep, absorb = sorted((root_l, root_r), key=rank_order.__getitem__)
        parent[absorb] = keep

    def variable_name(slot: tuple[str, str]) -> str:
        alias, column = find(slot)
        return f"{alias}.{column}"

    atoms = [
        Atom(
            table.relation,
            tuple(
                variable_name((table.name, column))
                for column in db[table.relation].schema
            ),
        )
        for table in tables
    ]
    return ConjunctiveQuery(atoms, name="Sql")


# ----------------------------------------------------------------------
# Ranking and output schema
# ----------------------------------------------------------------------
def _resolve_ranking(statement: SelectStatement) -> tuple[RankingFunction, bool]:
    order = statement.order_by
    if order is None:
        return SUM, False
    table = DESC_RANKINGS if order.descending else RANKINGS
    return table[order.aggregate], order.descending


def _resolve_output(
    db: Database,
    sql: str,
    tables: list[TableRef],
    cq: ConjunctiveQuery,
    columns: Optional[tuple[ColumnRef, ...]],
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    if columns is None:  # SELECT *
        return tuple(cq.variables), tuple(range(len(cq.variables)))
    names: list[str] = []
    positions: list[int] = []
    # The analyzer names variables by class representative, so resolving a
    # selected column means finding the atom slot it occupies.
    slot_variable: dict[tuple[str, str], str] = {}
    for table, atom in zip(tables, cq.atoms):
        for column, variable in zip(db[table.relation].schema, atom.variables):
            slot_variable[(table.name, column)] = variable
    for ref in columns:
        alias, column = _resolve_column(db, sql, tables, ref)
        variable = slot_variable[(alias, column)]
        names.append(str(ref))
        positions.append(cq.variables.index(variable))
    return tuple(names), tuple(positions)
