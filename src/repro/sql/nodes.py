"""Typed AST for the supported SQL subset.

The shapes mirror the grammar in :mod:`repro.sql.parser`: one
:class:`SelectStatement` per query, with column references, table
references, comparison predicates, and an optional ORDER BY / LIMIT tail.
Every node keeps the character offset of the token that introduced it, so
semantic analysis can raise :class:`~repro.sql.errors.SqlError` pointing at
the exact spot in the source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


@dataclass(frozen=True)
class ColumnRef:
    """``column`` or ``table.column``."""

    table: Optional[str]
    column: str
    pos: int = field(default=0, compare=False)

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Literal:
    """A number or string constant."""

    value: Union[int, float, str]
    pos: int = field(default=0, compare=False)

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Parameter:
    """A positional bind parameter (``?``), numbered in appearance order.

    The parser makes one per ``?`` placeholder typed by the user, on the
    literal side of a comparison or as the LIMIT count;
    :func:`repro.sql.analyzer.bind_compiled` binds them from the
    request's ``params`` vector.
    """

    index: int
    pos: int = field(default=0, compare=False)

    def __str__(self) -> str:
        return "?"


Operand = Union[ColumnRef, Literal, Parameter]

#: Comparison operators of the subset (``!=`` is normalized to ``<>``).
COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Comparison:
    """``left op right`` with ``op`` in :data:`COMPARISONS`."""

    left: Operand
    op: str
    right: Operand
    pos: int = field(default=0, compare=False)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class TableRef:
    """``relation [AS alias]`` in the FROM list."""

    relation: str
    alias: Optional[str]
    pos: int = field(default=0, compare=False)

    @property
    def name(self) -> str:
        """The name this table is referred to by (alias, else relation)."""
        return self.alias or self.relation

    def __str__(self) -> str:
        return f"{self.relation} AS {self.alias}" if self.alias else self.relation


@dataclass(frozen=True)
class OrderBy:
    """``ORDER BY <aggregate>(weight) [ASC|DESC]``.

    ``aggregate`` is one of ``sum | max | product | lex``; a bare
    ``ORDER BY weight`` parses as ``sum``.
    """

    aggregate: str
    descending: bool = False
    pos: int = field(default=0, compare=False)

    def __str__(self) -> str:
        direction = "DESC" if self.descending else "ASC"
        return f"{self.aggregate}(weight) {direction}"


@dataclass(frozen=True)
class InsertStatement:
    """``INSERT INTO relation [(col, ...)] VALUES (lit, ...), ...``.

    ``columns is None`` means "values in schema order, weight 0".  When
    given, the column list must cover the relation's schema (any order)
    and may additionally name the implicit ``weight`` pseudo-column.
    """

    relation: str
    columns: Optional[tuple[str, ...]]
    rows: tuple[tuple[Literal, ...], ...]
    pos: int = field(default=0, compare=False)

    def __str__(self) -> str:
        cols = "" if self.columns is None else f" ({', '.join(self.columns)})"
        values = ", ".join(
            "(" + ", ".join(str(v) for v in row) + ")" for row in self.rows
        )
        return f"INSERT INTO {self.relation}{cols} VALUES {values}"


@dataclass(frozen=True)
class DeleteStatement:
    """``DELETE FROM relation [WHERE constant filters]``.

    Predicates must compare a column of the target relation to a
    literal — deletes never join.
    """

    relation: str
    predicates: tuple[Comparison, ...] = ()
    pos: int = field(default=0, compare=False)

    def __str__(self) -> str:
        where = (
            " WHERE " + " AND ".join(map(str, self.predicates))
            if self.predicates
            else ""
        )
        return f"DELETE FROM {self.relation}{where}"


@dataclass(frozen=True)
class ExplainStatement:
    """``EXPLAIN [ANALYZE] <select>``.

    Plain ``EXPLAIN`` renders the routed plan without executing;
    ``EXPLAIN ANALYZE`` additionally runs the statement to completion
    (honoring its LIMIT) and reports per-operator wall time, tuples
    produced, cache/shard attribution, and the anytime-delay profile
    (see :mod:`repro.obs.analyze`).
    """

    statement: "SelectStatement"
    analyze: bool = False
    pos: int = field(default=0, compare=False)

    def __str__(self) -> str:
        prefix = "EXPLAIN ANALYZE" if self.analyze else "EXPLAIN"
        return f"{prefix} {self.statement}"


@dataclass(frozen=True)
class SelectStatement:
    """One parsed ``SELECT`` statement.

    ``columns is None`` means ``SELECT *``.  ``predicates`` pools the ON and
    WHERE conjuncts (they are equivalent for inner equality joins).
    """

    columns: Optional[tuple[ColumnRef, ...]]
    tables: tuple[TableRef, ...]
    predicates: tuple[Comparison, ...] = ()
    order_by: Optional[OrderBy] = None
    limit: Optional[Union[int, Parameter]] = None
    pos: int = field(default=0, compare=False)

    def __str__(self) -> str:
        cols = "*" if self.columns is None else ", ".join(map(str, self.columns))
        parts = [f"SELECT {cols}", "FROM " + ", ".join(map(str, self.tables))]
        if self.predicates:
            parts.append("WHERE " + " AND ".join(map(str, self.predicates)))
        if self.order_by is not None:
            parts.append(f"ORDER BY {self.order_by}")
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)
