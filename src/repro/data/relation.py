"""Weighted in-memory relations.

A :class:`Relation` is a named bag of fixed-arity value tuples, each carrying
a numeric weight.  Weights are the ranking signal for top-k / any-k queries:
the weight of a join result is the ranking-function combination (by default
the sum) of the weights of the input tuples that produced it, exactly the
"aggregate weight" notion of the tutorial's Part 1.

Relations are append-only; hash indexes on attribute subsets are built
lazily and cached, and invalidated on mutation.  Lower weight means more
important throughout (the tutorial's "lightest cycles" convention); the
top-k middleware algorithms in :mod:`repro.topk` use descending *scores*
instead, and convert explicitly at the boundary.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence


class SchemaError(ValueError):
    """Raised for malformed schemas or rows that do not match a schema."""


class Relation:
    """A named, weighted, in-memory relation.

    Parameters
    ----------
    name:
        Relation name used by query atoms to refer to it.
    schema:
        Attribute names, one per column.  Must be unique within the relation.
    rows:
        Optional initial rows (iterable of value tuples).
    weights:
        Optional per-row weights, parallel to ``rows``.  Defaults to 0.0 for
        every row, which makes unweighted (pure join) use transparent.
    """

    __slots__ = (
        "name",
        "schema",
        "rows",
        "weights",
        "version",
        "_indexes",
        "_positions",
    )

    def __init__(
        self,
        name: str,
        schema: Sequence[str],
        rows: Optional[Iterable[Sequence[Any]]] = None,
        weights: Optional[Iterable[float]] = None,
    ) -> None:
        schema = tuple(schema)
        if not schema:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        if len(set(schema)) != len(schema):
            raise SchemaError(f"relation {name!r} has duplicate attributes: {schema}")
        self.name = name
        self.schema = schema
        self.rows: list[tuple] = []
        self.weights: list[float] = []
        #: Version annotation stamped by :mod:`repro.dynamic` when a
        #: mutation publishes a new copy-on-write generation of this
        #: relation.  0 means "static" (never mutated through the
        #: versioned layer); the engine catalog's fingerprints include it
        #: so equal-cardinality states with different contents (delete one
        #: row, insert another) never collide in the plan cache.
        self.version: int = 0
        self._indexes: dict[tuple[str, ...], dict] = {}
        # Memoized attribute-tuple -> column-position resolutions.  The
        # schema is immutable for the life of the relation, so entries
        # never invalidate (unlike _indexes, which depend on the rows).
        self._positions: dict[tuple[str, ...], tuple[int, ...]] = {}
        if rows is not None:
            self.extend(rows, weights)

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {self.schema!r}, {len(self.rows)} rows)"

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.schema)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, row: Sequence[Any], weight: float = 0.0) -> None:
        """Append one row with the given weight.

        Rejects rows of the wrong arity and non-finite weights (NaN weights
        would silently corrupt every ranking structure downstream).
        """
        row = tuple(row)
        if len(row) != len(self.schema):
            raise SchemaError(
                f"relation {self.name!r}: row {row!r} has arity {len(row)}, "
                f"schema has arity {len(self.schema)}"
            )
        weight = float(weight)
        if not math.isfinite(weight):
            raise SchemaError(
                f"relation {self.name!r}: weight {weight!r} is not finite"
            )
        self.rows.append(row)
        self.weights.append(weight)
        self._indexes.clear()

    def extend(
        self, rows: Iterable[Sequence[Any]], weights: Optional[Iterable[float]] = None
    ) -> None:
        """Append many rows (with optional parallel weights): one
        :meth:`bulk_load`, so nothing is appended when any row is bad."""
        rows = list(rows)
        self.bulk_load(
            rows, [0.0] * len(rows) if weights is None else list(weights)
        )

    def bulk_load(
        self, rows: Sequence[Sequence[Any]], weights: Sequence[float]
    ) -> None:
        """Append many rows at once, validating vector-at-a-time.

        The bulk counterpart of :meth:`add` for engines that materialize
        whole join results (the binary hash join, the batch baseline):
        one arity sweep, one finiteness sweep, one cache invalidation —
        instead of a per-row method call that clears the index cache
        ``len(rows)`` times.
        """
        rows = [row if type(row) is tuple else tuple(row) for row in rows]
        weights = [float(w) for w in weights]
        if len(rows) != len(weights):
            raise SchemaError(
                f"relation {self.name!r}: {len(rows)} rows but "
                f"{len(weights)} weights"
            )
        arity = len(self.schema)
        for row in rows:
            if len(row) != arity:
                raise SchemaError(
                    f"relation {self.name!r}: row {row!r} has arity "
                    f"{len(row)}, schema has arity {arity}"
                )
        if not all(map(math.isfinite, weights)):
            bad = next(w for w in weights if not math.isfinite(w))
            raise SchemaError(
                f"relation {self.name!r}: weight {bad!r} is not finite"
            )
        self.rows.extend(rows)
        self.weights.extend(weights)
        self._indexes.clear()

    # ------------------------------------------------------------------
    # Attribute access helpers
    # ------------------------------------------------------------------
    def positions(self, attrs: Sequence[str]) -> tuple[int, ...]:
        """Column positions of the named attributes.

        Memoized per attribute tuple: the schema never changes, and the
        hot loops (T-DP bucket keys, trie builds, factorized caches) ask
        for the same handful of attribute subsets millions of times —
        a linear ``schema.index`` scan per call was pure overhead.
        Raises :class:`SchemaError` for unknown attribute names.
        """
        attrs = tuple(attrs)
        cached = self._positions.get(attrs)
        if cached is not None:
            return cached
        try:
            resolved = tuple(self.schema.index(a) for a in attrs)
        except ValueError as exc:
            raise SchemaError(
                f"relation {self.name!r} with schema {self.schema} has no "
                f"attribute among {attrs!r}"
            ) from exc
        self._positions[attrs] = resolved
        return resolved

    def key_of(self, row: Sequence[Any], attrs: Sequence[str]) -> tuple:
        """Project ``row`` onto ``attrs`` (as a tuple key).

        Per-call-site users projecting many rows should resolve
        :meth:`positions` once and index directly; this convenience
        wrapper at least no longer pays a linear schema scan per call
        (see :meth:`positions`).
        """
        return tuple(row[p] for p in self.positions(attrs))

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def index_on(self, attrs: Sequence[str]) -> dict[tuple, list[int]]:
        """Hash index: projection key -> list of row positions.

        Built on first use and cached until the relation is mutated.
        """
        attrs = tuple(attrs)
        cached = self._indexes.get(attrs)
        if cached is not None:
            return cached
        positions = self.positions(attrs)
        index: dict[tuple, list[int]] = {}
        for i, row in enumerate(self.rows):
            key = tuple(row[p] for p in positions)
            index.setdefault(key, []).append(i)
        self._indexes[attrs] = index
        return index

    def distinct_keys(self, attrs: Sequence[str]) -> Iterable[tuple]:
        """Distinct projection keys on ``attrs``."""
        return self.index_on(attrs).keys()

    # ------------------------------------------------------------------
    # Relational operations (copying)
    # ------------------------------------------------------------------
    def derive(
        self,
        rows: list[tuple],
        weights: list[float],
        name: Optional[str] = None,
        schema: Optional[Sequence[str]] = None,
    ) -> "Relation":
        """The trusted constructor for relations *derived* from this one.

        Adopts the ready-made ``rows``/``weights`` lists without copying
        or re-validating them — they come out of relations whose tuples
        passed :meth:`add`/:meth:`bulk_load` at base insertion — and
        carries the data generation (``version``) over, so a derived
        relation never aliases a static fingerprint in the plan cache.  Passing this relation's own lists makes an O(1) *view*
        (another name/schema over the same storage); a view is read-only,
        which is safe because published snapshots are never mutated in
        place (:mod:`repro.dynamic` is copy-on-write).
        """
        out = Relation(
            name or self.name, self.schema if schema is None else schema
        )
        out.rows = rows
        out.weights = weights
        out.version = self.version
        return out

    def restrict(
        self, ids: Iterable[int], name: Optional[str] = None
    ) -> "Relation":
        """The rows at ``ids``, in that order (a fresh derived relation)."""
        rows, weights = self.rows, self.weights
        return self.derive(
            [rows[i] for i in ids], [weights[i] for i in ids], name
        )

    def project(self, attrs: Sequence[str], name: Optional[str] = None) -> "Relation":
        """Projection (bag semantics: keeps duplicates and weights)."""
        positions = self.positions(attrs)
        return self.derive(
            [tuple(row[p] for p in positions) for row in self.rows],
            list(self.weights),
            name or f"pi_{self.name}",
            attrs,
        )

    def select(
        self, predicate: Callable[[tuple], bool], name: Optional[str] = None
    ) -> "Relation":
        """Selection by an arbitrary row predicate."""
        return self.restrict(
            [i for i, row in enumerate(self.rows) if predicate(row)],
            name or f"sigma_{self.name}",
        )

    def rename(
        self, mapping: dict[str, str], name: Optional[str] = None
    ) -> "Relation":
        """Rename attributes; shares row storage semantics by copying."""
        return self.derive(
            list(self.rows),
            list(self.weights),
            name,
            tuple(mapping.get(a, a) for a in self.schema),
        )

    def copy(self, name: Optional[str] = None) -> "Relation":
        """Shallow copy (rows are immutable tuples, so this is safe)."""
        return self.derive(list(self.rows), list(self.weights), name)

    def sorted_by_weight(self) -> "Relation":
        """A copy sorted by ascending weight (ties broken by row value).

        Ties are broken by the type-tagged row order
        (:func:`repro.anyk.ranking.solution_tie_key`), not by the raw
        row: comparing raw rows raises ``TypeError`` on heterogeneous
        columns (``int < str``), which the hub-graph datasets mixing
        string hub labels with integer spokes hit through the top-k
        middleware's sorted scans.
        """
        # Deferred import: repro.anyk sits above repro.data.
        from repro.anyk.ranking import solution_tie_key

        rows, weights = self.rows, self.weights
        return self.restrict(
            sorted(
                range(len(rows)),
                key=lambda i: (weights[i], solution_tie_key(rows[i])),
            )
        )

    def as_set(self) -> set[tuple]:
        """The set of distinct rows (weights ignored)."""
        return set(self.rows)
