"""Versioned databases: copy-on-write snapshots under mutation.

The any-k algorithms assume a static instance, but a serving workload
mutates data while long-lived ranked cursors are still draining.  This
layer reconciles the two with the oldest trick in the book — **snapshot
isolation via copy-on-write**:

- A :class:`VersionedDatabase` holds one *published snapshot*: an
  ordinary :class:`~repro.data.database.Database` whose relations are
  treated as immutable (the library-wide contract the enumeration
  engines already rely on).
- Applying a mutation never touches a published relation object.  It
  builds a *new* :class:`~repro.data.relation.Relation` for the one
  relation the mutation names (rows shared where possible), stamps it
  with the next monotonically increasing version id, wraps it in a new
  :class:`Database` that **shares** every untouched relation object, and
  publishes that as the new snapshot.
- Readers grab :meth:`snapshot` once and keep enumerating against it for
  as long as they like: every open cursor sees the exact generation it
  was planned on — never truncated, never contaminated by concurrent
  writes — while new queries plan against the newest snapshot.

Version ids tell generations apart even when cardinalities happen to
match (delete one row, insert another): EXPLAIN reports the version a
plan was costed on, and shard payloads carry it.  Nothing derived from
the data outlives a request's snapshot: the server caches only analyzed
statements, which read relation schemas, and routes every request on its
own snapshot.

Thread-safety: mutations serialize on a lock; reading the published
snapshot is a single attribute load (atomic), so readers never block
writers and vice versa.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional

from repro.data.database import Database
from repro.data.relation import Relation, SchemaError
from repro.dynamic.mutations import (
    Delete,
    Insert,
    Mutation,
    MutationError,
    MutationResult,
)


class VersionedDatabase:
    """A mutable catalog publishing immutable, versioned snapshots.

    Parameters
    ----------
    db:
        The initial contents.  Copied by default (relations get fresh
        row lists; row tuples are shared) so later in-place edits to the
        caller's objects cannot leak into published snapshots — pass
        ``copy=False`` only when the caller hands over ownership.
    """

    def __init__(self, db: Optional[Database] = None, copy: bool = True) -> None:
        base = (db.copy() if copy else db) if db is not None else Database()
        self._version = 1
        base.version = self._version
        self._snapshot = base
        self._lock = threading.Lock()
        self._mutations = 0
        self._inserted_rows = 0
        self._deleted_rows = 0

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The version id of the currently published snapshot."""
        return self._snapshot.version  # type: ignore[return-value]

    def snapshot(self) -> Database:
        """The current snapshot — immutable, version-stamped, safe to
        enumerate for arbitrarily long after later mutations."""
        return self._snapshot

    def relation_version(self, name: str) -> int:
        """The version id of one relation's current generation (0 when it
        has never been mutated through this layer)."""
        return self._snapshot[name].version

    def info(self) -> dict:
        """Observability: version, mutation counts, per-relation versions
        (the server's ``stats`` op includes this block)."""
        snapshot = self._snapshot
        return {
            "version": snapshot.version,
            "mutations": self._mutations,
            "inserted_rows": self._inserted_rows,
            "deleted_rows": self._deleted_rows,
            "relation_versions": {r.name: r.version for r in snapshot},
        }

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def apply(self, mutation: Mutation) -> MutationResult:
        """Commit one mutation; returns what it did and the new version.

        Atomic: the mutated relation is fully built and validated before
        anything is published, so a failing row (wrong arity, non-finite
        weight) leaves the current snapshot untouched.
        """
        with self._lock:
            current = self._snapshot
            name = mutation.relation
            if name not in current:
                raise MutationError(
                    f"cannot mutate unknown relation {name!r}; catalog has: "
                    f"{', '.join(current.names()) or '(empty database)'}"
                )
            next_version = current.version + 1  # type: ignore[operator]
            if isinstance(mutation, Insert):
                replacement, count = self._inserted(current[name], mutation)
                kind = "insert"
                self._inserted_rows += count
            elif isinstance(mutation, Delete):
                replacement, count = self._deleted(current[name], mutation)
                kind = "delete"
                self._deleted_rows += count
            else:
                raise MutationError(
                    f"unknown mutation type {type(mutation).__name__!r}"
                )
            replacement.version = next_version
            published = Database()
            for relation in current:
                published.add(
                    replacement if relation.name == name else relation
                )
            published.version = next_version
            self._snapshot = published
            self._mutations += 1
            return MutationResult(
                kind=kind, relation=name, rows=count, version=next_version
            )

    def apply_many(self, mutations: Iterable[Mutation]) -> list[MutationResult]:
        """Commit a batch in order; each mutation gets its own version."""
        return [self.apply(mutation) for mutation in mutations]

    @staticmethod
    def _inserted(relation: Relation, mutation: Insert) -> tuple[Relation, int]:
        replacement = relation.copy()
        try:
            replacement.extend(mutation.rows, mutation.weights)
        except SchemaError as exc:
            raise MutationError(str(exc)) from exc
        return replacement, len(mutation.rows)

    @staticmethod
    def _deleted(relation: Relation, mutation: Delete) -> tuple[Relation, int]:
        predicate = mutation.predicate
        if predicate is None:  # DELETE without WHERE: drop everything
            return relation.restrict(()), len(relation)
        try:
            kept = relation.select(lambda row: not predicate(row), relation.name)
        except Exception as exc:
            raise MutationError(
                f"delete predicate on {relation.name!r} failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        return kept, len(relation) - len(kept)

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def insert(
        self,
        relation: str,
        rows,
        weights=None,
    ) -> MutationResult:
        """Shorthand for :func:`repro.dynamic.mutations.insert` + apply."""
        from repro.dynamic.mutations import insert as make_insert

        return self.apply(make_insert(relation, rows, weights))

    def delete(
        self,
        relation: str,
        predicate=None,
        description: str = "",
    ) -> MutationResult:
        """Shorthand for building and applying a :class:`Delete`."""
        return self.apply(Delete(relation, predicate, description))

    def __repr__(self) -> str:
        snapshot = self._snapshot
        return (
            f"VersionedDatabase(version={snapshot.version}, "
            f"{len(snapshot)} relations, {self._mutations} mutations)"
        )
