"""Relation statistics for cost-based routing.

The planner's raw material: per-atom cardinalities pulled from the
:class:`~repro.data.database.Database`.  Statistics are gathered on
demand at planning time (the library's engines assume no precomputation
— tutorial §1's setting), and the routing rules read only sizes, so
gathering costs O(1) per atom.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.database import Database
from repro.query.cq import ConjunctiveQuery


@dataclass(frozen=True)
class AtomStats:
    """Statistics of one query atom's relation."""

    relation: str
    size: int


@dataclass(frozen=True)
class CatalogStats:
    """Everything the router reads about the data."""

    atoms: tuple[AtomStats, ...]
    max_size: int  # n, the paper's size parameter
    total_tuples: int

    @classmethod
    def gather(cls, db: Database, query: ConjunctiveQuery) -> "CatalogStats":
        """Gather the cardinality of each of ``query``'s atoms."""
        cardinalities = db.sizes()
        atoms = [
            AtomStats(relation=atom.relation, size=cardinalities[atom.relation])
            for atom in query.atoms
        ]
        sizes = [a.size for a in atoms]
        return cls(
            atoms=tuple(atoms),
            max_size=max(sizes) if sizes else 0,
            total_tuples=db.total_tuples(),
        )

    @property
    def sizes(self) -> list[int]:
        return [a.size for a in self.atoms]

    def any_empty(self) -> bool:
        return any(a.size == 0 for a in self.atoms)


def database_fingerprint(db: Database, only=None) -> tuple:
    """A cheap, hashable token identifying the catalog's *shape*.

    Covers relation names, schemas, cardinalities, and copy-on-write
    version ids — everything the router's statistics read, plus the one
    token that distinguishes equal-cardinality generations of mutated
    data (delete one row, insert another: same length, different
    contents, different version).  Relation objects are immutable after
    registration (:meth:`Relation.copy` shares row storage on that
    basis); mutations go through :class:`repro.dynamic.VersionedDatabase`,
    which publishes *new* relation objects with bumped versions — so two
    equal fingerprints mean a cached plan still describes the data.
    O(#relations), not O(tuples): fingerprinting must stay far cheaper
    than the planning it short-cuts.

    ``only`` restricts the fingerprint to the named relations (the ones
    a statement's FROM list references), so mutating relation ``S`` does
    not invalidate cached plans for queries that only touch ``R`` —
    names absent from the catalog contribute a distinct marker, so a
    later-added relation of that name still changes the fingerprint.
    """
    if only is None:
        return tuple(
            sorted((r.name, r.schema, len(r), r.version) for r in db)
        )
    names = set(only)
    items = [
        (r.name, r.schema, len(r), r.version) for r in db if r.name in names
    ]
    items.extend(
        (name, None, -1, -1) for name in names if name not in db
    )
    return tuple(sorted(items, key=lambda item: item[0]))
