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
