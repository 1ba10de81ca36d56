"""Partition a database by a join attribute for parallel any-k runs.

The soundness argument is the classical one for distributing conjunctive
queries (the CQ-evaluation line the paper's related work builds on):
pick one query variable ``v`` and partition its *value domain* into
``shards`` disjoint parts.  Every answer binds ``v`` to exactly one
value, hence falls in exactly one part — so running the query per shard
(with each atom that binds ``v`` restricted to tuples whose ``v``-column
lands in the part) yields ranked streams whose union is *exactly* the
global answer set, with no duplicates and no misses.  Atoms that do not
bind ``v`` are carried into every shard unchanged (shared, not copied).

The partition function is a seed-independent hash of the value
(``blake2b`` over ``repr``; Python's builtin ``hash`` is randomized per
process and would break cross-process determinism): oblivious to the
data, near-uniform on distinct values.

Self-joins are handled by rewriting: each atom that binds ``v`` gets its
own filtered relation under a fresh name (``E`` seen as ``E__p0`` /
``E__p1`` when atoms 0 and 1 bind ``v`` at different columns), so the
per-shard query joins exactly the restrictions it should.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.cq import Atom, ConjunctiveQuery, QueryError


def _canonical(value: object) -> object:
    """Collapse a value to a representative of its ``==`` class.

    Python join equality says ``True == 1 == 1.0``, and the serial
    engines inherit it through dict-based hash indexes — so the shard
    function must respect it too, or numerically equal keys of
    different types (an int column joined against a float column, easy
    to produce via the CSV loader) land in different shards and their
    join answers silently vanish.
    """
    if isinstance(value, bool):
        return 1 if value else 0
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, tuple):
        return tuple(_canonical(v) for v in value)
    return value


def stable_hash(value: object) -> int:
    """A process- and run-independent 64-bit hash of a column value.

    Hashes the :func:`_canonical` representative, so values that join
    under ``==`` shard together.  ``repr`` is stable for the value
    types relations hold (ints, floats, strings, tuples thereof);
    ``blake2b`` mixes it.  Never use builtin ``hash`` here: string
    hashing is salted per interpreter, and a shard function that
    disagrees between runs (or between a parent and a spawned — not
    forked — worker) silently corrupts the partition.
    """
    digest = hashlib.blake2b(
        repr(_canonical(value)).encode("utf-8"), digest_size=8
    )
    return int.from_bytes(digest.digest(), "big")


def choose_shard_variable(query: ConjunctiveQuery) -> str:
    """The join attribute to partition on.

    Preference: the variable appearing in the most atoms (restricting
    more relations shrinks more per-shard work), ties broken by first
    appearance in the query — deterministic, so plans are reproducible.
    """
    counts: dict[str, int] = {v: 0 for v in query.variables}
    for atom in query.atoms:
        for variable in atom.variable_set:
            counts[variable] += 1
    return max(query.variables, key=lambda v: counts[v])


@dataclass(frozen=True)
class ShardingSpec:
    """How one database+query pair was partitioned.

    ``assign`` maps a ``v`` value to its shard index: a pure function of
    the value (:func:`stable_hash` modulo ``shards``).
    """

    variable: str
    shards: int
    assign: Callable[[object], int]


def make_spec(
    query: ConjunctiveQuery, shards: int, variable: Optional[str] = None
) -> ShardingSpec:
    """Build the sharding decision without materializing shards yet."""
    if shards < 1:
        raise ValueError("shard count must be >= 1")
    if variable is None:
        variable = choose_shard_variable(query)
    elif variable not in query.variables:
        raise QueryError(
            f"shard variable {variable!r} is not a variable of {query}"
        )
    return ShardingSpec(
        variable=variable,
        shards=shards,
        assign=lambda value: stable_hash(value) % shards,
    )


@dataclass
class Shard:
    """One partition: a database plus the (possibly rewritten) query."""

    index: int
    database: Database
    query: ConjunctiveQuery

    def is_trivially_empty(self) -> bool:
        """True when some referenced relation has no tuples (no answers
        possible — not worth a worker process)."""
        return any(
            len(self.database[atom.relation]) == 0 for atom in self.query.atoms
        )


def shard_database(
    db: Database,
    query: ConjunctiveQuery,
    shards: int,
    variable: Optional[str] = None,
) -> tuple[list[Shard], ShardingSpec]:
    """Partition ``db`` for ``query`` into ``shards`` disjoint instances.

    Every atom binding the shard variable points, per shard, at a
    filtered copy of its relation (restricted on that atom's first
    ``v``-column); other atoms share their base relation across all
    shards.  The returned queries are structurally identical to
    ``query`` (same atom order, same variables), so join trees — and
    hence per-answer weight folds — match the serial run exactly.
    """
    query.validate(db)
    spec = make_spec(query, shards, variable=variable)
    assign = spec.assign

    # Per atom: the column to filter on (None = atom does not bind v).
    filter_columns: list[Optional[int]] = [
        atom.variables.index(spec.variable)
        if spec.variable in atom.variable_set
        else None
        for atom in query.atoms
    ]

    # One scan (and one assign() per row) per binding atom: bucket its
    # relation into all shards at once instead of re-filtering — and
    # re-hashing — the relation once per shard.
    partitions: dict[int, list[Relation]] = {}
    for atom_index, atom in enumerate(query.atoms):
        column = filter_columns[atom_index]
        if column is None:
            continue
        relation = db[atom.relation]
        name = f"{atom.relation}__p{atom_index}"
        # Buckets inherit the base relation's snapshot generation (derive):
        # the shard payload a worker pickles is pinned to the exact
        # versions the plan was costed on.
        buckets = [relation.derive([], [], name) for _ in range(shards)]
        for row, weight in zip(relation.rows, relation.weights):
            bucket = buckets[assign(row[column])]
            bucket.rows.append(row)
            bucket.weights.append(weight)
        partitions[atom_index] = buckets

    out: list[Shard] = []
    for shard_index in range(shards):
        shard_db = Database()
        shard_db.version = db.version
        atoms: list[Atom] = []
        for atom_index, atom in enumerate(query.atoms):
            if filter_columns[atom_index] is None:
                if atom.relation not in shard_db:
                    shard_db.add(db[atom.relation])
                atoms.append(atom)
                continue
            filtered = partitions[atom_index][shard_index]
            shard_db.replace(filtered)
            atoms.append(Atom(filtered.name, atom.variables))
        out.append(
            Shard(
                index=shard_index,
                database=shard_db,
                query=ConjunctiveQuery(atoms, name=query.name),
            )
        )
    return out, spec
