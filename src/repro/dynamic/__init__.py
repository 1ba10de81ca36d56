"""Dynamic data: versioned databases with snapshot-isolated readers.

``repro.dynamic`` lets the ranked-enumeration stack serve *changing*
data without breaking the any-k contract.  A
:class:`VersionedDatabase` publishes immutable copy-on-write snapshots
with monotonically increasing version ids; mutations
(:class:`Insert` / :class:`Delete`, or SQL ``INSERT INTO`` /
``DELETE FROM`` through :func:`repro.sql.mutate`) build the next
snapshot without touching the previous one, so every open cursor keeps
enumerating the exact generation it was planned on while new queries see
the newest data.  Version ids flow into the engine catalog's
fingerprints, which is what the plan cache validates its entries
against.

Quickstart::

    from repro.dynamic import VersionedDatabase
    import repro.sql

    vdb = VersionedDatabase(db)
    stream = repro.sql.query(vdb.snapshot(), "SELECT ... LIMIT 100")
    vdb.insert("E", [(1, 2)], weights=[0.5])      # new snapshot, version 2
    repro.sql.mutate(vdb, "DELETE FROM E WHERE src = 1")   # version 3
    list(stream)   # still exactly the version-1 ranked stream
"""

from repro.dynamic.mutations import (
    Delete,
    Insert,
    Mutation,
    MutationError,
    MutationResult,
    insert,
)
from repro.dynamic.versioned import VersionedDatabase

__all__ = [
    "Delete",
    "Insert",
    "Mutation",
    "MutationError",
    "MutationResult",
    "VersionedDatabase",
    "insert",
]
