"""Cost-based engine routing for ranked enumeration.

The planner picks among the engines the library already implements —
batch join + sort, ANYK-PART, ANYK-REC, and the rank-join middleware —
based on query shape (acyclic / 4-cycle / general cyclic), the ranking
function, ``k``, and AGM/width estimates over the actual catalog.  The SQL
front-end (:mod:`repro.sql`) routes every statement through here;
:func:`repro.anyk.rank_enumerate` exposes the same rules as
``method="auto"``.
"""

from repro.engine.catalog import AtomStats, CatalogStats, database_fingerprint
from repro.engine.executor import execute, filtered_database
from repro.engine.planner import (
    Plan,
    PlanEstimates,
    choose_method,
    plan_compiled,
    route,
)

__all__ = [
    "AtomStats",
    "CatalogStats",
    "database_fingerprint",
    "Plan",
    "PlanEstimates",
    "route",
    "choose_method",
    "plan_compiled",
    "execute",
    "filtered_database",
]
