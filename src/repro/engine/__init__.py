"""Cost-based engine routing for ranked enumeration.

The planner picks among the :func:`repro.anyk.rank_enumerate` methods —
batch join + sort, ANYK-PART and ANYK-REC — based on query shape
(acyclic / 4-cycle / general cyclic), the ranking function, ``k``, and
AGM/width estimates over the actual catalog.  The SQL front-end
(:mod:`repro.sql`) routes every statement through here;
:func:`repro.anyk.rank_enumerate` exposes the same rules as
``method="auto"``.
"""

from repro.engine.catalog import AtomStats, CatalogStats, database_fingerprint
from repro.engine.executor import execute, filtered_database
from repro.engine.planner import (
    Plan,
    PlanEstimates,
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
    "plan_compiled",
    "execute",
    "filtered_database",
]
