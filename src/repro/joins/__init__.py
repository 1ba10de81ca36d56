"""Join algorithms (tutorial Part 2).

Engines share one contract: ``evaluate(db, query, counters=None,
combine=add)`` returns a :class:`~repro.data.relation.Relation` whose schema
is the query's variables and whose tuple weights combine the weights of the
participating input tuples (bag semantics — duplicate input rows yield
duplicate outputs).

Implemented engines, in the order the tutorial discusses them:

- :mod:`repro.joins.naive` — cartesian product + filter; ground truth for
  the test suite.
- :mod:`repro.joins.hash_join` / :mod:`repro.joins.binary_plan` — the
  classic two-relations-at-a-time approach of database optimizers, with
  intermediate-result accounting (the quantity that blows up on cyclic
  queries, §3).
- :mod:`repro.joins.semijoin` / :mod:`repro.joins.yannakakis` — full
  reducers and the O~(n + r) Yannakakis algorithm for acyclic queries.
- :mod:`repro.joins.generic_join` — Generic-Join, worst-case optimal
  (matches the AGM bound).
- :mod:`repro.joins.trie` / :mod:`repro.joins.leapfrog` — Leapfrog
  Triejoin, the other WCO algorithm the tutorial cites.
- :mod:`repro.joins.heavylight` — the 4-cycle's heavy/light union of
  trees.  The compile seam (:mod:`repro.anyk.api`) runs it for ranked
  enumeration and for the O~(n^1.5) Boolean 4-cycle query
  (:func:`repro.anyk.api.has_any_result`) behind the introduction's claim.
"""

from repro.joins.base import atom_relation, multiset
from repro.joins.binary_plan import evaluate_left_deep, greedy_plan, all_left_deep_orders
from repro.joins.generic_join import evaluate as generic_join
from repro.joins.leapfrog import evaluate as leapfrog_join
from repro.joins.naive import evaluate as naive_join
from repro.joins.yannakakis import evaluate as yannakakis_join

__all__ = [
    "atom_relation",
    "multiset",
    "naive_join",
    "evaluate_left_deep",
    "greedy_plan",
    "all_left_deep_orders",
    "yannakakis_join",
    "generic_join",
    "leapfrog_join",
]
