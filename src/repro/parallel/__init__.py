"""Partition-parallel any-k execution: a sharded query is a union of streams.

Single-threaded any-k caps every query at one core; this package scales
ranked enumeration across worker processes without giving up a single
guarantee:

- :mod:`repro.parallel.sharding` partitions the database by a hash of
  one join attribute — answers partition with the attribute's values,
  so per-shard answer sets are disjoint and their union is exactly the
  global answer set;
- :mod:`repro.parallel.workers` runs each shard's
  :func:`~repro.anyk.rank_enumerate` in its own process behind a bounded
  queue (backpressure keeps the pool anytime), and merges the per-shard
  ranked streams as the parts of a union — the compile seam's
  :func:`~repro.anyk.api.merge_parts`, then the
  :func:`~repro.anyk.ranking.stabilize_ties` every serial stream gets —
  so the merged stream is **byte-identical** to the serial one.

Entry points: :func:`repro.anyk.rank_enumerate` grows a ``workers=N``
argument, the cost-based router decides *whether* sharding pays off
(``explain()`` shows the decision), and ``repro-serve --workers N``
serves merged streams through the same resumable cursors as serial ones.
"""

from repro.anyk.api import query_shape
from repro.anyk.ranking import RANKINGS_BY_NAME, RankingFunction
from repro.parallel.sharding import (
    Shard,
    ShardingSpec,
    choose_shard_variable,
    shard_database,
    stable_hash,
)
from repro.parallel.workers import ShardWorkerError, parallel_rank_enumerate
from repro.query.cq import ConjunctiveQuery

#: rank_enumerate methods besides ``part:*`` the pool can run.
SHARDABLE_METHODS_EXTRA = ("rec", "batch", "lawler")


def is_shardable(
    query: ConjunctiveQuery, ranking: RankingFunction, method: str
) -> bool:
    """Can this (query, ranking, method) run partition-parallel soundly?

    Three conditions:

    - **acyclic query** — per-shard join trees are then structurally
      identical to the serial one, so per-answer weight folds agree
      bitwise (cyclic rewrites recompute heavy/light thresholds per
      shard, which can re-associate float combines);
    - **registered ranking** — workers resolve the ranking by name
      across the pickle boundary, so it must be one of the provided
      instances (:data:`~repro.anyk.ranking.RANKINGS_BY_NAME`);
    - **known method** — an any-k engine, the batch baseline or naive
      Lawler.
    """
    if RANKINGS_BY_NAME.get(ranking.name) is not ranking:
        return False
    if not (method.startswith("part:") or method in SHARDABLE_METHODS_EXTRA):
        return False
    return query_shape(query).kind == "acyclic"


__all__ = [
    "SHARDABLE_METHODS_EXTRA",
    "Shard",
    "ShardWorkerError",
    "ShardingSpec",
    "choose_shard_variable",
    "is_shardable",
    "parallel_rank_enumerate",
    "shard_database",
    "stable_hash",
]
