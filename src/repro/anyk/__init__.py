"""Ranked enumeration over joins — "any-k" algorithms (tutorial Part 3).

An any-k ("anytime top-k") algorithm returns join results one by one in
ranking order, minimizing the time to the k-th result for *every* k without
knowing k in advance.  The implementation follows the companion VLDB 2020
paper the tutorial presents: any-k algorithms are extensions of non-serial
dynamic programming over the query's join tree.

Modules:

- :mod:`repro.anyk.ranking` — ranking functions as selective dioids (sum,
  max/bottleneck, product, lexicographic);
- :mod:`repro.anyk.tdp` — the tree-based dynamic program (T-DP): stages,
  buckets keyed by parent join values, bottom-up optimal subtree weights;
- :mod:`repro.anyk.part` — ANYK-PART, the Lawler–Murty prefix-deviation
  scheme with pluggable bucket successor strategies (Eager, Lazy, All,
  Take2, Quick) and a from-scratch "naive Lawler" baseline with
  polynomial delay;
- :mod:`repro.anyk.rec` — ANYK-REC, recursive enumeration à la
  Jiménez–Marzal / Hoffman–Pavley k-shortest paths, with memoized
  per-bucket solution streams;
- :mod:`repro.anyk.batch` — the batch baseline (full join, then sort);
- :mod:`repro.anyk.api` — the one compile seam
  (:func:`~repro.anyk.api.compile_program`: a T-DP for an acyclic query,
  one per heavy/light union tree for the 4-cycle, a GHD rewrite
  otherwise), the :func:`~repro.anyk.api.rank_enumerate` façade over it,
  and the Boolean :func:`~repro.anyk.api.has_any_result`;
- :mod:`repro.anyk.cyclic` — two older names over the seam for the
  4-cycle's union of trees.
"""

from repro.anyk.api import (
    METHODS,
    PausableStream,
    StreamClosed,
    rank_enumerate,
)
from repro.anyk.ranking import LEX, MAX, PRODUCT, SUM, RankingFunction

__all__ = [
    "rank_enumerate",
    "PausableStream",
    "StreamClosed",
    "METHODS",
    "RankingFunction",
    "SUM",
    "MAX",
    "PRODUCT",
    "LEX",
]
