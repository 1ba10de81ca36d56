"""Ranking functions as selective dioids (tutorial Part 3).

The companion paper frames the class of ranking functions any-k algorithms
support algebraically: a *selective dioid* — a semiring whose "addition" is
selective (x ⊕ y ∈ {x, y}, i.e. min under a total order) and whose
"multiplication" ⊗ accumulates weights along a solution and is monotone
w.r.t. the order.  Monotonicity is exactly what makes the DP principle of
optimality (and hence ranked enumeration) work.

A :class:`RankingFunction` packages ⊗, its identity, and a ``lift`` from raw
float tuple weights into the dioid's carrier.  Provided instances:

- :data:`SUM` — tropical (min, +): total weight of the combination, the
  "lightest 4-cycles" ranking;
- :data:`MAX` — bottleneck (min, max): minimize the heaviest participating
  tuple;
- :data:`PRODUCT` — (min, ×) over positive weights, via logs;
- :data:`LEX` — lexicographic comparison of the per-stage weight vector
  (carrier: tuples of floats).

Each has an *order dual* in :data:`DESC_RANKINGS`, which ``ORDER BY …
DESC`` resolves to: heaviest-first is the dual's lightest-first.

All carriers compare with ``<`` and support equality, which is all the
enumeration machinery assumes.

Deterministic tie-breaking
--------------------------
Equal-weight results are ordered by *tuple identity* — the total order
:func:`solution_tie_key` puts on output rows — never by insertion order.
Insertion order is an artifact of how an engine happened to discover a
result (heap tick, bucket layout, shard assignment), so two executions
over differently laid-out inputs would disagree on it; the row itself is
a property of the *answer*.  :func:`stabilize_ties` enforces the order on
any nondecreasing stream, and is what makes a hash-sharded parallel run
(:mod:`repro.parallel`) byte-identical to a serial one.  The price is
buffering one tie group before emitting any of it: when every weight is
equal the group is the whole join, so the first answer waits for the
last (a zero-weight 4-path took 51.1 s to its first answer against
5.6 ms with ``rank_enumerate(..., deterministic=False)``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator


@dataclass(frozen=True)
class RankingFunction:
    """A selective dioid driving ranked enumeration.

    Attributes
    ----------
    name:
        Identifier used in benchmarks and ``repr``.
    combine:
        The monotone accumulation operator ⊗ on the carrier.
    identity:
        ⊗'s identity element (the weight of an empty combination).
    lift:
        Maps a raw input-tuple weight (float) into the carrier.
    raw_combine:
        ⊗ in raw weight space (see :meth:`float_combine`); None when the
        carrier is not ``float`` (LEX).
    """

    name: str
    combine: Callable[[Any, Any], Any]
    identity: Any
    lift: Callable[[float], Any]
    raw_combine: Callable[[float, float], float] | None = None

    def combine_many(self, weights) -> Any:
        """Fold ⊗ over an iterable (in iteration order)."""
        total = self.identity
        first = True
        for w in weights:
            total = w if first else self.combine(total, w)
            first = False
        return total

    def float_combine(self) -> Callable[[float, float], float]:
        """⊗ in *raw weight space*, for engines that pre-combine weights.

        The contract is ``lift(raw_combine(a, b)) == combine(lift(a),
        lift(b))`` so that a derived relation storing pre-combined raw
        weights ranks identically (e.g. PRODUCT pre-combines with ``a*b``,
        not with ``log a + log b``).  Raises :class:`TypeError` for
        non-float carriers (LEX), whose weights cannot be collapsed inside
        derived relations.
        """
        if self.raw_combine is None:
            raise TypeError(
                f"ranking {self.name!r} has a non-float carrier and cannot "
                "be pre-combined inside derived relations"
            )
        return self.raw_combine

    def __repr__(self) -> str:
        return f"RankingFunction({self.name})"


def _product_lift(weight: float) -> float:
    if weight <= 0:
        raise ValueError(
            f"PRODUCT ranking requires strictly positive weights, got {weight}"
        )
    return math.log(weight)


#: Tropical sum: results ranked by total weight (the default everywhere).
SUM = RankingFunction(
    "sum", operator.add, 0.0, float, raw_combine=lambda a, b: a + b
)

#: Bottleneck: results ranked by their heaviest participating tuple.
MAX = RankingFunction(
    "max", max, float("-inf"), float, raw_combine=lambda a, b: max(a, b)
)

#: Product of (positive) weights, compared in log space for stability.
PRODUCT = RankingFunction(
    "product",
    operator.add,
    0.0,
    _product_lift,
    raw_combine=lambda a, b: a * b,
)

#: Lexicographic: compare per-stage weight vectors position by position.
#: Carrier is tuples; all solutions of one query have equal-length vectors,
#: which keeps concatenation strictly monotone.
LEX = RankingFunction("lex", operator.add, (), lambda w: (float(w),))

#: All provided rankings (each ranks raw weights ascending).
ALL_RANKINGS = (SUM, MAX, PRODUCT, LEX)

#: Order duals, keyed by the name of the ranking each one reverses: the
#: lift is negated (componentwise for LEX), so ascending dual order is
#: heaviest-first original order.  ⊗ is unchanged except for MAX, whose
#: dual folds with ``min`` from ``+inf``.  The raw fold is unchanged as
#: well, since the dual lift of a raw fold is the dual fold of the lifts.
#: The SQL executor flips the sign back once on output.
DESC_RANKINGS: dict[str, RankingFunction] = {
    "sum": RankingFunction(
        "sum desc", operator.add, 0.0, lambda w: -float(w),
        raw_combine=SUM.raw_combine,
    ),
    "max": RankingFunction(
        "max desc", min, float("inf"), lambda w: -float(w),
        raw_combine=MAX.raw_combine,
    ),
    "product": RankingFunction(
        "product desc", operator.add, 0.0, lambda w: -_product_lift(w),
        raw_combine=PRODUCT.raw_combine,
    ),
    "lex": RankingFunction("lex desc", operator.add, (), lambda w: (-float(w),)),
}

#: Name -> instance, the registry process-pool workers resolve against:
#: a :class:`RankingFunction` holds lambdas and so cannot cross a pickle
#: boundary — its *name* can (:mod:`repro.parallel.workers`).  The duals
#: are registered but stay out of :data:`ALL_RANKINGS`.
RANKINGS_BY_NAME: dict[str, RankingFunction] = {
    ranking.name: ranking
    for ranking in (*ALL_RANKINGS, *DESC_RANKINGS.values())
}


def ranking_by_name(name: str) -> RankingFunction:
    """Resolve a provided ranking by its registry name."""
    try:
        return RANKINGS_BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown ranking {name!r}; known: {sorted(RANKINGS_BY_NAME)}"
        ) from None


# ----------------------------------------------------------------------
# Deterministic tie-breaking
# ----------------------------------------------------------------------
def solution_tie_key(row: tuple) -> tuple:
    """A total order on output rows, independent of value types.

    Each value is decorated with its class name so heterogeneous columns
    (the hub-graph generators mix ``"b"``-style hub labels with integer
    spokes) never hit an unorderable ``int < str`` comparison: values
    order by type name first, then by value within one type.
    """
    return tuple((value.__class__.__name__, value) for value in row)


def stabilize_ties(
    stream: Iterable[tuple[tuple, Any]],
    key: Callable[[tuple], Any] = solution_tie_key,
) -> Iterator[tuple[tuple, Any]]:
    """Re-emit a nondecreasing ranked stream with deterministic tie order.

    Consecutive results of *equal* weight form a tie group; each group is
    emitted sorted by ``key`` of the row.  Since the input stream is
    nondecreasing, a group is complete as soon as a strictly heavier
    result (or exhaustion) is seen: the stream buffers one tie group, and
    a group's first result waits for its last.  That is one result of
    lookahead on distinct weights, and the whole join when every weight
    is equal.  Weights are compared with ``==`` in the ranking carrier.
    """
    iterator = iter(stream)
    head = next(iterator, None)
    if head is None:
        return
    #: the tie group ``head`` opens — a list only once a second result of
    #: its weight has actually arrived
    group = None
    for item in iterator:
        if item[1] == head[1]:
            if group is None:
                group = [head]
            group.append(item)
            continue
        if group is None:
            yield head
        else:
            group.sort(key=lambda pair: key(pair[0]))
            yield from group
            group = None
        head = item
    if group is None:
        yield head
    else:
        group.sort(key=lambda pair: key(pair[0]))
        yield from group
