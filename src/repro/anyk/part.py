"""ANYK-PART: Lawler–Murty ranked enumeration over the T-DP (Part 3).

The Lawler–Murty procedure partitions the solution space by *prefix
deviations*: when the best solution S of a subspace is emitted, the
remainder of the subspace is split, per position j, into the solutions that
agree with S before j and deviate at j.  Exploiting the T-DP structure, the
best solution of each piece is known *exactly* without solving anything
from scratch — prefix weight plus frontier bucket minima — which is what
brings the delay from polynomial (naive Lawler, also provided here as
:func:`naive_lawler` for experiment E10) down to O(log k).

The variants of the companion paper differ only in how the *successor* of a
tuple inside a bucket (ordered by subtree weight) is found:

========  ==================================================================
Eager     every touched bucket is fully sorted on first use
Lazy      incremental heap-sort per bucket (pay O(log b) per rank needed)
Quick     incremental quickselect per bucket
Take2     bucket heapified once; "successors" are the ≤ 2 heap children,
          so every pop inserts O(1) candidates
All       no order at all: deviating into a bucket inserts *all* its
          alternatives at once
========  ==================================================================

The candidate record
--------------------
A candidate subspace is the paper's O(1) record, one flat heap entry::

    (priority, tick, solution, position, choice, anchor, bucket, prefix_weight)

``solution`` is the tuple-id list of the *emitted answer the candidate
deviates from*, shared by reference by all of that answer's successors (an
empty list for the root seeds); the candidate agrees with it before
``position`` and takes tuple ``choice`` — the strategy's ``anchor`` inside
``bucket`` — there, constrained to rank ≥ its own (per strategy).
``prefix_weight`` is the left fold of the lifted weights before
``position`` (``None`` at position 0), so::

    priority = prefix_weight ⊗ lifted[position][choice]
                             ⊗ (bucket minima of the frontier after position)

folded in exactly the DFS pre-order :meth:`TDP.prefix_priority` defines
(floats bit-identical to it, LEX safe).  The frontier *stages* after a
position are static; their buckets are the children's, read off the chosen
tuple's row, then those the emitted answer already walked.

Popping a candidate is one *expansion pass* (copy the shared prefix, take
``choice``, give every later stage its bucket minimum, remembering the
buckets walked), the ``yield``, then one *push pass* carrying a running
prefix weight: one horizontal successor set (the rest of ``bucket`` after
``anchor``) plus one vertical deviation set per later stage (everything but
the best of the bucket walked there) — exactly Lawler's partition, so every
solution is enumerated exactly once.  That is O(ℓ) per answer and O(1) per
candidate on paths (O(frontier) on trees); tuple-id lists and output rows
exist only for emitted answers.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Iterator, Sequence

from repro.anyk.tdp import TDP, Bucket
from repro.obs.memory import tracker_of
from repro.util.heaps import (
    BinaryHeap,
    IncrementalQuickSelect,
    LazySortedList,
    TournamentBucket,
)

#: What a strategy call returns: ``(anchor, tuple id)`` per new candidate.
Pairs = Sequence[tuple[Any, int]]


def _pq_gauge(tdp: TDP):
    """The candidate-queue space gauge when profiling is on, else None."""
    space = tracker_of(tdp.counters)
    if space is None:
        return None
    return space.gauge("part.pq")


class SuccessorStrategy:
    """How ANYK-PART walks a bucket in nondecreasing subtree-weight order.

    ``anchor`` values are strategy-specific handles (sorted rank, heap
    position, …).  Each call answers with the ``(anchor, tuple id)`` pairs
    of the candidates to push: ``first`` those that together cover the
    whole bucket at start-up, ``after(bucket, anchor)`` those whose
    subspaces partition "strictly after ``anchor``", ``others`` those
    partitioning "everything but the best".  The per-bucket structure is
    built on first touch from ``zip(subtree_weights, range(n))`` — entries
    order themselves, equal weights by bucket position.
    """

    name = "abstract"

    def __init__(self, counters=None) -> None:
        self.counters = counters

    def first(self, bucket: Bucket) -> Pairs:
        raise NotImplementedError

    def after(self, bucket: Bucket, anchor: Any) -> Pairs:
        raise NotImplementedError

    def others(self, bucket: Bucket) -> Pairs:
        # Ordered strategies anchor their best at 0; All overrides.
        return self.after(bucket, 0)


class _RankedStrategy(SuccessorStrategy):
    """Strategies whose anchor is a sorted rank: ``bucket.structure`` maps
    a rank below ``len(bucket)`` to its ``(weight, index)`` entry, and
    successors chain through the bucket one rank at a time."""

    def _ranking(self, bucket: Bucket):
        """``rank -> (weight, index)`` over the bucket (built once)."""
        raise NotImplementedError

    def after(self, bucket: Bucket, anchor: int) -> Pairs:
        entry_at = bucket.structure
        if entry_at is None:
            entry_at = bucket.structure = self._ranking(bucket)
        rank = anchor + 1
        tuple_ids = bucket.tuple_ids
        if rank >= len(tuple_ids):
            return ()
        return ((rank, tuple_ids[entry_at(rank)[1]]),)

    def first(self, bucket: Bucket) -> Pairs:
        return self.after(bucket, -1)


class EagerStrategy(_RankedStrategy):
    """Sort each bucket completely on first touch."""

    name = "eager"

    def _ranking(self, bucket: Bucket):
        size = len(bucket)
        if self.counters is not None and size > 1:
            # Standard comparison-sort cost model: b ceil(log2 b).
            self.counters.comparisons += size * max(1, (size - 1).bit_length())
        return sorted(zip(bucket.subtree_weights, range(size))).__getitem__


class LazyStrategy(_RankedStrategy):
    """Incremental heap-sort per bucket (the paper's default variant)."""

    name = "lazy"

    def _ranking(self, bucket: Bucket):
        return LazySortedList(
            zip(bucket.subtree_weights, range(len(bucket))), self.counters
        ).get


class QuickStrategy(_RankedStrategy):
    """Incremental quickselect per bucket."""

    name = "quick"

    def _ranking(self, bucket: Bucket):
        return IncrementalQuickSelect(
            zip(bucket.subtree_weights, range(len(bucket))), self.counters
        ).get


class Take2Strategy(SuccessorStrategy):
    """Bucket heapified once; anchors are heap positions.

    Heap children are no smaller than their parent, so replacing "next in
    sorted order" by "the ≤2 heap children" keeps the global priority queue
    correct while bounding the candidates spawned per pop.
    """

    name = "take2"

    def _tournament(self, bucket: Bucket) -> TournamentBucket:
        if bucket.structure is None:
            bucket.structure = TournamentBucket(
                zip(bucket.subtree_weights, range(len(bucket))), self.counters
            )
        return bucket.structure

    def first(self, bucket: Bucket) -> Pairs:
        return ((0, bucket.tuple_ids[self._tournament(bucket).root()[1]]),)

    def after(self, bucket: Bucket, anchor: int) -> Pairs:
        heap = self._tournament(bucket)
        tuple_ids = bucket.tuple_ids
        return [
            (child, tuple_ids[heap.item_at(child)[1]])
            for child in heap.children(anchor)
        ]


class AllStrategy(SuccessorStrategy):
    """No bucket ordering: deviations insert every alternative at once.

    Anchors are positions into the bucket arrays; the anchored choice is
    *exact*, so popped candidates spawn no horizontal successors and the
    start-up seeds every element instead.
    """

    name = "all"

    def first(self, bucket: Bucket) -> Pairs:
        return list(enumerate(bucket.tuple_ids))

    def after(self, bucket: Bucket, anchor: int) -> Pairs:
        return ()

    def others(self, bucket: Bucket) -> Pairs:
        best = bucket.best_position
        return [pair for pair in enumerate(bucket.tuple_ids) if pair[0] != best]


STRATEGIES: dict[str, type[SuccessorStrategy]] = {
    "eager": EagerStrategy,
    "lazy": LazyStrategy,
    "quick": QuickStrategy,
    "take2": Take2Strategy,
    "all": AllStrategy,
}


def anyk_part(
    tdp: TDP, strategy: str = "lazy"
) -> Iterator[tuple[tuple, Any]]:
    """Enumerate ``(row, weight)`` in nondecreasing weight order.

    ``strategy`` selects the bucket successor structure (see module
    docstring).  The generator is lazy: stopping after k results costs
    O((n +) k log k) beyond the T-DP preprocessing already paid.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown ANYK-PART strategy {strategy!r}; "
            f"choose from {sorted(STRATEGIES)}"
        )
    if tdp.is_empty():
        return
    counters = tdp.counters
    gauge = _pq_gauge(tdp)
    succ = STRATEGIES[strategy](counters)
    after, others = succ.after, succ.others
    combine = tdp.ranking.combine
    lifted = tdp.lifted
    solution_row = tdp.solution_row
    stages = tdp.stages
    m = tdp.num_stages
    rows = [stage.relation.rows for stage in stages]
    #: per position: the resolvers of every later stage (the expansion)
    tails = [tuple(tdp.resolvers[position + 1 :]) for position in range(m)]
    #: per position: ``(parent row -> key, bucket dict)`` of its children —
    #: the frontier stages whose bucket depends on the tuple chosen there —
    #: and the positions of the frontier stages after its subtree, whose
    #: buckets the emitted answer already walked (children first: DFS order)
    kids = [
        tuple(tdp.resolvers[child][2:] for child in stage.children)
        for stage in stages
    ]
    rest: list[tuple[int, ...]] = []
    for stage in stages:
        later, position = [], stage.position + stage.subtree_size
        while position < m:
            later.append(position)
            position += stages[position].subtree_size
        rest.append(tuple(later))

    heap: list[tuple] = []
    ticks = 0

    def push_candidates(
        solution: list[int], position: int, walked: list[Bucket],
        pairs: Pairs, prefix: Any,
    ) -> None:
        """``pairs`` at ``position`` in ``walked[0]``, then everything but
        the best of each later walked bucket; ``prefix`` runs along."""
        nonlocal ticks
        before, at = ticks, position
        for bucket in walked:
            if at != position:
                previous = lifted[at - 1][solution[at - 1]]
                prefix = (
                    previous if prefix is None else combine(prefix, previous)
                )
                pairs = others(bucket)
            if pairs:
                own, own_rows = lifted[at], rows[at]
                own_kids, own_rest = kids[at], rest[at]
                for anchor, choice in pairs:
                    weight = own[choice]
                    if prefix is not None:
                        weight = combine(prefix, weight)
                    if own_kids:
                        row = own_rows[choice]
                        for key_of, buckets in own_kids:
                            weight = combine(
                                weight, buckets[key_of(row)].best_weight
                            )
                    for later in own_rest:
                        weight = combine(
                            weight, walked[later - position].best_weight
                        )
                    heappush(
                        heap,
                        (weight, ticks, solution, at, choice, anchor, bucket, prefix),
                    )
                    ticks += 1
            at += 1
        if counters is not None:
            counters.heap_ops += ticks - before
        if gauge is not None:
            gauge.add(ticks - before)

    root = tdp.root_bucket()
    push_candidates([], 0, [root], succ.first(root), None)
    while heap:
        priority, _, parent, position, choice, anchor, bucket, prefix = heappop(heap)
        if counters is not None:
            counters.heap_ops += 1
        if gauge is not None:
            gauge.remove(1)
        # Expansion: the shared prefix, the choice, then bucket minima.
        solution = parent[:position]
        solution.append(choice)
        walked = [bucket]
        for parent_position, parent_rows, key_of, buckets in tails[position]:
            below = buckets[key_of(parent_rows[solution[parent_position]])]
            walked.append(below)
            solution.append(below.best_tuple)
        yield solution_row(solution), priority
        if counters is not None:
            counters.output_tuples += 1
        push_candidates(solution, position, walked, after(bucket, anchor), prefix)


def naive_lawler(tdp: TDP) -> Iterator[tuple[tuple, Any]]:
    """Lawler–Murty with from-scratch subproblem solving (experiment E10).

    The textbook formulation, kept as the strawman and as the differential
    suite's reference for :func:`anyk_part`: a candidate is ``(choices,
    anchor)`` — ``choices`` fixes tuples for stages ``0..L-1``, the last
    one constrained to rank ≥ ``anchor`` under the Eager strategy — its
    prefix is copied per deviation, it is expanded through the reference
    accessors (:meth:`TDP.bucket_for`, :meth:`TDP.expand_best`), and its
    priority is recomputed by a full bottom-up pass over all surviving
    tuples — the "direct application of the procedure that solves each
    partition from scratch", whose delay is polynomial in the input
    instead of logarithmic in k.  The extra work is surfaced in
    ``counters.extras['naive_dp_work']``.
    """
    succ = EagerStrategy(tdp.counters)
    if tdp.is_empty():
        return

    def priority(choices: tuple) -> Any:
        # Deliberately wasteful full pass: touch every surviving tuple to
        # recompute what prefix_priority reads off precomputed minima.
        if tdp.counters is not None:
            tdp.counters.bump("naive_dp_work", tdp.total_tuples())
            for stage in tdp.stages:
                tdp.counters.comparisons += len(stage.relation)
        return tdp.prefix_priority(choices)

    queue = BinaryHeap(tdp.counters, gauge=_pq_gauge(tdp))
    for anchor, choice in succ.first(tdp.root_bucket()):
        queue.push(priority((choice,)), ((choice,), anchor))

    m = tdp.num_stages
    while queue:
        prio, (choices, anchor) = queue.pop()
        length = len(choices)
        last_bucket = tdp.bucket_for(length - 1, choices)
        full = tdp.expand_best(list(choices))
        yield tdp.solution_row(full), prio
        if tdp.counters is not None:
            tdp.counters.output_tuples += 1
        # Horizontal: the rest of the last stage's bucket after `anchor`.
        for next_anchor, choice in succ.after(last_bucket, anchor):
            new_choices = choices[:-1] + (choice,)
            queue.push(priority(new_choices), (new_choices, next_anchor))
        # Vertical: deviate at each later stage of the emitted solution.
        for position in range(length, m):
            prefix = tuple(full[:position])
            for dev_anchor, choice in succ.others(
                tdp.bucket_for(position, full)
            ):
                dev_choices = prefix + (choice,)
                queue.push(priority(dev_choices), (dev_choices, dev_anchor))
