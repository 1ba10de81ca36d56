"""ANYK-REC: recursive enumeration over the T-DP (tutorial Part 3).

The second family of any-k algorithms originates in k-shortest-path
solutions (Hoffman–Pavley 1959, Dreyfus, Jiménez–Marzal's REA) and exploits
a generalization of the DP principle of optimality: the i-th best solution
of a subproblem is composed of the *j-th best* (j ≤ i) solutions of its
child subproblems.

Every bucket (stage × parent-join-key) owns a memoized, lazily produced
stream of its ranked subtree solutions.  Producing the next element of a
stream pops a candidate from the bucket's own priority queue and pushes its
rank-increments (Lawler-style deviation index over the child-rank vector
prevents duplicates).  Crucially, streams are *shared* across all parent
tuples with the same join-key — repeated suffixes are ranked once, which is
why REC amortizes toward the last results (TT(last) competitive with batch)
where PART keeps re-deriving suffixes; neither dominates (experiment E9).

Resolve once, walk entries
--------------------------
A :class:`_Stream` resolves the child streams of each bucket tuple once
(``Stage.parent_key`` on the tuple's row, one probe of the child stage's
bucket dict — :attr:`TDP.resolvers`) and memoizes them per bucket position.
An :class:`_Entry` keeps the child entries it was composed from and its own
rank, so a rank increment asks one child stream for ``rank + 1`` and folds
the unchanged children's weights off the entry, and emitting an answer is a
pre-order walk over entries — no stage is resolved or ``get``-ed a second
time.

The memo is a reference cycle by design: ``Bucket.stream`` points at the
stream and the stream at its bucket (and at the T-DP whose buckets hold it),
which is what makes the suffix ranking shareable across parents and
re-enterable across pulls.  A closed REC cursor's T-DP is therefore freed by
the cycle collector, not by reference counting (unlike ANYK-PART's).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Iterator, Optional

from repro.anyk.tdp import TDP, Bucket
from repro.obs.memory import rec_entry_bytes, rec_solution_bytes, tracker_of


class _Entry:
    """One produced subtree solution of a bucket.

    ``weight`` is the DFS-fold subtree weight, ``tuple_id`` the stage tuple
    it takes, ``children`` the child streams' entries it was composed from
    (in child-stage order) and ``rank`` its index in its own stream — so an
    entry *is* its subtree's solution: emission walks entries, pre-order,
    and a rank increment asks the child stream for ``rank + 1``, neither
    resolving a bucket nor re-``get``-ing a stage a second time.
    """

    __slots__ = ("weight", "tuple_id", "children", "rank")

    def __init__(
        self, weight: Any, tuple_id: int, children: tuple["_Entry", ...], rank: int
    ) -> None:
        self.weight = weight
        self.tuple_id = tuple_id
        self.children = children
        self.rank = rank


class _Stream:
    """Memoized ranked stream of one bucket's subtree solutions.

    Heap candidates are flat ``(weight, position, tick, children, j)``
    entries: the bucket tuple at ``position``, the child entries composing
    it (``None`` for a seed: all-best children, not produced yet) and
    Lawler's deviation index; ``tick`` keeps equal ``(weight, position)``
    candidates in push order and the payload out of comparisons.
    """

    __slots__ = (
        "tdp", "stage_position", "bucket", "solutions", "heap", "ticks",
        "heap_gauge", "sol_gauge", "child_streams",
    )

    def __init__(self, tdp: TDP, stage_position: int, bucket: Bucket) -> None:
        self.tdp = tdp
        self.stage_position = stage_position
        self.bucket = bucket
        self.solutions: list[_Entry] = []
        #: per bucket position: its child streams, resolved on first use
        self.child_streams: list[Optional[tuple[_Stream, ...]]] = [None] * len(
            bucket
        )
        # Every bucket tuple seeds one candidate with all-best children;
        # its weight is exactly the precomputed subtree weight.
        self.heap: list[tuple] = [
            (weight, position, position, None, 0)
            for position, weight in enumerate(bucket.subtree_weights)
        ]
        heapify(self.heap)
        self.ticks = len(self.heap)
        if tdp.counters is not None:
            tdp.counters.heap_ops += self.ticks
        space = tracker_of(tdp.counters)
        if space is None:
            self.heap_gauge = self.sol_gauge = None
        else:
            children = len(tdp.stages[stage_position].children)
            self.heap_gauge = space.gauge("rec.pq", rec_entry_bytes(children))
            self.heap_gauge.add(self.ticks)
            self.sol_gauge = space.gauge(
                "rec.solutions", rec_solution_bytes(children)
            )

    def _resolve(self, position: int) -> tuple["_Stream", ...]:
        """The child streams of the bucket tuple at ``position`` — one
        bucket resolution per child, ever."""
        tdp = self.tdp
        stage = tdp.stages[self.stage_position]
        row = stage.relation.rows[self.bucket.tuple_ids[position]]
        found = []
        for child in stage.children:
            _, _, key_of, buckets = tdp.resolvers[child]
            found.append(stream_for(tdp, child, buckets[key_of(row)]))
        self.child_streams[position] = streams = tuple(found)
        return streams

    # -- production -----------------------------------------------------
    def get(self, rank: int) -> Optional[_Entry]:
        """The rank-th best subtree solution, produced on demand."""
        solutions = self.solutions
        if rank < len(solutions):
            return solutions[rank]
        heap = self.heap
        tdp = self.tdp
        counters = tdp.counters
        combine = tdp.ranking.combine
        lifted = tdp.lifted[self.stage_position]
        tuple_ids = self.bucket.tuple_ids
        while len(solutions) <= rank:
            if not heap:
                return None
            weight, position, _, children, dev = heappop(heap)
            streams = self.child_streams[position]
            if streams is None:
                streams = self._resolve(position)
            if children is None:
                children = tuple([stream.get(0) for stream in streams])
            tuple_id = tuple_ids[position]
            solutions.append(_Entry(weight, tuple_id, children, len(solutions)))
            # Push rank-increments at coordinates >= dev (Lawler-style
            # deviation index: no duplicates, full coverage); the bumped
            # weight re-folds lifted ⊗ child weights in child order.
            pushed = self.ticks
            for j in range(dev, len(children)):
                bumped = streams[j].get(children[j].rank + 1)
                if bumped is None:
                    continue  # that child stream is exhausted
                composed = children[:j] + (bumped,) + children[j + 1 :]
                bumped_weight = lifted[tuple_id]
                for child in composed:
                    bumped_weight = combine(bumped_weight, child.weight)
                heappush(
                    heap, (bumped_weight, position, self.ticks, composed, j)
                )
                self.ticks += 1
            if counters is not None:
                counters.heap_ops += 1 + self.ticks - pushed
            if self.sol_gauge is not None:
                self.sol_gauge.add(1)
                self.heap_gauge.remove(1)
                self.heap_gauge.add(self.ticks - pushed)
        return solutions[rank]


def stream_for(tdp: TDP, stage_position: int, bucket: Bucket) -> _Stream:
    """The bucket's memoized stream, created on first use."""
    if bucket.stream is None:
        bucket.stream = _Stream(tdp, stage_position, bucket)
    return bucket.stream


def anyk_rec(tdp: TDP) -> Iterator[tuple[tuple, Any]]:
    """Enumerate ``(row, weight)`` in nondecreasing weight order via REC."""
    if tdp.is_empty():
        return
    root = stream_for(tdp, 0, tdp.root_bucket())
    solution_row = tdp.solution_row
    for rank in count():
        entry = root.get(rank)
        if entry is None:
            return
        # Entries nest like the join tree: pre-order is stage order.
        solution: list[int] = []
        pending = [entry]
        while pending:
            node = pending.pop()
            solution.append(node.tuple_id)
            pending.extend(reversed(node.children))
        yield solution_row(solution), entry.weight
        if tdp.counters is not None:
            tdp.counters.output_tuples += 1
