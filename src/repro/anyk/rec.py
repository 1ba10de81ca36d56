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
A produced solution is a flat ``(weight, tuple_id, children, rank)`` entry:
the child entries it was composed from and its own rank, so a rank
increment asks one child stream for ``rank + 1`` and folds the unchanged
children's weights off the entry, and emitting an answer is a pre-order
walk over entries — no stage is resolved or ``get``-ed a second time.

Streams point down the join tree, never up
------------------------------------------
``Bucket.stream`` is the memo slot.  A stream reaches its child buckets
(through its stage's :class:`_StageRecord`) and their streams, but never
its own bucket, a parent stage or the T-DP, so the memo holds no reference
cycle: a finished or closed REC query is freed by reference counting the
moment its generator is dropped, like ANYK-PART's
(``tests/test_refcount_free.py``).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Iterator, Optional

from repro.anyk.tdp import TDP, Bucket
from repro.obs.memory import tracker_of

#: A produced subtree solution: ``(weight, tuple_id, children, rank)`` —
#: the DFS-fold subtree weight, the stage tuple it takes, the child
#: streams' entries it was composed from (in child-stage order) and its
#: index in its own stream.
_Entry = tuple


class _StageRecord:
    """What the streams of one stage read, and nothing above the stage.

    ``rows`` and ``lifted`` are the stage relation's rows and lifted
    weights; ``children`` holds per child stage its record, its
    ``Stage.parent_key`` and its bucket dict (from :attr:`TDP.resolvers`).
    ``counters``, ``combine`` and the two space gauges are shared by every
    stage of the T-DP.
    """

    __slots__ = (
        "rows", "lifted", "children", "counters", "combine",
        "heap_gauge", "sol_gauge",
    )

    def __init__(
        self,
        rows: list[tuple],
        lifted: list[Any],
        children: tuple[tuple["_StageRecord", Any, dict], ...],
        counters: Any,
        combine: Any,
        heap_gauge: Any,
        sol_gauge: Any,
    ) -> None:
        self.rows = rows
        self.lifted = lifted
        self.children = children
        self.counters = counters
        self.combine = combine
        self.heap_gauge = heap_gauge
        self.sol_gauge = sol_gauge


def _stage_records(tdp: TDP) -> list[_StageRecord]:
    """One record per stage, built children first so that each record
    can hold its children's."""
    space = tracker_of(tdp.counters)
    if space is None:
        heap_gauge = sol_gauge = None
    else:
        heap_gauge = space.gauge("rec.pq")
        sol_gauge = space.gauge("rec.solutions")
    records: list[Any] = [None] * tdp.num_stages
    for stage in reversed(tdp.stages):
        children = []
        for child in stage.children:
            _, _, key_of, buckets = tdp.resolvers[child]
            children.append((records[child], key_of, buckets))
        records[stage.position] = _StageRecord(
            stage.relation.rows,
            tdp.lifted[stage.position],
            tuple(children),
            tdp.counters,
            tdp.ranking.combine,
            heap_gauge,
            sol_gauge,
        )
    return records


class _Stream:
    """Memoized ranked stream of one bucket's subtree solutions.

    Heap candidates are flat ``(weight, position, tick, children, j)``
    entries: the bucket tuple at ``position``, the child entries composing
    it (``None`` for a seed: all-best children, not produced yet) and
    Lawler's deviation index; ``tick`` keeps equal ``(weight, position)``
    candidates in push order and the payload out of comparisons.
    """

    __slots__ = ("stage", "tuple_ids", "solutions", "heap", "ticks", "child_streams")

    def __init__(self, stage: _StageRecord, bucket: Bucket) -> None:
        self.stage = stage
        self.tuple_ids = bucket.tuple_ids
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
        if stage.counters is not None:
            stage.counters.heap_ops += self.ticks
        if stage.heap_gauge is not None:
            stage.heap_gauge.add(self.ticks)

    def _resolve(self, position: int) -> tuple["_Stream", ...]:
        """The child streams of the bucket tuple at ``position`` — one
        bucket resolution per child, ever."""
        row = self.stage.rows[self.tuple_ids[position]]
        found = []
        for record, key_of, buckets in self.stage.children:
            bucket = buckets[key_of(row)]
            if bucket.stream is None:
                bucket.stream = _Stream(record, bucket)
            found.append(bucket.stream)
        self.child_streams[position] = streams = tuple(found)
        return streams

    # -- production -----------------------------------------------------
    def get(self, rank: int) -> Optional[_Entry]:
        """The rank-th best subtree solution, produced on demand."""
        solutions = self.solutions
        if rank < len(solutions):
            return solutions[rank]
        heap = self.heap
        stage = self.stage
        counters = stage.counters
        combine = stage.combine
        lifted = stage.lifted
        heap_gauge = stage.heap_gauge
        sol_gauge = stage.sol_gauge
        tuple_ids = self.tuple_ids
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
            solutions.append((weight, tuple_id, children, len(solutions)))
            # Push rank-increments at coordinates >= dev (Lawler-style
            # deviation index: no duplicates, full coverage); the bumped
            # weight re-folds lifted ⊗ child weights in child order.
            pushed = self.ticks
            for j in range(dev, len(children)):
                bumped = streams[j].get(children[j][3] + 1)
                if bumped is None:
                    continue  # that child stream is exhausted
                composed = children[:j] + (bumped,) + children[j + 1 :]
                bumped_weight = lifted[tuple_id]
                for child in composed:
                    bumped_weight = combine(bumped_weight, child[0])
                heappush(
                    heap, (bumped_weight, position, self.ticks, composed, j)
                )
                self.ticks += 1
            if counters is not None:
                counters.heap_ops += 1 + self.ticks - pushed
            if sol_gauge is not None:
                sol_gauge.add(1)
                heap_gauge.remove(1)
                heap_gauge.add(self.ticks - pushed)
        return solutions[rank]


def stream_for(tdp: TDP, stage_position: int, bucket: Bucket) -> _Stream:
    """The bucket's memoized stream, created on first use."""
    if bucket.stream is None:
        bucket.stream = _Stream(_stage_records(tdp)[stage_position], bucket)
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
            _, tuple_id, children, _ = pending.pop()
            solution.append(tuple_id)
            pending.extend(reversed(children))
        yield solution_row(solution), entry[0]
        if tdp.counters is not None:
            tdp.counters.output_tuples += 1
