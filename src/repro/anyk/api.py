"""The compile seam and the public façade: ranked enumeration for any full CQ.

Every full conjunctive query runs one plan: compile it to a union of
acyclic trees, then run an any-k algorithm over the union.
:func:`query_shape` classifies the query without reading data — acyclic
(with its GYO join tree), a 4-cycle in any atom order and orientation
(with its ``fourcycle_pattern``), or any other cyclic query.
:func:`compile_program` builds the :class:`Program`: one T-DP per acyclic
part, each with the row assembler that puts its rows in query order — one
identity part for an acyclic query, one column-reordering part over the
materialised bags of a GHD rewrite (O~(n^fhw)), one part per heavy/light
union tree for the 4-cycle (O~(n^1.5)), whose answer-disjoint streams one
heap merges.  :func:`rank_enumerate`, :func:`has_any_result`, the router
and the sharder all read the seam.  Derived relations store raw
pre-combined weights, each atom counted once, so they rank like the
original query; LEX has no raw fold, so LEX on a cyclic query raises
:class:`TypeError` when it is compiled.  With the process tracer enabled,
the seam opens the spans ``anyk.tdp.build``, ``anyk.kernels.install``,
``joins.heavylight.build`` and ``anyk.ghd.build``, and times the stream's
first pull and the rest as ``anyk.enum.first``/``drain`` (``anyk.cyclic.*``
on cyclic queries).

Methods (``method``, listed in :data:`METHODS`): ``part:eager``,
``part:lazy``, ``part:quick``, ``part:take2``, ``part:all`` (ANYK-PART with
that bucket successor strategy); ``rec`` (ANYK-REC, memoized streams);
``batch`` (full join then sort; not anytime); ``lawler`` (naive
Lawler–Murty with from-scratch subproblems, polynomial delay, the E10
strawman; acyclic only); ``auto`` (the cost-based router of
:mod:`repro.engine`, the rules the SQL front-end applies to every
statement).

>>> from repro.data.generators import path_database
>>> from repro.query.cq import path_query
>>> db = path_database(length=3, size=50, domain=10, seed=7)
>>> for row, weight in rank_enumerate(db, path_query(3), k=3):
...     print(weight, row)      # three lightest 3-paths   # doctest: +SKIP
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from repro.anyk.batch import batch_enumerate
from repro.anyk.part import STRATEGIES, anyk_part, naive_lawler
from repro.anyk.ranking import RankingFunction, SUM, stabilize_ties
from repro.anyk.rec import anyk_rec
from repro.anyk.tdp import TDP
from repro.data.database import Database
from repro.joins.generic_join import boolean as generic_join_boolean
from repro.joins.heavylight import (
    UnionTree,
    fourcycle_pattern,
    fourcycle_union_of_trees,
)
from repro.joins.yannakakis import boolean as yannakakis_boolean
from repro.obs.trace import NOOP_SPAN, tracer
from repro.query.cq import ConjunctiveQuery, QueryError
from repro.query.decomposition import decompose_to_acyclic
from repro.query.hypergraph import JoinTree, gyo_reduction
from repro.util.counters import Counters
from repro.util.heaps import BinaryHeap

#: All anytime-capable methods accepted by :func:`rank_enumerate`.
#: ``method="auto"`` additionally defers the choice to the router.
METHODS: tuple[str, ...] = tuple(
    f"part:{name}" for name in sorted(STRATEGIES)
) + ("rec", "batch", "lawler")

#: One any-k method: a T-DP -> iterator of ``(row, weight)``.
EnumeratorFactory = Callable[[TDP], Iterator[tuple[tuple, Any]]]

#: A source and its row assembler (None: rows already in query order) —
#: a T-DP in a :class:`Program`, a shard feed in :mod:`repro.parallel`.
Part = tuple[Any, Optional[Callable[[tuple], tuple]]]


def _enumerator_factory(method: str) -> EnumeratorFactory:
    """Map a method name to a TDP -> iterator factory."""
    if method.startswith("part:"):
        strategy = method.split(":", 1)[1]
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown PART strategy {strategy!r}; known: {sorted(STRATEGIES)}"
            )
        return lambda tdp: anyk_part(tdp, strategy=strategy)
    if method == "rec":
        return anyk_rec
    if method == "lawler":
        return naive_lawler
    raise ValueError(f"unknown any-k method {method!r}; known: {METHODS}")


# ----------------------------------------------------------------------
# The compile seam
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryShape:
    """``kind`` is ``"acyclic"`` (``tree`` set), ``"4-cycle"`` (``pattern``
    set: the cycle's variables and atom order) or ``"ghd"``."""

    kind: str
    tree: Optional[JoinTree] = None
    pattern: Optional[tuple[list[str], list[int]]] = None


def query_shape(query: ConjunctiveQuery) -> QueryShape:
    """Classify ``query`` for :func:`compile_program` (no data is read)."""
    tree = gyo_reduction(query)
    if tree is not None:
        return QueryShape("acyclic", tree=tree)
    try:
        return QueryShape("4-cycle", pattern=fourcycle_pattern(query))
    except QueryError:
        return QueryShape("ghd")


@dataclass
class Program:
    """A full CQ compiled to its parts (see the module doc)."""

    shape: QueryShape
    parts: list[Part]
    counters: Optional[Counters] = None

    def enumerate(self, method: str) -> Iterator[tuple[tuple, Any]]:
        """The ranked ``(row, weight)`` stream of ``method``, rows in the
        query's variable order, ties as the engine emits them."""
        enumerator = _enumerator_factory(method)
        if method == "lawler" and self.shape.kind != "acyclic":
            raise QueryError("the naive-Lawler baseline supports acyclic queries only")
        if self.shape.kind == "4-cycle":
            # A union merges through the heap even when the data left one
            # tree, so its counted heap operations do not depend on that.
            return merge_parts(self.parts, enumerator, self.counters)
        ((tdp, assemble),) = self.parts
        stream = enumerator(tdp)
        if assemble is None:
            return stream
        return ((assemble(row), weight) for row, weight in stream)


def compile_program(
    db: Database,
    query: ConjunctiveQuery,
    ranking: RankingFunction = SUM,
    counters: Optional[Counters] = None,
) -> Program:
    """Compile ``query`` over ``db``: all preprocessing, and so every
    refusal, happens here.  ``counters`` are charged the preprocessing and
    ride along for the enumeration."""
    span = tracer.span if tracer.enabled else lambda name: NOOP_SPAN
    shape = query_shape(query)
    if shape.tree is not None:
        with span("anyk.tdp.build"):
            tdp = TDP(db, query, ranking=ranking, tree=shape.tree, counters=counters)
        return Program(shape, [(tdp, None)], counters)
    combine = ranking.float_combine()
    if shape.kind == "4-cycle":
        with span("joins.heavylight.build"):
            trees = fourcycle_union_of_trees(
                db, query, combine=combine, counters=counters
            )
    else:
        with span("anyk.ghd.build"):
            rewrite = decompose_to_acyclic(
                db, query, combine=combine, counters=counters
            )
        trees = [UnionTree(rewrite.database, rewrite.query, {}, "ghd")]
    with span("anyk.tdp.build"):
        parts = tree_parts(trees, query.variables, ranking, counters)
    return Program(shape, parts, counters)


def tree_parts(
    trees: list[UnionTree],
    variables: tuple[str, ...],
    ranking: RankingFunction,
    counters: Optional[Counters] = None,
) -> list[Part]:
    """One part per tree: its T-DP, and the assembler that puts its rows,
    fixed variables re-attached, in ``variables`` order."""
    parts: list[Part] = []
    for tree in trees:
        tdp = TDP(tree.database, tree.query, ranking=ranking, counters=counters)
        source, fixed = tree.query.variables, tree.fixed
        if not fixed and source == variables:
            parts.append((tdp, None))
            continue
        positions = [(v, source.index(v) if v in source else None) for v in variables]

        def assemble(row: tuple, positions=positions, fixed=fixed) -> tuple:
            return tuple(row[p] if p is not None else fixed[v] for v, p in positions)

        parts.append((tdp, assemble))
    return parts


def merge_parts(
    parts: list[Part],
    enumerator: EnumeratorFactory,
    counters: Optional[Counters] = None,
) -> Iterator[tuple[tuple, Any]]:
    """One ranked stream from answer-disjoint parts, each a source and its
    row assembler: ``enumerator(source)`` is nondecreasing, so a heap
    holding one head per stream yields the global order.  Equal weights
    leave in part order; callers that need the tie order apply
    :func:`~repro.anyk.ranking.stabilize_ties`.  No stream starts before
    the first pull."""
    streams = [enumerator(tdp) for tdp, _ in parts]
    heap = BinaryHeap(counters)
    for index, stream in enumerate(streams):
        head = next(stream, None)
        if head is not None:
            heap.push((head[1], index), (index, head[0]))
    while heap:
        (weight, _), (index, row) = heap.pop()
        assemble = parts[index][1]
        yield (row if assemble is None else assemble(row)), weight
        head = next(streams[index], None)
        if head is not None:
            heap.push((head[1], index), (index, head[0]))


def _spanned(
    stream: Iterator[tuple[tuple, Any]], first: str, drain: str
) -> Iterator[tuple[tuple, Any]]:
    """``stream`` with its first pull timed by span ``first`` and the rest,
    to exhaustion or close, by ``drain``; neither stays current across a
    ``yield``, so the consumer's own spans do not nest under them."""
    span = tracer.span(first).detach()
    try:
        head = next(stream, None)
    finally:
        span.finish()
    if head is None:
        return
    yield head
    span = tracer.span(drain).detach()
    try:
        yield from stream
    finally:
        span.finish()


def has_any_result(
    db: Database,
    query: ConjunctiveQuery,
    counters: Optional[Counters] = None,
) -> bool:
    """The Boolean query, by :func:`query_shape`: the bottom-up semijoin
    pass for an acyclic query (O~(n)); that pass per heavy/light union
    tree for a 4-cycle, stopping at the first non-empty one (O~(n^1.5),
    where a worst-case-optimal join pays O~(n^2)); else Generic-Join with
    early exit (O~(n^ρ*))."""
    query.validate(db)
    shape = query_shape(query)
    if shape.tree is not None:
        return yannakakis_boolean(db, query, counters=counters, tree=shape.tree)
    if shape.kind == "4-cycle":
        return any(
            yannakakis_boolean(tree.database, tree.query, counters=counters)
            for tree in fourcycle_union_of_trees(db, query, counters=counters)
        )
    return generic_join_boolean(db, query, counters=counters)


# ----------------------------------------------------------------------
# The façade
# ----------------------------------------------------------------------
def rank_enumerate(
    db: Database,
    query: ConjunctiveQuery,
    ranking: RankingFunction = SUM,
    method: str = "part:lazy",
    k: Optional[int] = None,
    counters: Optional[Counters] = None,
    workers: Optional[int] = None,
    deterministic: bool = True,
    compile_kernels: bool = True,
    kernel_slot: Optional[Any] = None,
) -> Iterator[tuple[tuple, Any]]:
    """Enumerate query answers in nondecreasing ranking order.

    Yields ``(row, weight)`` pairs; ``row`` follows ``query.variables``,
    ``weight`` lives in the ranking function's carrier (a float for SUM /
    MAX / PRODUCT).  ``k`` truncates the stream; omitted, the stream runs
    to exhaustion (the "any-k" contract: callers stop whenever satisfied).

    Equal-weight results are emitted in :func:`solution_tie_key` order
    (tuple identity), so the stream is a pure function of the query and
    data — not of engine internals.  The cost is buffering one tie group
    at a time, which degenerates exactly when weights degenerate: an
    *unweighted* join (every weight 0.0) is one output-sized tie group,
    so its first result waits for the whole join.  Pass
    ``deterministic=False`` to skip tie stabilization and recover strict
    anytime delay there — ties then follow engine internals, and
    parallel execution is refused (a nondeterministic shard merge could
    not match any serial order).

    ``workers > 1`` requests partition-parallel execution: the database
    is hash-sharded on a join attribute, each shard enumerates in its own
    worker process, and the per-shard streams are lazily merged back into
    one globally ranked stream (:mod:`repro.parallel`), byte-identical to
    the serial stream.  Queries the sharder cannot split soundly (cyclic
    shapes, unregistered rankings) silently run serial; with
    ``method="auto"`` the cost-based router additionally vetoes sharding
    when the input is too small to amortize fork+pickle overhead (the
    decision is visible in ``explain()``).

    ``compile_kernels`` toggles the code-generated output-row kernel
    (:mod:`repro.anyk.kernels`) that specializes the one T-DP accessor the
    loops call per emitted answer to this query's shape.  Compiled
    streams are byte-identical to interpreted ones; ``False`` selects the
    interpreted reference the differential suite compares against.
    ``kernel_slot`` (a :class:`repro.anyk.kernels.KernelSlot`) lets a
    plan cache pin the compiled template across executions so warm
    statements skip kernel setup too.
    """
    query.validate(db)
    if k is not None and k < 1:
        raise ValueError("k must be >= 1 when given")

    shard_variable: Optional[str] = None
    if method == "auto":
        # Deferred import: repro.engine sits above this module.
        from repro.engine.planner import route

        plan = route(db, query, ranking=ranking, k=k, workers=workers)
        method = plan.engine
        # The router may veto sharding; when it shards, execute its
        # exact decision (the shard variable), not a re-derivation.
        workers = plan.workers
        shard_variable = plan.shard_variable

    if workers is not None and workers > 1 and deterministic:
        # Deferred import: repro.parallel sits above this module.
        from repro.parallel import is_shardable, parallel_rank_enumerate

        if is_shardable(query, ranking, method):
            return parallel_rank_enumerate(
                db,
                query,
                ranking=ranking,
                method=method,
                k=k,
                counters=counters,
                workers=workers,
                shard_variable=shard_variable,
            )

    traced = tracer.enabled and method != "batch"
    if method == "batch":
        stream = batch_enumerate(db, query, ranking=ranking, counters=counters)
    else:
        program = compile_program(db, query, ranking, counters)
        acyclic = program.shape.tree is not None
        if acyclic and compile_kernels and method != "lawler":
            # The naive-Lawler strawman stays on the reference accessors
            # on purpose: its whole point is the from-scratch cost.
            from repro.anyk.kernels import install_kernels

            ((tdp, _),) = program.parts
            with tracer.span("anyk.kernels.install") if traced else NOOP_SPAN:
                install_kernels(tdp, slot=kernel_slot, engine=method)
        stream = program.enumerate(method)
    if deterministic:
        stream = stabilize_ties(stream)
    if k is not None:
        stream = itertools.islice(stream, k)
    if traced:
        layer = "anyk.enum" if acyclic else "anyk.cyclic"
        stream = _spanned(stream, f"{layer}.first", f"{layer}.drain")
    return stream


class StreamClosed(RuntimeError):
    """A :class:`PausableStream` was closed with results still pending.

    Distinct from exhaustion on purpose: answering a pull on a closed
    stream with "done" would silently truncate the ranked result set.
    Callers racing a concurrent close (the server's cursor eviction) get
    this error instead and can report the session as gone.
    """


class PausableStream:
    """A ranked stream that can be drained in increments and resumed.

    The any-k contract says callers may stop after any prefix; this
    wrapper makes the complementary *pause* explicit: :meth:`take` pulls
    the next ``n`` results and leaves the underlying enumeration iterator
    suspended exactly where it stopped, so a later :meth:`take` continues
    the ranked order with no recomputation.  That is what turns anytime
    enumeration into server-side pagination (:mod:`repro.server` keeps
    a memoized, multi-reader form of it per statement and snapshot,
    :class:`repro.server.cursors.SharedStream`).

    Thread-safe: a lock serializes pulls, so two concurrent fetches on the
    same cursor cannot interleave inside the generator frame (generators
    raise ``ValueError: already executing`` otherwise — corrupted pulls at
    worst).  Results are handed out in pull order.
    """

    def __init__(self, stream: Iterator[tuple[tuple, Any]]) -> None:
        self._iterator = iter(stream)
        self._lock = threading.Lock()
        self._exhausted = False
        self._closed = False
        self._emitted = 0

    @property
    def exhausted(self) -> bool:
        """True once the underlying enumeration has run dry."""
        return self._exhausted

    @property
    def closed(self) -> bool:
        """True after :meth:`close` (whether or not results remained)."""
        return self._closed

    @property
    def emitted(self) -> int:
        """How many results have been handed out so far."""
        return self._emitted

    def take(
        self, n: int, deadline: Optional[float] = None
    ) -> tuple[list[tuple[tuple, Any]], bool]:
        """Pull up to ``n`` more results; returns ``(results, done)``.

        ``deadline`` (a :func:`time.monotonic` timestamp) bounds the pull:
        enumeration stops early once the clock passes it, returning the
        results produced so far with ``done=False`` — the anytime
        property as a latency SLO.  ``n <= 0`` returns nothing (but still
        reports exhaustion state).  Pulling from a stream that was
        :meth:`close`-d before running dry raises :class:`StreamClosed`
        (done-on-close would silently truncate the ranked stream).
        """
        out: list[tuple[tuple, Any]] = []
        with self._lock:
            if self._exhausted:
                return out, True
            if self._closed:
                raise StreamClosed(
                    "the stream was closed with results still pending"
                )
            while len(out) < n:
                if deadline is not None and time.monotonic() >= deadline:
                    break
                try:
                    out.append(next(self._iterator))
                except StopIteration:
                    self._exhausted = True
                    break
            self._emitted += len(out)
            return out, self._exhausted

    def __iter__(self) -> Iterator[tuple[tuple, Any]]:
        while True:
            results, done = self.take(1)
            if results:
                yield results[0]
            if done:
                return

    def close(self) -> None:
        """Dispose of the underlying iterator (frees generator frames)."""
        with self._lock:
            self._closed = True
            close = getattr(self._iterator, "close", None)
            if close is not None:
                close()


def top_k(
    db: Database,
    query: ConjunctiveQuery,
    k: int,
    ranking: RankingFunction = SUM,
    method: str = "part:lazy",
    counters: Optional[Counters] = None,
) -> list[tuple[tuple, Any]]:
    """The k lightest answers as a list (convenience wrapper)."""
    return list(
        rank_enumerate(
            db, query, ranking=ranking, method=method, k=k, counters=counters
        )
    )
