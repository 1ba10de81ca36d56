"""Public façade: ranked enumeration for any full conjunctive query.

:func:`rank_enumerate` picks the pipeline by query shape:

- acyclic  → full reducer + T-DP + the chosen any-k algorithm;
- 4-cycle  → heavy/light union of trees, one T-DP per tree, global merge;
- other cyclic → single GHD rewrite, then the acyclic pipeline.

Methods (the ``method`` argument, also listed in :data:`METHODS`):

``part:eager | part:lazy | part:quick | part:take2 | part:all``
    ANYK-PART with the respective bucket successor strategy.
``rec``
    ANYK-REC (recursive enumeration with memoized streams).
``batch``
    Full join then sort (baseline; not anytime).
``lawler``
    Naive Lawler–Murty with from-scratch subproblem solving (polynomial
    delay; the strawman of experiment E10).  Acyclic queries only.
``auto``
    Defer the choice to the cost-based router (:mod:`repro.engine`),
    which weighs query shape, ``k``, and the AGM bound — the same rules
    the SQL front-end (:mod:`repro.sql`) applies to every statement.

Example
-------
>>> from repro.data.generators import path_database
>>> from repro.query.cq import path_query
>>> from repro.anyk import rank_enumerate
>>> db = path_database(length=3, size=50, domain=10, seed=7)
>>> for row, weight in rank_enumerate(db, path_query(3), k=3):
...     print(weight, row)      # three lightest 3-paths   # doctest: +SKIP
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Iterator, Optional

from repro.anyk.batch import batch_enumerate
from repro.anyk.cyclic import (
    is_fourcycle,
    rank_enumerate_fourcycle,
    rank_enumerate_ghd,
)
from repro.anyk.part import STRATEGIES, anyk_part, naive_lawler
from repro.anyk.ranking import RankingFunction, SUM, stabilize_ties
from repro.anyk.rec import anyk_rec
from repro.anyk.tdp import TDP
from repro.data.database import Database
from repro.query.cq import ConjunctiveQuery, QueryError
from repro.query.hypergraph import gyo_reduction
from repro.util.counters import Counters

#: All anytime-capable methods accepted by :func:`rank_enumerate`.
#: ``method="auto"`` additionally defers the choice to the router.
METHODS: tuple[str, ...] = tuple(
    f"part:{name}" for name in sorted(STRATEGIES)
) + ("rec", "batch", "lawler")


def _enumerator_factory(method: str):
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
    shard_policy = "hash"
    if method == "auto":
        # Deferred import: repro.engine sits above this module.
        from repro.engine.planner import route

        plan = route(
            db, query, ranking=ranking, k=k, allow_middleware=False,
            workers=workers,
        )
        method = plan.engine
        # The router may veto sharding; when it shards, execute its
        # exact decision (variable + policy), not a re-derivation.
        workers = plan.workers
        shard_variable = plan.shard_variable
        shard_policy = plan.shard_policy

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
                policy=shard_policy,
            )

    if method == "batch":
        # batch_enumerate already sorts by (weight, solution_tie_key),
        # deterministic or not — sorting the full output is its nature.
        stream = batch_enumerate(db, query, ranking=ranking, counters=counters)
        return stream if k is None else itertools.islice(stream, k)

    tree = gyo_reduction(query)
    if tree is not None:
        tdp = TDP(db, query, ranking=ranking, tree=tree, counters=counters)
        if compile_kernels and method != "lawler":
            # The naive-Lawler strawman stays on the reference accessors
            # on purpose: its whole point is the from-scratch cost.
            from repro.anyk.kernels import install_kernels

            install_kernels(tdp, slot=kernel_slot, engine=method)
        stream = _enumerator_factory(method)(tdp)
    elif method == "lawler":
        raise QueryError("the naive-Lawler baseline supports acyclic queries only")
    elif is_fourcycle(query):
        stream = rank_enumerate_fourcycle(
            db, query, ranking, _enumerator_factory(method), counters=counters
        )
    else:
        stream = rank_enumerate_ghd(
            db, query, ranking, _enumerator_factory(method), counters=counters
        )
    if deterministic:
        stream = stabilize_ties(stream)
    return stream if k is None else itertools.islice(stream, k)


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
    one of these per open cursor).

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
