"""Process-pool execution of per-shard any-k streams.

One worker process per (non-empty) shard.  The parent pickles the shard
payload — filtered database, rewritten query, ranking *name* (the
instances hold lambdas and cannot cross the boundary), method, ``k`` —
into a ``multiprocessing.Process``; the worker enumerates its shard's
ranked stream and ships results back in chunks over a **bounded** queue.
The bound is backpressure: a worker can run at most one queue of chunks
ahead of the consumer, so stopping after the global top-k never pays for
a shard's full output — the anytime property survives the pool.

Failure handling: a worker that raises ships an ``("error", message)``
frame; a worker that dies without one (OOM-kill, signal) is detected by
liveness polling.  Both surface as :class:`ShardWorkerError` in the
consuming thread.  Early termination (the consumer closes the merged
generator, e.g. a server cursor being evicted) terminates the pool.

RAM-model accounting: each worker counts into a private
:class:`~repro.util.counters.Counters` and ships the snapshot in its
final ``("done", {"counters": ..., "delay": ..., "spans": ...})``
frame; the parent
folds finished workers' snapshots into the caller's counters, so a
drained parallel run reports the same kind of totals a serial run does.
When the caller passes a :class:`~repro.obs.delay.DelayProfile`, each
worker additionally profiles its own shard stream (TTF / TT(k) /
inter-result delay as seen *inside* the worker, no IPC on that path)
and the parent files the returned snapshots under ``profile.shards`` —
attribution, not aggregation, so the parent's own measurement of the
merged stream is never double counted.  A
:class:`~repro.obs.memory.MemoryProfile` travels the same way: each
worker space-accounts its own engine structures and ships the snapshot
in the done frame; the parent files it under ``memory.shards``.  Worker
bytes live in the worker *process*, so they are deliberately kept out
of the parent's own live/peak totals (which feed the server's
admission watermark for the server process).

Trace propagation: when :func:`parallel_rank_enumerate` is called while
a span is open on the process-wide tracer (the executor's
``execute.setup``), each worker records real spans — ``setup``,
``enumerate``, per-chunk ``chunk_put`` — in a private tracer, ships the
rendered span dicts home in the done frame, and the parent grafts them
under the open span as a ``shard[i]`` subtree.  A sharded query's
``trace`` op response therefore shows per-worker timing, not just
counters.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import queue as queue_module
import threading
import time
from contextlib import nullcontext
from typing import Any, Iterator, Optional, TYPE_CHECKING

from repro.anyk.ranking import (
    RankingFunction,
    SUM,
    ranking_by_name,
    stabilize_ties,
)
from repro.data.database import Database
from repro.parallel.merge import merge_ranked_streams
from repro.parallel.sharding import Shard, ShardingSpec, shard_database
from repro.query.cq import ConjunctiveQuery
from repro.util.counters import Counters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.delay import DelayProfile
    from repro.obs.memory import MemoryProfile

#: Results per queue frame (amortizes pickling + IPC per result).
DEFAULT_CHUNK_SIZE = 128

#: Frames a worker may buffer ahead of the consumer (backpressure bound).
QUEUE_DEPTH = 8

#: Liveness-poll interval while waiting on an empty queue (seconds).
_POLL_S = 0.05

#: Counters dataclass fields a snapshot may carry (vs. ``extras`` keys).
_COUNTER_FIELDS = {
    f.name for f in dataclasses.fields(Counters) if f.name not in ("extras", "_lock")
}


class ShardWorkerError(RuntimeError):
    """A shard worker failed (raised, or died without reporting)."""


_forkserver_lock = threading.Lock()
_forkserver_context = None


def _pool_context():
    """The multiprocessing context to spawn shard workers from.

    ``fork`` is the cheap default — but forking a *multithreaded*
    process (the server regime: queries arrive on socketserver handler
    threads) can deadlock the child on a lock another thread held at
    fork time.  When other threads are live we switch to ``forkserver``:
    its single-threaded server process was started before any of our
    threads, so forks from it are safe.  This module is preloaded into
    the forkserver so workers do not re-import the library per query.
    On platforms whose default is already ``spawn`` (macOS, Windows)
    the default context is used as-is — args are picklable and
    :func:`_worker_main` is importable by design.

    Caveat (standard multiprocessing contract): forkserver/spawn worker
    bootstrap re-imports the caller's ``__main__``, so a *script* that
    reaches these paths (threaded parent, or a spawn platform) must
    guard its entry point with ``if __name__ == "__main__":`` — see
    ``examples/parallel_topk.py``.  Plain single-threaded Linux use
    keeps ``fork`` and has no such requirement.
    """
    if multiprocessing.get_start_method() != "fork":
        return multiprocessing.get_context()
    if threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    global _forkserver_context
    with _forkserver_lock:
        if _forkserver_context is None:
            context = multiprocessing.get_context("forkserver")
            context.set_forkserver_preload(["repro.parallel.workers"])
            _forkserver_context = context
    return _forkserver_context


def shard_stream(
    db: Database,
    query: ConjunctiveQuery,
    ranking: RankingFunction = SUM,
    method: str = "part:lazy",
    k: Optional[int] = None,
    counters: Optional[Counters] = None,
) -> Iterator[tuple[tuple, Any]]:
    """One shard's stabilized ranked stream (any engine, in-process).

    The single enumeration entry point workers run.  Besides every
    :func:`~repro.anyk.rank_enumerate` method it accepts ``"rank_join"``
    (the HRJN middleware), as the SQL executor does — which is what lets
    the differential harness drive all four engine families through one
    sharded code path.  HRJN's sorted scans and corner bound must see
    ranking order, so it scans *lifted* weights (copies, unless the lift
    is ``float``) and folds them with ⊗.
    """
    if method == "rank_join":
        from repro.topk.rank_join import rank_join_stream

        if ranking.raw_combine is None:
            raise TypeError(
                f"rank_join cannot rank by {ranking.name!r}: HRJN's corner "
                "bound needs a float carrier"
            )
        lift = ranking.lift
        if lift is not float:
            names = dict.fromkeys(atom.relation for atom in query.atoms)
            lifted = {name: list(map(lift, db[name].weights)) for name in names}
            db = Database(db[n].derive(db[n].rows, lifted[n]) for n in names)
        stream = stabilize_ties(
            rank_join_stream(
                db, query, counters=counters, combine=ranking.combine
            )
        )
        return stream if k is None else itertools.islice(stream, k)
    from repro.anyk.api import rank_enumerate

    return rank_enumerate(
        db, query, ranking=ranking, method=method, k=k, counters=counters
    )


def _worker_main(
    out_queue,
    db: Database,
    query: ConjunctiveQuery,
    ranking_name: str,
    method: str,
    k: Optional[int],
    chunk_size: int,
    profile_delay: bool = False,
    trace_spans: bool = False,
    profile_memory: bool = False,
) -> None:
    """Worker entry point (module-level so spawn contexts can import it)."""
    counters = Counters()
    wtracer = root = None
    if trace_spans:
        # A private single-trace tracer: worker spans (setup, enumerate,
        # chunk_put) ship home in the done frame and are grafted under
        # the coordinator's execute span — the worker never talks to the
        # parent's ring directly.
        from repro.obs.trace import Tracer

        wtracer = Tracer(capacity=1, enabled=True)
        root = wtracer.start_trace("shard", method=method, k=k)

    def stage(name: str, **attrs: Any):
        return nullcontext() if wtracer is None else wtracer.span(name, **attrs)

    try:
        with stage("setup"):
            memory = None
            if profile_memory:
                # Attach before the stream exists: the engines read the
                # tracker off the counters at structure-construction time.
                from repro.obs.memory import MemoryProfile, attach_tracker

                memory = MemoryProfile(engine=method)
                memory.streams = 1
                attach_tracker(counters, memory)
            ranking = ranking_by_name(ranking_name)
            stream = shard_stream(
                db, query, ranking=ranking, method=method, k=k, counters=counters
            )
            profile = None
            if profile_delay:
                from repro.obs.delay import DelayProfile

                profile = DelayProfile(engine=method)
                stream = profile.wrap(stream)
        chunk: list[tuple[tuple, Any]] = []
        emitted = 0
        with stage("enumerate") as enum_span:
            for item in stream:
                chunk.append(item)
                if len(chunk) >= chunk_size:
                    emitted += len(chunk)
                    with stage("chunk_put", rows=len(chunk)):
                        out_queue.put(("rows", chunk))
                    chunk = []
            if chunk:
                emitted += len(chunk)
                with stage("chunk_put", rows=len(chunk)):
                    out_queue.put(("rows", chunk))
            if wtracer is not None:
                enum_span.set(rows=emitted)
        spans = None
        if wtracer is not None:
            root.finish()
            rendered = wtracer.get(root.trace_id)
            spans = rendered["spans"] if rendered else None
        out_queue.put(
            (
                "done",
                {
                    "counters": counters.snapshot(),
                    "delay": None if profile is None else profile.snapshot(),
                    "memory": None if memory is None else memory.snapshot(),
                    "spans": spans,
                },
            )
        )
    except BaseException as exc:  # ship the failure; never hang the parent
        try:
            out_queue.put(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass


def _merge_snapshot(counters: Counters, snapshot: dict) -> None:
    """Fold a worker's counter snapshot into the caller's instance."""
    for name, value in snapshot.items():
        if name == "total_work" or not value:
            continue
        if name in _COUNTER_FIELDS:
            counters.add(name, value)
        else:
            counters.bump(name, value)


class _ShardFeed:
    """Parent-side lazy iterator over one worker's chunked result queue."""

    def __init__(
        self,
        context,
        shard: Shard,
        ranking_name: str,
        method: str,
        k: Optional[int],
        chunk_size: int,
        counters: Optional[Counters],
        profile: Optional["DelayProfile"] = None,
        trace_anchor: Any = None,
        memory: Optional["MemoryProfile"] = None,
    ) -> None:
        self._queue = context.Queue(maxsize=QUEUE_DEPTH)
        self._process = context.Process(
            target=_worker_main,
            args=(
                self._queue,
                shard.database,
                shard.query,
                ranking_name,
                method,
                k,
                chunk_size,
                profile is not None,
                trace_anchor is not None,
                memory is not None,
            ),
            daemon=True,
        )
        self._shard_index = shard.index
        self._counters = counters
        self._profile = profile
        self._memory = memory
        self._anchor = trace_anchor
        self._start_s: Optional[float] = None
        self._finished = False

    def start(self) -> None:
        self._start_s = time.perf_counter()
        self._process.start()

    def _fold_done(self, payload: dict) -> None:
        """Fold a worker's final frame into the caller-side aggregates."""
        self._finished = True
        if self._counters is not None:
            _merge_snapshot(self._counters, payload["counters"])
        delay = payload.get("delay")
        if self._profile is not None and delay is not None:
            # Attribution only: the parent measures the merged stream
            # itself, so worker measurements are filed per shard rather
            # than folded into the parent's own histograms (which would
            # double count every result).
            delay["shard"] = self._shard_index
            self._profile.shards.append(delay)
        mem = payload.get("memory")
        if self._memory is not None and mem is not None:
            # Same attribution-only contract as the delay snapshots; the
            # bytes also live in the worker process, not this one.
            mem["shard"] = self._shard_index
            self._memory.shards.append(mem)
        spans = payload.get("spans")
        if self._anchor is not None and spans:
            # Graft the worker's subtree under the coordinator's execute
            # span; the shipped root is renamed to carry its shard index.
            for span in spans:
                if span.get("parent_id") is None:
                    span["name"] = f"shard[{self._shard_index}]"
            from repro.obs.trace import tracer

            tracer.graft(self._anchor, spans, base_start_s=self._start_s)

    def __iter__(self) -> Iterator[tuple[tuple, Any]]:
        while True:
            try:
                kind, payload = self._queue.get(timeout=_POLL_S)
            except queue_module.Empty:
                if self._process.is_alive():
                    continue
                # The worker exited; drain anything it flushed first (a
                # short timeout covers frames still in the pipe).
                try:
                    kind, payload = self._queue.get(timeout=0.5)
                except queue_module.Empty:
                    raise ShardWorkerError(
                        f"shard {self._shard_index} worker died without "
                        "reporting (exit code "
                        f"{self._process.exitcode})"
                    ) from None
            if kind == "rows":
                yield from payload
            elif kind == "done":
                self._fold_done(payload)
                self._process.join()
                return
            else:  # "error"
                raise ShardWorkerError(
                    f"shard {self._shard_index} worker failed: {payload}"
                )

    def shutdown(self) -> None:
        """Stop the worker (idempotent; used for early termination too).

        Before terminating, opportunistically drain queued frames for a
        ``("done", ...)`` frame: a worker whose whole output fit in the
        queue has already finished, and its RAM-model work should land
        in the caller's counters even when the consumer stopped early.
        Workers still mid-enumeration lose their counts — the price of
        termination, not worth a handshake.

        With tracing active the drain additionally waits a short,
        bounded grace period: ``k`` is pushed down to every worker, so a
        worker cut off by the global top-k finishes its own (at most k)
        results moments later — waiting for its done frame is what makes
        all per-shard subtrees land in the coordinator's trace instead
        of only the lucky ones.
        """
        if not self._finished:
            grace_s = 2.0 if self._anchor is not None else 0.0
            deadline = time.perf_counter() + grace_s
            while not self._finished:
                try:
                    kind, payload = self._queue.get_nowait()
                except queue_module.Empty:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    if not self._process.is_alive():
                        # Exited: anything still in the pipe lands shortly.
                        try:
                            kind, payload = self._queue.get(timeout=0.2)
                        except queue_module.Empty:
                            break
                    else:
                        try:
                            kind, payload = self._queue.get(
                                timeout=min(remaining, _POLL_S)
                            )
                        except queue_module.Empty:
                            continue
                if kind == "done":
                    self._fold_done(payload)
        if self._process.pid is not None and self._process.is_alive():
            self._process.terminate()
        if self._process.pid is not None:
            self._process.join(timeout=2.0)
        self._queue.close()


def parallel_rank_enumerate(
    db: Database,
    query: ConjunctiveQuery,
    ranking: RankingFunction = SUM,
    method: str = "part:lazy",
    k: Optional[int] = None,
    counters: Optional[Counters] = None,
    workers: int = 2,
    shard_variable: Optional[str] = None,
    policy: str = "hash",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    profile: Optional["DelayProfile"] = None,
    memory: Optional["MemoryProfile"] = None,
) -> Iterator[tuple[tuple, Any]]:
    """Shard, enumerate per shard in worker processes, merge ranked.

    Yields ``(row, weight)`` byte-identically to the serial
    :func:`~repro.anyk.rank_enumerate` stream for the same arguments
    (see :mod:`repro.parallel.merge` for the argument).  ``k`` is pushed
    down to every worker — the global top-k draws at most k results from
    any one shard — and also truncates the merged stream.

    The returned generator owns the pool: exhausting it joins the
    workers, closing it early (``generator.close()``, which is what
    :meth:`PausableStream.close` triggers on cursor eviction) terminates
    them.  Shards whose filtered instance is trivially empty never spawn
    a process.

    Snapshot pinning: the shard payloads are materialized *here*, before
    the lazy generator is returned — each worker pickles the shard built
    from the database object passed in (version-stamped when it is a
    :mod:`repro.dynamic` snapshot), so mutations committed after this
    call can never leak into a draining parallel stream, even when the
    workers have not started yet.
    """
    shards, spec = shard_database(
        db, query, workers, variable=shard_variable, policy=policy
    )
    live = [shard for shard in shards if not shard.is_trivially_empty()]
    context = _pool_context()
    # When this call happens inside an open span (the executor's
    # execute.setup), workers record their own spans and ship them back
    # in the done frame; each feed grafts its subtree under that anchor.
    from repro.obs.trace import tracer as _tracer

    anchor = _tracer.current_span() if _tracer.enabled else None
    feeds = [
        _ShardFeed(
            context,
            shard,
            ranking.name,
            method,
            k,
            chunk_size,
            counters,
            profile=profile,
            trace_anchor=anchor,
            memory=memory,
        )
        for shard in live
    ]

    def merged() -> Iterator[tuple[tuple, Any]]:
        try:
            # Inside the try: a failure starting the Nth worker (process
            # limit, EAGAIN) must still shut the N-1 started ones down.
            for feed in feeds:
                feed.start()
            stream = merge_ranked_streams(feeds)
            if k is not None:
                stream = itertools.islice(stream, k)
            yield from stream
        finally:
            for feed in feeds:
                feed.shutdown()

    stream = merged()
    # The parent-side profile measures the *merged* stream (what the
    # consumer experiences); the per-shard worker measurements arrive via
    # the done frames above.
    return stream if profile is None else profile.wrap(stream)
