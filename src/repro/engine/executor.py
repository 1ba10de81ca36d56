"""Plan execution: run a routed plan and emit (row, weight) pairs.

The executor is deliberately thin — all heavy lifting lives in
:func:`repro.anyk.rank_enumerate` (serial) or
:func:`repro.parallel.parallel_rank_enumerate` (sharded), whichever the
plan names.  Its own responsibilities:

- apply constant filters by materializing filtered copies of the affected
  base relations (σ before ⋈, the one classical rewrite that is always
  safe and always pays off);
- flip ``DESC`` weights back: the analyzer ranks DESC by the order-dual
  ranking, whose carrier weights are negated (componentwise for LEX);
- project full result rows onto the SELECT list (bag semantics: the
  ranked stream of full rows is mapped, never deduplicated);
- truncate to LIMIT.
"""

from __future__ import annotations

import operator
from typing import Any, Iterator, Optional, TYPE_CHECKING

from repro.anyk.api import rank_enumerate
from repro.data.database import Database
from repro.query.cq import Atom, ConjunctiveQuery
from repro.engine.planner import Plan
from repro.util.counters import Counters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.dynamic import MutationResult, VersionedDatabase
    from repro.obs.delay import DelayProfile
    from repro.obs.memory import MemoryProfile
    from repro.sql.analyzer import CompiledMutation, CompiledQuery


def apply_mutation(
    versioned: "VersionedDatabase", compiled: "CompiledMutation"
) -> "MutationResult":
    """Commit a compiled SQL mutation against a versioned database.

    The write-side counterpart of :func:`execute`: lowers the analyzer's
    :class:`~repro.sql.analyzer.CompiledMutation` onto the dynamic
    layer's :class:`~repro.dynamic.Insert`/:class:`~repro.dynamic.Delete`
    and applies it, publishing a new copy-on-write snapshot.  Open
    cursors keep draining the snapshot they were planned on; queries
    planned afterwards are routed on the new version.
    """
    from repro.dynamic import Delete, Insert

    if compiled.kind == "insert":
        return versioned.apply(
            Insert(compiled.relation, compiled.rows, compiled.weights)
        )
    relation = versioned.snapshot()[compiled.relation]
    if not compiled.filters:
        predicate = None
    else:
        tests = [
            (f.predicate(relation.positions((f.column,))[0]))
            for f in compiled.filters
        ]

        def predicate(row: tuple, _tests=tuple(tests)) -> bool:
            return all(test(row) for test in _tests)

    return versioned.apply(
        Delete(
            compiled.relation,
            predicate,
            description=" AND ".join(str(f) for f in compiled.filters),
        )
    )


def filtered_database(
    db: Database, compiled: "CompiledQuery", negate: bool = True
) -> tuple[Database, ConjunctiveQuery]:
    """The working database and query after filter pushdown.

    Atoms whose FROM entry carries constant filters point at materialized
    filtered copies (named ``<relation>__sigma<i>``); untouched atoms keep
    their base relations.  ``negate`` is accepted and ignored, because
    the benchmark harness still passes it.
    """
    cq = compiled.cq
    table_names = [t for t in compiled.alias_to_relation]
    atoms: list[Atom] = []
    working = Database()
    for index, atom in enumerate(cq.atoms):
        alias = table_names[index]
        filters = [f for f in compiled.filters if f.table == alias]
        if filters:
            relation = db[atom.relation]
            name = f"{atom.relation}__sigma{index}"
            selected = relation
            for f in filters:
                position = relation.positions((f.column,))[0]
                selected = selected.select(f.predicate(position), name=name)
            # select() carries the base's snapshot generation over, so
            # the filtered copy reports the version it was taken from.
            working.replace(selected)
            atoms.append(Atom(name, atom.variables))
        else:
            if atom.relation not in working:
                working.add(db[atom.relation])
            atoms.append(atom)
    working.version = db.version
    rewritten = (
        cq
        if all(a.relation == b.relation for a, b in zip(atoms, cq.atoms))
        else ConjunctiveQuery(atoms, name=cq.name)
    )
    return working, rewritten


def execute(
    compiled: "CompiledQuery",
    plan: Plan,
    counters: Optional[Counters] = None,
    profile: Optional["DelayProfile"] = None,
    memory: Optional["MemoryProfile"] = None,
) -> Iterator[tuple[tuple, Any]]:
    """Run ``plan`` for ``compiled`` over the plan's working instance.

    Yields ``(row, weight)`` with ``row`` following
    ``compiled.output_columns`` and ``weight`` in the carrier of the
    ranking ORDER BY names (for DESC, the order dual's sign flipped back).

    ``profile`` (a :class:`repro.obs.delay.DelayProfile`) measures the
    engine stream as it drains: per-result delay, TTF, TT(k), and — for
    parallel plans — per-shard worker attribution folded back across
    the process boundary.  ``None`` (the default) adds zero per-result
    cost.  ``memory`` (a :class:`repro.obs.memory.MemoryProfile`) rides
    the execution's counters as a space tracker; the engines' structures
    report entry counts into it at O(1) cost, and parallel plans ship
    per-shard peak entries home in the worker done frames.  Its live entries
    return to zero when the stream is drained, closed or evicted (the
    peaks stay, for the per-engine peak histogram).  The setup work
    (shard materialization) lands in a tracer span when
    the process tracer is enabled, parented to whichever request span is
    current at the first pull.
    """
    from repro.obs.memory import attach_tracker
    from repro.obs.trace import tracer

    try:
        with tracer.span(
            "execute.setup", engine=plan.engine, workers=plan.workers
        ):
            # plan_compiled materialized the filtered instance and costed
            # the plan on it.
            working, cq = plan.working_db, plan.working_cq
            k = compiled.k

            if profile is not None and not profile.engine:
                profile.engine = plan.engine
            if memory is not None:
                if not memory.engine:
                    memory.engine = plan.engine
                memory.streams += 1
                if counters is None:
                    counters = Counters()
                attach_tracker(counters, memory)

            if plan.workers > 1:
                # The router already vetted shardability and picked the shard
                # attribute; honor its decision verbatim.
                from repro.parallel import parallel_rank_enumerate

                stream: Iterator[tuple[tuple, Any]] = parallel_rank_enumerate(
                    working,
                    cq,
                    ranking=compiled.ranking,
                    method=plan.engine,
                    k=k,
                    counters=counters,
                    workers=plan.workers,
                    shard_variable=plan.shard_variable,
                    profile=profile,
                    memory=memory,
                )
            else:
                stream = rank_enumerate(
                    working,
                    cq,
                    ranking=compiled.ranking,
                    method=plan.engine,
                    k=k,
                    counters=counters,
                    # The plan's kernel slot pins the compiled enumeration
                    # template across executions of one plan (None for
                    # non-any-k engines: rank_enumerate ignores it then).
                    kernel_slot=plan.kernel_slot,
                )
                if profile is not None:
                    stream = profile.wrap(stream)

        positions = compiled.output_positions
        identity = positions == tuple(range(len(cq.variables)))
        if identity and not compiled.descending:
            # Nothing to re-pack: hand the engine's pairs through as they are.
            yield from stream
            return
        flip = None
        if compiled.descending:  # the order dual negated the lift: undo it once
            vector = compiled.ranking.raw_combine is None  # LEX
            flip = (lambda w: tuple(-x for x in w)) if vector else operator.neg
        for row, weight in stream:
            out = row if identity else tuple(row[p] for p in positions)
            yield out, (weight if flip is None else flip(weight))
    finally:
        if memory is not None:
            # A drain, close() and eviction all end here: the structures
            # are freed, so the profile's live figures return to zero.
            memory.release()
