"""Binary hash join on variable-schema relations.

The building block of the "two-relations-at-a-time" plans favoured by
database optimizers (§3).  Joins are natural joins on shared attribute
names; weights combine with the caller's accumulation operator.  Every
produced tuple increments ``intermediate_tuples`` in the supplied counters,
which is the series the triangle experiment (E1) reports: on the adversarial
instance every pairwise join materializes Θ(n²) tuples while the final
output is linear.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

from repro.data.relation import Relation
from repro.obs.memory import tracker_of
from repro.util.counters import Counters


def hash_join(
    left: Relation,
    right: Relation,
    counters: Optional[Counters] = None,
    combine: Callable[[float, float], float] = operator.add,
    name: Optional[str] = None,
) -> Relation:
    """Natural hash join of two variable-schema relations.

    The smaller input is used as the build side.  Output schema: left's
    attributes followed by right's attributes not already present.
    """
    shared = tuple(a for a in left.schema if a in right.schema)
    build, probe = (left, right) if len(left) <= len(right) else (right, left)
    swapped = build is right

    build_index = build.index_on(shared) if shared else {(): list(range(len(build)))}
    probe_positions = probe.positions(shared) if shared else ()

    # The build index lives only for this join; account it as transient.
    space = tracker_of(counters)
    build_gauge = None
    build_entries = 0
    if space is not None:
        build_gauge = space.gauge("join.build")
        build_entries = sum(len(ids) for ids in build_index.values())
        build_gauge.add(build_entries)

    out_schema = tuple(left.schema) + tuple(
        a for a in right.schema if a not in left.schema
    )
    out = Relation(name or f"({left.name}⋈{right.name})", out_schema)

    # Precompute how to assemble an output row from (left_row, right_row).
    right_extra_positions = [
        right.schema.index(a) for a in out_schema if a not in left.schema
    ]

    # Accumulate whole output columns, then bulk-load once: the result
    # is materialized with a single arity/finiteness sweep and a single
    # cache invalidation instead of a per-row ``add`` (the hot path of
    # every batch-engine join; E1's adversarial instance materializes
    # Θ(n²) tuples here).
    out_rows: list[tuple] = []
    out_weights: list[float] = []
    build_rows, build_weights = build.rows, build.weights
    for probe_id, probe_row in enumerate(probe.rows):
        if counters is not None:
            counters.tuples_read += 1
            counters.hash_probes += 1
        key = tuple(probe_row[p] for p in probe_positions)
        matches = build_index.get(key)
        if not matches:
            continue
        probe_weight = probe.weights[probe_id]
        if swapped:
            out_rows.extend(
                probe_row
                + tuple(build_rows[b][p] for p in right_extra_positions)
                for b in matches
            )
            out_weights.extend(
                combine(probe_weight, build_weights[b]) for b in matches
            )
        else:
            out_rows.extend(
                build_rows[b]
                + tuple(probe_row[p] for p in right_extra_positions)
                for b in matches
            )
            out_weights.extend(
                combine(build_weights[b], probe_weight) for b in matches
            )
    out.bulk_load(out_rows, out_weights)
    if counters is not None:
        counters.intermediate_tuples += len(out_rows)
    if space is not None:
        space.gauge("join.rows").add(len(out_rows))
        build_gauge.remove(build_entries)
    return out
