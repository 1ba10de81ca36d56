"""Heavy/light union-of-trees decomposition for the 4-cycle query.

The tutorial's flagship example (§1, §3): the 4-cycle query has fractional
hypertree width 2, so any *single*-tree decomposition costs Θ(n²) — but its
submodular width is 1.5, and PANDA-style algorithms that route different
parts of the input to *multiple* trees achieve O~(n^1.5 + r).  This module
implements that construction concretely for

    Q(x1,x2,x3,x4) :- R1(x1,x2), R2(x2,x3), R3(x3,x4), R4(x4,x1)

(possibly a self-join, as in the "top-k lightest 4-cycles" query over a
graph's edge relation).  With Δ = √n and degree deg1(b) = |σ_{x2=b} R1|,
deg3(d) = |σ_{x4=d} R3|, the answer space is *partitioned* by the heaviness
of the result's x2 and x4 values:

- **x2 heavy** (deg1 > Δ — at most √n such values): one tree per heavy
  value b.  Fixing x2 = b reduces Q to the acyclic path query
  U1_b(x1) ⋈ U2_b(x3) ⋈ R3(x3,x4) ⋈ R4(x4,x1); each tree costs O~(n).
- **x2 light, x4 heavy**: symmetric, one tree per heavy x4 value.
- **x2 light, x4 light**: one tree joining the two materialized "wedges"
  J12 = σ_{x2 light}(R1 ⋈ R2) and J34 = σ_{x4 light}(R3 ⋈ R4), each of size
  at most nΔ = n^1.5; the tree J12(x1,x2,x3) ⋈ J34(x3,x4,x1) is acyclic.

Every original atom contributes its weight exactly once per tree, so ranked
enumeration over the union (a merge of per-tree any-k streams —
:mod:`repro.anyk.cyclic`) ranks identically to the original query, and the
trees are answer-disjoint by construction.  Total materialization cost:
O(n^1.5), matching the tutorial's claim.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.data.database import Database
from repro.data.relation import Relation
from repro.joins.base import atom_relation
from repro.query.cq import Atom, ConjunctiveQuery, QueryError
from repro.util.counters import Counters


@dataclass
class UnionTree:
    """One acyclic member of a union-of-trees decomposition.

    ``query`` is acyclic over ``database``'s derived relations; ``fixed``
    maps original query variables eliminated in this tree to the constant
    they are bound to (re-attached to every result of the tree).
    """

    database: Database
    query: ConjunctiveQuery
    fixed: dict[str, Any] = field(default_factory=dict)
    label: str = ""


def fourcycle_pattern(query: ConjunctiveQuery) -> tuple[list[str], list[int]]:
    """Check that ``query`` is a 4-cycle and return (variables, atom order).

    Expects four binary atoms forming x1—x2—x3—x4—x1 with four distinct
    variables, in chain order (as produced by
    :func:`repro.query.cq.cycle_query`).  Raises :class:`QueryError`
    otherwise.
    """
    if len(query.atoms) != 4:
        raise QueryError("4-cycle decomposition needs exactly 4 atoms")
    for atom in query.atoms:
        if len(atom.variables) != 2 or len(atom.variable_set) != 2:
            raise QueryError(f"atom {atom} is not binary with distinct variables")
    variables = [query.atoms[0].variables[0]]
    for i in range(4):
        first, second = query.atoms[i].variables
        if first != variables[-1]:
            raise QueryError(
                f"atom {query.atoms[i]} does not chain from {variables[-1]!r}"
            )
        variables.append(second)
    if variables[-1] != variables[0] or len(set(variables[:-1])) != 4:
        raise QueryError("atoms do not close a 4-cycle on distinct variables")
    return variables[:-1], [0, 1, 2, 3]


def fourcycle_union_of_trees(
    db: Database,
    query: ConjunctiveQuery,
    combine: Callable[[float, float], float] = operator.add,
    threshold: Optional[float] = None,
    counters: Optional[Counters] = None,
) -> list[UnionTree]:
    """Build the disjoint union-of-trees decomposition described above."""
    query.validate(db)
    (v1, v2, v3, v4), _ = fourcycle_pattern(query)

    r1 = atom_relation(db, query, 0, counters=counters, name="R1")
    r2 = atom_relation(db, query, 1, counters=counters, name="R2")
    r3 = atom_relation(db, query, 2, counters=counters, name="R3")
    r4 = atom_relation(db, query, 3, counters=counters, name="R4")

    n = max(1, max(len(r1), len(r2), len(r3), len(r4)))
    delta = threshold if threshold is not None else math.sqrt(n)

    index1 = r1.index_on((v2,))  # x2 value -> R1 rows (x1 partners)
    index3 = r3.index_on((v4,))  # x4 value -> R3 rows (x3 partners)
    heavy2 = {value[0] for value, rows in index1.items() if len(rows) > delta}
    heavy4 = {value[0] for value, rows in index3.items() if len(rows) > delta}

    trees: list[UnionTree] = []

    # ---- x2 heavy: one tree per heavy value -------------------------
    # (every tree reads the same R3/R4 resp. R1L/R2L objects: relations
    # are read-only to the engines, so there is nothing to copy)
    for b in sorted(heavy2, key=repr):
        u1 = _filtered_unary(r1, v2, b, keep=v1, name="U1", counters=counters)
        u2 = _filtered_unary(r2, v2, b, keep=v3, name="U2", counters=counters)
        if len(u1) == 0 or len(u2) == 0:
            continue
        tree_db = Database([u1, u2, r3, r4])
        tree_query = ConjunctiveQuery(
            [
                Atom("U1", (v1,)),
                Atom("U2", (v3,)),
                Atom("R3", (v3, v4)),
                Atom("R4", (v4, v1)),
            ],
            name=f"{query.name}_heavy_{v2}",
        )
        trees.append(
            UnionTree(tree_db, tree_query, fixed={v2: b}, label=f"{v2}={b!r}")
        )

    # ---- x2 light restrictions shared by the remaining cases --------
    r1_light = _light_restriction(r1, v2, heavy2, "R1L", counters)
    r2_light = _light_restriction(r2, v2, heavy2, "R2L", counters)

    # ---- x2 light, x4 heavy: one tree per heavy x4 value ------------
    for d in sorted(heavy4, key=repr):
        u3 = _filtered_unary(r3, v4, d, keep=v3, name="U3", counters=counters)
        u4 = _filtered_unary(r4, v4, d, keep=v1, name="U4", counters=counters)
        if len(u3) == 0 or len(u4) == 0:
            continue
        tree_db = Database([r1_light, r2_light, u3, u4])
        tree_query = ConjunctiveQuery(
            [
                Atom("R1L", (v1, v2)),
                Atom("R2L", (v2, v3)),
                Atom("U3", (v3,)),
                Atom("U4", (v1,)),
            ],
            name=f"{query.name}_heavy_{v4}",
        )
        trees.append(
            UnionTree(tree_db, tree_query, fixed={v4: d}, label=f"{v4}={d!r}")
        )

    # ---- both light: join the two wedges -----------------------------
    j12 = _wedge(r1_light, r2_light, v2, "J12", combine, counters)
    j34 = _light_restriction(r3, v4, heavy4, "R3L", counters)
    r4_light = _light_restriction(r4, v4, heavy4, "R4L", counters)
    j34 = _wedge(j34, r4_light, v4, "J34", combine, counters)
    if len(j12) and len(j34):
        tree_db = Database([j12, j34])
        tree_query = ConjunctiveQuery(
            [Atom("J12", (v1, v2, v3)), Atom("J34", (v3, v4, v1))],
            name=f"{query.name}_light",
        )
        trees.append(UnionTree(tree_db, tree_query, fixed={}, label="light"))

    return trees


def _filtered_unary(
    relation: Relation,
    filter_var: str,
    value: Any,
    keep: str,
    name: str,
    counters: Optional[Counters],
) -> Relation:
    """σ_{filter_var = value}(relation) projected (with weights) to ``keep``."""
    row_ids = relation.index_on((filter_var,)).get((value,), ())
    keep_position = relation.positions((keep,))[0]
    if counters is not None:
        counters.tuples_read += len(row_ids)
    rows, weights = relation.rows, relation.weights
    return relation.derive(
        [(rows[i][keep_position],) for i in row_ids],
        [weights[i] for i in row_ids],
        name,
        (keep,),
    )


def _light_restriction(
    relation: Relation,
    variable: str,
    heavy_values: set,
    name: str,
    counters: Optional[Counters],
) -> Relation:
    """Rows whose ``variable`` value is not heavy."""
    position = relation.positions((variable,))[0]
    if counters is not None:
        counters.tuples_read += len(relation)
    return relation.restrict(
        [
            i
            for i, row in enumerate(relation.rows)
            if row[position] not in heavy_values
        ],
        name,
    )


def _wedge(
    left: Relation,
    right: Relation,
    join_var: str,
    name: str,
    combine: Callable[[float, float], float],
    counters: Optional[Counters],
) -> Relation:
    """Natural join of two relations sharing exactly ``join_var``.

    Used for J12 = R1L ⋈ R2L and J34 = R3L ⋈ R4L; sizes are bounded by
    n·Δ because the shared variable is light on the side indexed.
    """
    shared = [a for a in left.schema if a in right.schema]
    if shared != [join_var]:
        raise QueryError(
            f"wedge expects exactly one shared variable {join_var!r}, "
            f"got {shared}"
        )
    left_index = left.index_on((join_var,))
    right_position = right.positions((join_var,))[0]
    extra = [a for a in right.schema if a != join_var]
    extra_positions = right.positions(extra)
    left_rows, left_weights = left.rows, left.weights
    out_rows: list[tuple] = []
    out_weights: list[float] = []
    for row, weight in zip(right.rows, right.weights):
        matches = left_index.get((row[right_position],))
        if matches:
            tail = tuple(row[p] for p in extra_positions)
            out_rows.extend([left_rows[i] + tail for i in matches])
            out_weights.extend(
                [combine(left_weights[i], weight) for i in matches]
            )
    if counters is not None:
        counters.tuples_read += len(right)
        counters.hash_probes += len(right)
        counters.intermediate_tuples += len(out_rows)
    return left.derive(out_rows, out_weights, name, left.schema + tuple(extra))
