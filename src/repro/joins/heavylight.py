"""Heavy/light union-of-trees decomposition for the 4-cycle query.

The tutorial's flagship example (§1, §3): the 4-cycle query has fractional
hypertree width 2, so any *single*-tree decomposition costs Θ(n²) — but its
submodular width is 1.5, and PANDA-style algorithms that route different
parts of the input to *multiple* trees achieve O~(n^1.5 + r).  This module
implements that construction concretely for

    Q(x1,x2,x3,x4) :- R1(x1,x2), R2(x2,x3), R3(x3,x4), R4(x4,x1)

(possibly a self-join, as in the "top-k lightest 4-cycles" query over a
graph's edge relation, and with the atoms in any order and orientation).
With Δ = √n and degree deg1(b) = |σ_{x2=b} R1|, deg3(d) = |σ_{x4=d} R3|,
the answer space is *partitioned* by the heaviness of the result's x2 and
x4 values:

- **x2 heavy** (deg1 > Δ — at most √n such values): one tree per heavy
  value b.  Fixing x2 = b reduces Q to the acyclic path query
  U1_b(x1) ⋈ U2_b(x3) ⋈ R3(x3,x4) ⋈ R4(x4,x1); each tree costs O~(n).
- **x2 light, x4 heavy**: symmetric, one tree per heavy x4 value.
- **x2 light, x4 light**: one tree joining the two "wedges"
  J12 = σ_{x2 light}(R1 ⋈ R2) and J34 = σ_{x4 light}(R3 ⋈ R4); the tree
  J12(x1,x2,x3) ⋈ J34(x3,x4,x1) is acyclic.  Each wedge has at most
  nΔ = n^1.5 pairs, and every pair is still visited, but only the rows
  that some 4-cycle closes are materialised: J34's keys are indexed
  set-at-a-time (x3 -> set of x1), J12's pairs probe them, and J34
  keeps the pairs of the keys hit, so T-DP's reducer finds nothing left
  to drop.

Every original atom contributes its weight exactly once per tree, so ranked
enumeration over the union (:func:`repro.anyk.api.compile_program`) ranks
like the original query, and the trees are answer-disjoint by construction.
Total cost: O(n^1.5), matching the tutorial's claim.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass
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
    fixed: dict[str, Any]
    label: str


def fourcycle_pattern(query: ConjunctiveQuery) -> tuple[list[str], list[int]]:
    """Check that ``query`` is a 4-cycle and return (variables, atom order).

    Expects four binary atoms closing a cycle on four distinct variables,
    in any order and orientation.  Walking the cycle from the first atom
    names the variables x1..x4; the order lists the atoms on x1—x2, x2—x3,
    x3—x4 and x4—x1 (``[0, 1, 2, 3]`` for :func:`repro.query.cq.cycle_query`).
    Raises :class:`QueryError` otherwise.
    """
    if len(query.atoms) != 4:
        raise QueryError("4-cycle decomposition needs exactly 4 atoms")
    for atom in query.atoms:
        if len(atom.variables) != 2 or len(atom.variable_set) != 2:
            raise QueryError(f"atom {atom} is not binary with distinct variables")
    variables, order = list(query.atoms[0].variables), [0]
    while len(order) < 4:
        step = [
            i
            for i, atom in enumerate(query.atoms)
            if i not in order and variables[-1] in atom.variable_set
        ]
        if len(step) != 1:
            raise QueryError(f"atoms do not chain from {variables[-1]!r}")
        order.append(step[0])
        (following,) = query.atoms[step[0]].variable_set - {variables[-1]}
        variables.append(following)
    if variables[-1] != variables[0] or len(set(variables)) != 4:
        raise QueryError("atoms do not close a 4-cycle on distinct variables")
    return variables[:-1], order


def fourcycle_union_of_trees(
    db: Database,
    query: ConjunctiveQuery,
    combine: Callable[[float, float], float] = operator.add,
    threshold: Optional[float] = None,
    counters: Optional[Counters] = None,
) -> list[UnionTree]:
    """Build the disjoint union-of-trees decomposition described above.

    Every column is read by variable name, and each tree atom takes its
    relation's schema, so a reversed atom needs no copy.
    """
    query.validate(db)
    (v1, v2, v3, v4), order = fourcycle_pattern(query)
    r1, r2, r3, r4 = (
        atom_relation(db, query, atom, counters=counters, name=f"R{i}")
        for i, atom in enumerate(order, 1)
    )
    n = max(1, max(len(r1), len(r2), len(r3), len(r4)))
    delta = threshold if threshold is not None else math.sqrt(n)

    # deg1 / deg3, the heavy trees' U1 / U3 and the wedges' inner sides
    around2 = _groups(r1, v2, v1, counters)  # x2 -> [(x1, w1)]
    around4 = _groups(r3, v4, v3, counters)  # x4 -> [(x3, w3)]
    heavy2 = {b for b, pairs in around2.items() if len(pairs) > delta}
    heavy4 = {d for d, pairs in around4.items() if len(pairs) > delta}

    # One tree per heavy x2 value, then per heavy x4 value with x2 light.
    # Every tree reads the same R3/R4 resp. R1L/R2L objects: relations
    # are read-only to the engines, so there is nothing to copy.
    trees: list[UnionTree] = []
    if heavy2:
        beside2 = _groups(r2, v2, v3, counters)  # x2 -> [(x3, w2)]
    for b in sorted(heavy2, key=repr):
        u1 = _unary(r1, around2.pop(b), v1, "U1", counters)
        u2 = _unary(r2, beside2.get(b, []), v3, "U2", counters)
        if len(u1) and len(u2):
            trees.append(_tree([u1, u2, r3, r4], f"_heavy_{v2}", {v2: b}, query))
    if heavy4:
        r1_light = _light_restriction(r1, v2, heavy2, "R1L", counters)
        r2_light = _light_restriction(r2, v2, heavy2, "R2L", counters)
        beside4 = _groups(r4, v4, v1, counters)  # x4 -> [(x1, w4)]
    for d in sorted(heavy4, key=repr):
        u3 = _unary(r3, around4.pop(d), v3, "U3", counters)
        u4 = _unary(r4, beside4.get(d, []), v1, "U4", counters)
        if len(u3) and len(u4):
            relations = [r1_light, r2_light, u3, u4]
            trees.append(_tree(relations, f"_heavy_{v4}", {v4: d}, query))

    # Both light: the groups now hold light values only.
    j12, j34 = _closed_wedges(
        (r1, r2, r3, r4), (v1, v2, v3, v4), around2, around4, combine, counters
    )
    if len(j12):
        trees.append(_tree([j12, j34], "_light", {}, query))
    return trees


def _tree(
    relations: list[Relation], suffix: str, fixed: dict, query: ConjunctiveQuery
) -> UnionTree:
    """The tree joining ``relations``, one atom per relation over its schema."""
    atoms = [Atom(relation.name, relation.schema) for relation in relations]
    label = ", ".join(f"{v}={value!r}" for v, value in fixed.items()) or "light"
    tree_query = ConjunctiveQuery(atoms, name=query.name + suffix)
    return UnionTree(Database(relations), tree_query, fixed, label)


def _groups(
    relation: Relation, middle: str, keep: str, counters: Optional[Counters]
) -> dict[Any, list[tuple[Any, float]]]:
    """``middle`` value -> [(``keep`` value, weight)], in row order."""
    middle_position, keep_position = relation.positions((middle, keep))
    groups: dict[Any, list[tuple[Any, float]]] = defaultdict(list)
    for row, weight in zip(relation.rows, relation.weights):
        groups[row[middle_position]].append((row[keep_position], weight))
    if counters is not None:
        counters.tuples_read += len(relation)
    return groups


def _unary(
    relation: Relation, pairs: list, keep: str, name: str, counters: Optional[Counters]
) -> Relation:
    """One group of :func:`_groups` as a unary relation over ``keep``."""
    if counters is not None:
        counters.tuples_read += len(pairs)
    rows = [(value,) for value, _ in pairs]
    return relation.derive(rows, [weight for _, weight in pairs], name, (keep,))


def _light_restriction(
    relation: Relation, middle: str, heavy: set, name: str, counters: Optional[Counters]
) -> Relation:
    """Rows whose ``middle`` value is not heavy."""
    position = relation.positions((middle,))[0]
    if counters is not None:
        counters.tuples_read += len(relation)
    return relation.restrict(
        [i for i, row in enumerate(relation.rows) if row[position] not in heavy], name
    )


def _closed_wedges(
    relations: tuple[Relation, Relation, Relation, Relation],
    variables: tuple[str, str, str, str],
    around2: dict,
    around4: dict,
    combine: Callable[[float, float], float],
    counters: Optional[Counters],
) -> tuple[Relation, Relation]:
    """J12(x1,x2,x3) and J34(x3,x4,x1) over the light groups, each holding
    only the rows whose (x1, x3) key the other wedge also has.

    Set-at-a-time.  *Index*: R4's x1 values grouped by x4 give J34's keys
    as ``x3 -> set(x1)``, one ``set.update`` per (x4, x3).  *Probe*: each
    J12 pair (R2 rows outer, the x2 group of R1 inner) tests its x1
    against its x3's set and becomes a row only on a hit.  *Materialise*:
    a second pass over R4's rows emits the J34 pairs (R4 rows outer, the
    x4 group of R3 inner) whose key was hit.  Both wedges keep their pair
    order: exactly what T-DP's reducer would leave of the unreduced
    wedges.  Weights are ``combine(w1, w2)`` and ``combine(w3, w4)``.
    """
    r1, r2, r3, r4 = relations
    v1, v2, v3, v4 = variables
    p4, p1 = r4.positions((v4, v1))
    x1s_by_x4: dict[Any, list] = defaultdict(list)
    for row in r4.rows:
        x1s_by_x4[row[p4]].append(row[p1])
    closing: dict[Any, set] = defaultdict(set)  # J34's keys: x3 -> {x1}
    for x4, x1s in x1s_by_x4.items():
        for x3, _ in around4.get(x4, ()):
            closing[x3].update(x1s)

    p2, p3 = r2.positions((v2, v3))
    rows12: list[tuple] = []
    weights12: list[float] = []
    hit: dict[Any, set] = defaultdict(set)  # the keys hit: x1 -> {x3}
    for row, w2 in zip(r2.rows, r2.weights):
        x2, x3 = row[p2], row[p3]
        x1s = closing.get(x3, ())
        for x1, w1 in around2.get(x2, ()):
            if x1 in x1s:
                hit[x1].add(x3)
                rows12.append((x1, x2, x3))
                weights12.append(combine(w1, w2))

    rows34: list[tuple] = []
    weights34: list[float] = []
    for row, w4 in zip(r4.rows, r4.weights):
        x3s = hit.get(row[p1])
        if x3s:
            x4, x1 = row[p4], row[p1]
            for x3, w3 in around4.get(x4, ()):
                if x3 in x3s:
                    rows34.append((x3, x4, x1))
                    weights34.append(combine(w3, w4))
    if counters is not None:
        probes = sum(len(around2.get(row[p2], ())) for row in r2.rows)
        pairs = sum(len(around4.get(row[p4], ())) for row in r4.rows)
        counters.tuples_read += len(r4) + len(r2) + pairs
        counters.hash_probes += len(r4) + len(r2) + probes
        counters.intermediate_tuples += len(rows12) + len(rows34)
    return (
        r1.derive(rows12, weights12, "J12", (v1, v2, v3)),
        r3.derive(rows34, weights34, "J34", (v3, v4, v1)),
    )
