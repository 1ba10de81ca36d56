"""Fractional edge covers and the AGM output-size bound (§3).

Atserias, Grohe and Marx showed that the output size of a natural join is at
most ``∏_e |R_e|^{x_e}`` for any fractional edge cover ``x`` of the query
hypergraph, and that the bound is tight for the cover minimizing the
right-hand side.  Taking logarithms turns the minimization into a linear
program:

    minimize    Σ_e x_e · log |R_e|
    subject to  Σ_{e ∋ v} x_e ≥ 1   for every variable v
                x_e ≥ 0

which :func:`_solve_cover` solves with a dense-tableau simplex on the
*dual* (a query has a handful of atoms and variables; importing an LP
library for it costs every process more than all its queries' LPs
together).  With unit relation sizes the optimal objective is the
*fractional edge cover number* ρ*(Q) — e.g. 1.5 for the triangle query, 2
for the 4-cycle — the exponent in the worst-case output size O(n^{ρ*})
that worst-case-optimal join algorithms match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.data.database import Database
from repro.query.cq import ConjunctiveQuery, QueryError
from repro.util.lru import LruCache


@dataclass(frozen=True)
class FractionalCover:
    """Result of the fractional edge cover LP.

    ``weights[i]`` is the cover weight of atom ``i``; ``log_bound`` is the
    optimal objective Σ x_e log|R_e| (natural log), so the AGM bound itself
    is ``exp(log_bound)``.
    """

    weights: tuple[float, ...]
    log_bound: float

    @property
    def bound(self) -> float:
        """The AGM bound ∏ |R_e|^{x_e}."""
        return math.exp(self.log_bound)

    @property
    def cover_number(self) -> float:
        """Σ x_e — equals ρ*(Q) when all relation sizes are equal."""
        return sum(self.weights)


#: Memo for solved cover LPs.  The LP depends only on the query's
#: hyperedge structure and the per-atom objective coefficients, both tiny
#: and hashable — and the same structures recur constantly (every
#: decomposition candidate of an exhaustive `best_decomposition` search,
#: every EXPLAIN of the same query shape), so caching turns the planner's
#: and the width machinery's hot path into cache probes (the shared
#: bounded LRU also backing the server's plan cache).
_COVER_CACHE = LruCache(65536)

#: Below this a tableau cell is rounding noise, not a sign.
_EPS = 1e-12


def _solve_cover(
    constraints: Sequence[Sequence[int]], costs: Sequence[float]
) -> tuple[list[float], float]:
    """``min c·x  s.t.  Σ_{e ∈ constraints[v]} x_e ≥ 1 ∀v,  x ≥ 0`` for
    strictly positive ``costs``: the optimal ``x`` and objective.

    Primal simplex on the dual ``max Σ_v y_v  s.t.  Σ_{v ∋ e} y_v ≤ c_e,
    y ≥ 0``, whose slack basis is feasible because ``c > 0`` (no phase
    one).  Dense tableau, one row per atom ``e`` (columns: the ``y``, the
    slacks, the right-hand side); Bland's rule — smallest entering index,
    ratio ties to the smallest basic variable — so it terminates.  At the
    optimum the cover weights are the slack columns' reduced costs.
    """
    num_atoms, num_vars = len(costs), len(constraints)
    tableau = [[0.0] * (num_vars + num_atoms + 1) for _ in range(num_atoms)]
    for v, atoms in enumerate(constraints):
        for e in atoms:
            tableau[e][v] = 1.0
    for e, cost in enumerate(costs):
        tableau[e][num_vars + e] = 1.0
        tableau[e][-1] = cost
    reduced = [-1.0] * num_vars + [0.0] * (num_atoms + 1)
    basis = list(range(num_vars, num_vars + num_atoms))
    while True:
        entering = next(
            (j for j in range(num_vars + num_atoms) if reduced[j] < -_EPS), None
        )
        if entering is None:
            break
        ratios = [
            (row[-1] / row[entering], basis[i], i)
            for i, row in enumerate(tableau)
            if row[entering] > _EPS
        ]
        if not ratios:  # pragma: no cover - every variable is in an atom
            raise RuntimeError("edge cover LP is infeasible")
        leaving = min(ratios)[2]
        pivot_row = tableau[leaving]
        pivot = pivot_row[entering]
        pivot_row[:] = [cell / pivot for cell in pivot_row]
        for row in tableau + [reduced]:
            factor = row[entering]
            if row is not pivot_row and factor:
                row[:] = [a - factor * b for a, b in zip(row, pivot_row)]
        basis[leaving] = entering
    weights = [
        0.0 if abs(x) < _EPS else x
        for x in reduced[num_vars : num_vars + num_atoms]
    ]
    return weights, reduced[-1]


def fractional_edge_cover(
    query: ConjunctiveQuery, sizes: Optional[Sequence[int]] = None
) -> FractionalCover:
    """Solve the fractional edge cover LP for ``query`` (memoized).

    ``sizes[i]`` is the cardinality of atom i's relation; omitted sizes
    default to Euler's number so the objective equals the cover number
    (log e = 1), which is convenient for computing ρ*(Q) directly.
    """
    atom_count = len(query.atoms)
    if sizes is None:
        logs = [1.0] * atom_count
    else:
        if len(sizes) != atom_count:
            raise QueryError(
                f"{len(sizes)} sizes supplied for {atom_count} atoms"
            )
        # log(max(2, .)) keeps empty/singleton relations from producing a
        # degenerate all-zero objective; the bound stays valid (it only
        # grows) and the LP stays bounded.
        logs = [math.log(max(2, s)) for s in sizes]

    # Canonical key: variable names are irrelevant to the LP, only which
    # atoms share them — encode each variable as the (sorted) tuple of
    # atom indices containing it, deduplicated.
    incidence = frozenset(
        tuple(
            i for i, atom in enumerate(query.atoms) if v in atom.variable_set
        )
        for v in query.variables
    )
    key = (incidence, atom_count, tuple(logs))
    cached = _COVER_CACHE.get(key)
    if cached is not None:
        return cached

    # One constraint per distinct incidence pattern (variables in the same
    # atoms state the same inequality), in a canonical order.
    weights, log_bound = _solve_cover(sorted(incidence), logs)
    cover = FractionalCover(weights=tuple(weights), log_bound=log_bound)
    _COVER_CACHE.put(key, cover)
    return cover


def fractional_cover_number(query: ConjunctiveQuery) -> float:
    """ρ*(Q): the optimal fractional edge cover with unit weights."""
    return fractional_edge_cover(query).cover_number


def agm_bound(db: Database, query: ConjunctiveQuery) -> float:
    """The AGM bound on ``query``'s output size over ``db``.

    Any database instance satisfies ``|output| <= agm_bound`` (tested as an
    invariant in the suite); for each query there are instances that meet
    it, which is why worst-case-optimal join algorithms run in
    O~(agm_bound).
    """
    query.validate(db)
    sizes = [len(db[atom.relation]) for atom in query.atoms]
    if any(s == 0 for s in sizes):
        return 0.0
    cover = fractional_edge_cover(query, sizes)
    return cover.bound


def integral_cover_number(query: ConjunctiveQuery) -> int:
    """Smallest number of atoms covering all variables (for comparison).

    The gap between the integral and fractional cover numbers is exactly
    what separates binary-join-style reasoning from the AGM bound; the
    benchmarks report both.  Exhaustive search — query size is a constant
    in data complexity (§1's prerequisites discussion).
    """
    from itertools import combinations

    all_vars = set(query.variables)
    atoms = query.atoms
    for size in range(1, len(atoms) + 1):
        for subset in combinations(range(len(atoms)), size):
            covered: set[str] = set()
            for index in subset:
                covered |= atoms[index].variable_set
            if covered == all_vars:
                return size
    raise QueryError("no atom subset covers all variables")  # pragma: no cover
