"""Decompositions of cyclic queries into acyclic ones (§3).

Every algorithm with O~(n^d + r) output-sensitive complexity follows the
same high-level recipe the tutorial describes: decompose the cyclic query
into a tree-shaped acyclic query, materialize a derived relation per tree
node, then run an acyclic algorithm (Yannakakis, or the any-k T-DP) over the
derived relations.  This module implements that recipe:

- tree decompositions of the query's primal graph via elimination orders
  (min-fill heuristic, plus exhaustive search over orders for the
  constant-size queries of the tutorial's examples);
- width measures per decomposition: tree width, generalized hypertree width
  (integral edge covers of bags) and fractional hypertree width (LP edge
  covers, :mod:`repro.query.agm`);
- :func:`decompose_to_acyclic` — materialize bag relations (with ranking
  weights combined once per original atom) and return an equivalent acyclic
  query over a derived database.

The *union of multiple trees* idea behind submodular width (PANDA; the
tutorial's O~(n^1.5 + r) 4-cycle claim) needs data-dependent heavy/light
splits and lives in :mod:`repro.anyk.cyclic` and :mod:`repro.joins.boolean`,
which reuse this module's machinery per tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.agm import fractional_edge_cover
from repro.query.cq import Atom, ConjunctiveQuery, QueryError
from repro.query.hypergraph import Hypergraph, JoinTree, gyo_reduction
from repro.util.counters import Counters


@dataclass
class Bag:
    """One node of a tree decomposition: a set of variables plus the query
    atoms assigned to it (every assigned atom's variables are inside the
    bag)."""

    variables: frozenset[str]
    atom_indexes: list[int]


@dataclass
class TreeDecomposition:
    """A rooted tree decomposition of a query's primal graph."""

    query: ConjunctiveQuery
    bags: list[Bag]
    parent: list[Optional[int]]

    @property
    def width(self) -> int:
        """Tree width: max bag size minus one."""
        return max(len(bag.variables) for bag in self.bags) - 1

    def children(self) -> dict[int, list[int]]:
        """Bag index -> child bag indices."""
        kids: dict[int, list[int]] = {i: [] for i in range(len(self.bags))}
        for i, par in enumerate(self.parent):
            if par is not None:
                kids[par].append(i)
        return kids

    def fractional_hypertree_width(self) -> float:
        """max over bags of the fractional edge cover of the bag's
        variables by *all* query atoms (the fhw of this decomposition)."""
        return max(self._bag_cover(bag, fractional=True) for bag in self.bags)

    def generalized_hypertree_width(self) -> int:
        """max over bags of the integral edge cover of the bag (ghw)."""
        return max(
            int(round(self._bag_cover(bag, fractional=False)))
            for bag in self.bags
        )

    def _bag_cover(self, bag: Bag, fractional: bool) -> float:
        relevant = [
            atom for atom in self.query.atoms if atom.variable_set & bag.variables
        ]
        if not relevant:
            return 0.0
        sub = ConjunctiveQuery(
            [
                Atom(a.relation, tuple(v for v in a.variables if v in bag.variables))
                for a in relevant
                if any(v in bag.variables for v in a.variables)
            ],
            name="bagcover",
        )
        if fractional:
            return fractional_edge_cover(sub).cover_number
        # Integral: smallest number of atoms covering the bag.
        for size in range(1, len(relevant) + 1):
            for subset in itertools.combinations(relevant, size):
                covered: set[str] = set()
                for atom in subset:
                    covered |= atom.variable_set & bag.variables
                if covered >= bag.variables:
                    return float(size)
        raise QueryError(
            f"bag {set(bag.variables)} not coverable by query atoms"
        )  # pragma: no cover

    def is_valid(self) -> bool:
        """Check the tree decomposition axioms (used by tests).

        (1) every atom's variables are inside some bag; (2) for every
        variable, the bags containing it form a connected subtree.
        """
        for atom in self.query.atoms:
            if not any(atom.variable_set <= bag.variables for bag in self.bags):
                return False
        for variable in self.query.variables:
            holders = {
                i for i, bag in enumerate(self.bags) if variable in bag.variables
            }
            if not holders:
                return False
            topmost = set()
            for node in holders:
                current = node
                while (
                    self.parent[current] is not None
                    and self.parent[current] in holders
                ):
                    current = self.parent[current]
                topmost.add(current)
            if len(topmost) != 1:
                return False
        return True


# ----------------------------------------------------------------------
# Elimination-order construction
# ----------------------------------------------------------------------
def decomposition_from_order(
    query: ConjunctiveQuery, order: Sequence[str]
) -> TreeDecomposition:
    """Clique-tree construction from a variable elimination order.

    Eliminating variable v creates the bag {v} ∪ N(v) (current neighbors),
    then turns N(v) into a clique.  The bag's parent is the bag created when
    the *next* variable from the bag (in elimination order) is eliminated —
    the standard construction guaranteeing the decomposition axioms.
    """
    if set(order) != set(query.variables):
        raise QueryError("elimination order must be a permutation of variables")
    adjacency = Hypergraph(query).primal_neighbors()
    adjacency = {v: set(neighbors) for v, neighbors in adjacency.items()}
    position = {v: i for i, v in enumerate(order)}

    bag_variable_sets: list[frozenset[str]] = []
    bag_of_variable: dict[str, int] = {}
    for v in order:
        neighbors = {u for u in adjacency[v] if position[u] > position[v]}
        bag_vars = frozenset({v} | neighbors)
        bag_of_variable[v] = len(bag_variable_sets)
        bag_variable_sets.append(bag_vars)
        for a, b in itertools.combinations(neighbors, 2):
            adjacency[a].add(b)
            adjacency[b].add(a)

    parent: list[Optional[int]] = []
    for i, v in enumerate(order):
        rest = bag_variable_sets[i] - {v}
        if rest:
            successor = min(rest, key=lambda u: position[u])
            parent.append(bag_of_variable[successor])
        else:
            parent.append(None)
    # The construction can yield a forest (one root per connected
    # component); link extra roots under the last bag so downstream code
    # sees a single tree.  Cross-edges carry no shared variables, which is
    # exactly a cross product — acyclic and handled fine.
    roots = [i for i, par in enumerate(parent) if par is None]
    for extra_root in roots[:-1]:
        parent[extra_root] = roots[-1]

    bags = [Bag(variables=vs, atom_indexes=[]) for vs in bag_variable_sets]
    _assign_atoms(query, bags)
    return TreeDecomposition(query=query, bags=bags, parent=parent)


def _assign_atoms(query: ConjunctiveQuery, bags: list[Bag]) -> None:
    """Assign each atom to exactly one bag containing all its variables.

    Prefers the smallest such bag, which keeps derived relations tight.
    """
    for index, atom in enumerate(query.atoms):
        candidates = [
            (len(bag.variables), i)
            for i, bag in enumerate(bags)
            if atom.variable_set <= bag.variables
        ]
        if not candidates:
            raise QueryError(
                f"no bag covers atom {atom}; invalid decomposition"
            )  # pragma: no cover - construction guarantees a cover
        bags[min(candidates)[1]].atom_indexes.append(index)


def min_fill_order(query: ConjunctiveQuery) -> list[str]:
    """The classic min-fill elimination heuristic."""
    adjacency = Hypergraph(query).primal_neighbors()
    adjacency = {v: set(n) for v, n in adjacency.items()}
    remaining = set(query.variables)
    order: list[str] = []
    while remaining:
        best = None
        best_fill = None
        for v in sorted(remaining):
            neighbors = adjacency[v] & remaining
            fill = sum(
                1
                for a, b in itertools.combinations(sorted(neighbors), 2)
                if b not in adjacency[a]
            )
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
        assert best is not None
        order.append(best)
        neighbors = adjacency[best] & remaining
        for a, b in itertools.combinations(neighbors, 2):
            adjacency[a].add(b)
            adjacency[b].add(a)
        remaining.remove(best)
    return order


def min_fill_decomposition(query: ConjunctiveQuery) -> TreeDecomposition:
    """Tree decomposition from the min-fill heuristic order."""
    return decomposition_from_order(query, min_fill_order(query))


def best_decomposition(
    query: ConjunctiveQuery,
    objective: Callable[[TreeDecomposition], float] | None = None,
    max_exhaustive_variables: int = 8,
) -> TreeDecomposition:
    """Best decomposition under ``objective`` (default: fhw, then width).

    Queries are constant-size in data complexity (§1), so for up to
    ``max_exhaustive_variables`` variables we search all elimination orders;
    beyond that we fall back to min-fill.
    """
    if objective is None:
        objective = lambda td: (td.fractional_hypertree_width(), td.width)
    variables = list(query.variables)
    if len(variables) > max_exhaustive_variables:
        return min_fill_decomposition(query)
    best_td: Optional[TreeDecomposition] = None
    best_score = None
    for order in itertools.permutations(variables):
        td = decomposition_from_order(query, order)
        score = objective(td)
        if best_score is None or score < best_score:
            best_td, best_score = td, score
    assert best_td is not None
    return best_td


# ----------------------------------------------------------------------
# Materializing an equivalent acyclic query
# ----------------------------------------------------------------------
@dataclass
class AcyclicRewrite:
    """Result of :func:`decompose_to_acyclic`.

    ``database`` holds one derived relation per (non-empty) bag;
    ``query`` is acyclic over those relations and equivalent to the
    original; derived tuple weights combine the original atom weights, each
    original atom counted exactly once across all bags.
    """

    database: Database
    query: ConjunctiveQuery
    join_tree: JoinTree
    decomposition: TreeDecomposition


def decompose_to_acyclic(
    db: Database,
    query: ConjunctiveQuery,
    decomposition: Optional[TreeDecomposition] = None,
    combine: Callable[[float, float], float] = lambda a, b: a + b,
    counters: Optional[Counters] = None,
) -> AcyclicRewrite:
    """Rewrite a (cyclic) query into an equivalent acyclic one.

    Each bag with assigned atoms is materialized as the full join of those
    atoms (no projection — the query is full, so every variable is output).
    Tuple weights are combined with ``combine`` (the ranking function's
    accumulation operator; defaults to sum).  Because every original atom is
    assigned to exactly one bag, every output weight is combined exactly
    once per atom, so ranked enumeration over the rewrite ranks identically
    to the original query.  ``counters`` are charged the bags'
    Generic-Join materialisation.
    """
    query.validate(db)
    if decomposition is None:
        decomposition = best_decomposition(query)

    derived_db = Database()
    derived_atoms: list[Atom] = []
    for i, bag in enumerate(decomposition.bags):
        if not bag.atom_indexes:
            continue
        name = f"bag{i}"
        relation, variables = _materialize_bag(db, query, bag, name, combine, counters)
        derived_db.add(relation)
        derived_atoms.append(Atom(name, tuple(variables)))
    derived_query = ConjunctiveQuery(derived_atoms, name=f"{query.name}_acyclic")

    tree = gyo_reduction(derived_query)
    if tree is None:
        # Rare: derived schemas can lose the running-intersection property
        # relative to the bags.  Collapse the whole query into one bag —
        # always acyclic, still correct, just wider (documented fallback).
        whole = Bag(
            variables=frozenset(query.variables),
            atom_indexes=list(range(len(query.atoms))),
        )
        relation, variables = _materialize_bag(
            db, query, whole, "bag_all", combine, counters
        )
        derived_db = Database([relation])
        derived_query = ConjunctiveQuery(
            [Atom("bag_all", tuple(variables))], name=f"{query.name}_acyclic"
        )
        tree = gyo_reduction(derived_query)
        assert tree is not None
        decomposition = TreeDecomposition(
            query=query, bags=[whole], parent=[None]
        )
    return AcyclicRewrite(
        database=derived_db,
        query=derived_query,
        join_tree=tree,
        decomposition=decomposition,
    )


def _materialize_bag(
    db: Database,
    query: ConjunctiveQuery,
    bag: Bag,
    name: str,
    combine: Callable[[float, float], float],
    counters: Optional[Counters],
) -> tuple[Relation, list[str]]:
    """Materialize the full join of the bag's atoms, combining weights.

    Uses Generic-Join so that a *cyclic* bag (e.g. the single bag of the
    triangle query's optimal GHD) is materialized within its AGM bound
    rather than through a possibly quadratic pairwise plan.  Imported
    lazily to avoid a module-level cycle with :mod:`repro.joins`.
    """
    from repro.joins.generic_join import evaluate as generic_join

    sub = ConjunctiveQuery(
        [query.atoms[i] for i in bag.atom_indexes], name=name
    )
    relation = generic_join(db, sub, combine=combine, counters=counters)
    relation.name = name
    return relation, list(sub.variables)
