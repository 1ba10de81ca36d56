"""Tests for fractional edge covers and the AGM bound (§3 claims)."""

import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings

from repro.data.generators import random_graph_database, triangle_worstcase_database
from repro.joins.generic_join import evaluate as generic_join
from repro.query.agm import (
    _solve_cover,
    agm_bound,
    fractional_cover_number,
    fractional_edge_cover,
    integral_cover_number,
)
from repro.query.cq import Atom, ConjunctiveQuery, QueryError, cycle_query, path_query, star_query, triangle_query

from conftest import graph_db_strategy


def test_triangle_fractional_cover_is_three_halves():
    assert fractional_cover_number(triangle_query()) == pytest.approx(1.5)


def test_fourcycle_fractional_cover_is_two():
    assert fractional_cover_number(cycle_query(4)) == pytest.approx(2.0)


def test_fivecycle_fractional_vs_integral_gap():
    q = cycle_query(5)
    assert fractional_cover_number(q) == pytest.approx(2.5)
    assert integral_cover_number(q) == 3


def test_path_cover_numbers():
    # A length-l chain has l+1 variables and needs ceil((l+1)/2) atoms,
    # both fractionally and integrally (consecutive disjoint edges).
    assert fractional_cover_number(path_query(3)) == pytest.approx(2.0)
    assert integral_cover_number(path_query(3)) == 2
    assert fractional_cover_number(path_query(4)) == pytest.approx(3.0)
    assert integral_cover_number(path_query(4)) == 3


def test_star_cover_is_number_of_arms():
    # Every arm has a private variable, so all atoms are needed.
    assert fractional_cover_number(star_query(3)) == pytest.approx(3.0)


def test_cover_weights_cover_every_variable():
    q = triangle_query()
    cover = fractional_edge_cover(q)
    for variable in q.variables:
        total = sum(
            w
            for w, atom in zip(cover.weights, q.atoms)
            if variable in atom.variable_set
        )
        assert total >= 1.0 - 1e-9


def test_sizes_length_validated():
    with pytest.raises(QueryError):
        fractional_edge_cover(triangle_query(), sizes=[1, 2])


def test_agm_bound_on_worstcase_triangle_matches_n_to_1_5():
    db = triangle_worstcase_database(40)
    n = len(db["R"])
    bound = agm_bound(db, triangle_query())
    assert bound == pytest.approx(n**1.5, rel=1e-6)


def test_agm_bound_zero_for_empty_relation():
    db = triangle_worstcase_database(10)
    db["T"].rows.clear()
    db["T"].weights.clear()
    assert agm_bound(db, triangle_query()) == 0.0


@settings(max_examples=30, deadline=None)
@given(graph_db_strategy())
def test_agm_bound_dominates_true_output_size(db):
    for q in (triangle_query(("E", "E", "E")), cycle_query(4)):
        out = generic_join(db, q)
        assert len(out) <= agm_bound(db, q) + 1e-6


def test_integral_cover_of_single_atom():
    q = ConjunctiveQuery([Atom("R", ("a", "b"))])
    assert integral_cover_number(q) == 1
    assert fractional_cover_number(q) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# The stdlib simplex against its oracle, and out of the process
# ----------------------------------------------------------------------
def test_cover_numbers_are_exact_on_the_textbook_queries():
    """ρ* of the triangle / 4-cycle / 5-cycle / 4-path, bit for bit (the
    pivots only ever halve and add small integers)."""
    assert fractional_cover_number(triangle_query()) == 1.5
    assert fractional_cover_number(cycle_query(4)) == 2.0
    assert fractional_cover_number(cycle_query(5)) == 2.5
    assert fractional_cover_number(path_query(4)) == 3.0


def test_simplex_matches_scipy_linprog_on_random_cover_lps():
    """The optimum is solver-independent (the *vertex* need not be): on
    seeded random cover LPs with unit and log-size costs, objective and
    unit-cost cover number within 1e-9 of HiGHS, and the returned weights
    a feasible cover attaining the objective."""
    np = pytest.importorskip("numpy")
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(19)
    for trial in range(300):
        atoms = rng.randint(1, 7)
        constraints = sorted(
            {
                tuple(sorted(rng.sample(range(atoms), rng.randint(1, atoms))))
                for _ in range(rng.randint(1, 8))
            }
        )
        if trial % 2:
            costs = [math.log(max(2, rng.randint(0, 5000))) for _ in range(atoms)]
        else:
            costs = [1.0] * atoms
        weights, objective = _solve_cover(constraints, costs)
        matrix = np.zeros((len(constraints), atoms))
        for row, members in enumerate(constraints):
            matrix[row, list(members)] = -1.0
        oracle = linprog(
            c=np.array(costs),
            A_ub=matrix,
            b_ub=-np.ones(len(constraints)),
            bounds=[(0, None)] * atoms,
            method="highs",
        )
        assert oracle.success
        assert objective == pytest.approx(oracle.fun, abs=1e-9)
        assert all(w >= 0.0 for w in weights)
        for members in constraints:
            assert sum(weights[e] for e in members) >= 1.0 - 1e-9
        assert sum(c * w for c, w in zip(costs, weights)) == pytest.approx(
            objective, abs=1e-9
        )
        if not trial % 2:
            assert sum(weights) == pytest.approx(float(oracle.x.sum()), abs=1e-9)


def test_serving_process_imports_neither_numpy_nor_scipy():
    """The planner's LP was the only reason either was loaded (0.6 s and
    ~60 MB per process); a dependency must not silently come back."""
    probe = (
        "import sys, repro.sql, repro.server.service; "
        "sys.exit(bool({'numpy', 'scipy'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, sys.path)))
    done = subprocess.run([sys.executable, "-c", probe], env=env, timeout=60)
    assert done.returncode == 0
