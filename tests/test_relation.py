"""Tests for the weighted relation substrate."""

import math

import pytest

from repro.data.relation import Relation, SchemaError


def test_basic_construction_and_iteration():
    r = Relation("R", ("a", "b"), [(1, 2), (3, 4)], [0.5, 0.25])
    assert len(r) == 2
    assert list(r) == [(1, 2), (3, 4)]
    assert r.weights == [0.5, 0.25]
    assert r.arity == 2


def test_default_weights_are_zero():
    r = Relation("R", ("a",), [(1,), (2,)])
    assert r.weights == [0.0, 0.0]


def test_empty_schema_rejected():
    with pytest.raises(SchemaError):
        Relation("R", ())


def test_duplicate_attributes_rejected():
    with pytest.raises(SchemaError):
        Relation("R", ("a", "a"))


def test_arity_mismatch_rejected():
    r = Relation("R", ("a", "b"))
    with pytest.raises(SchemaError):
        r.add((1,))
    with pytest.raises(SchemaError):
        r.add((1, 2, 3))


def test_weight_row_count_mismatch_rejected():
    with pytest.raises(SchemaError):
        Relation("R", ("a",), [(1,)], [0.1, 0.2])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_weights_rejected(bad):
    r = Relation("R", ("a",))
    with pytest.raises(SchemaError):
        r.add((1,), bad)


def test_positions_and_key_of():
    r = Relation("R", ("a", "b", "c"))
    assert r.positions(("c", "a")) == (2, 0)
    assert r.key_of((10, 20, 30), ("c", "a")) == (30, 10)
    with pytest.raises(SchemaError):
        r.positions(("missing",))


def test_index_on_groups_rows():
    r = Relation("R", ("a", "b"), [(1, 9), (1, 8), (2, 9)])
    index = r.index_on(("a",))
    assert index[(1,)] == [0, 1]
    assert index[(2,)] == [2]
    assert set(r.distinct_keys(("b",))) == {(9,), (8,)}


def test_index_invalidated_on_mutation():
    r = Relation("R", ("a",), [(1,)])
    first = r.index_on(("a",))
    assert first[(1,)] == [0]
    r.add((1,))
    assert r.index_on(("a",))[(1,)] == [0, 1]


def test_index_is_cached_between_reads():
    r = Relation("R", ("a",), [(1,)])
    assert r.index_on(("a",)) is r.index_on(("a",))


def test_project_keeps_weights_and_duplicates():
    r = Relation("R", ("a", "b"), [(1, 2), (1, 3)], [0.1, 0.2])
    p = r.project(("a",))
    assert p.rows == [(1,), (1,)]
    assert p.weights == [0.1, 0.2]


def test_select_filters_rows():
    r = Relation("R", ("a",), [(1,), (2,), (3,)], [0.1, 0.2, 0.3])
    s = r.select(lambda row: row[0] >= 2)
    assert s.rows == [(2,), (3,)]
    assert s.weights == [0.2, 0.3]


def test_rename_changes_schema_only():
    r = Relation("R", ("a", "b"), [(1, 2)], [0.5])
    renamed = r.rename({"a": "x"})
    assert renamed.schema == ("x", "b")
    assert renamed.rows == [(1, 2)]
    assert renamed.weights == [0.5]


def test_copy_is_independent():
    r = Relation("R", ("a",), [(1,)])
    c = r.copy("C")
    c.add((2,))
    assert len(r) == 1
    assert len(c) == 2
    assert c.name == "C"


def test_sorted_by_weight_ascending_with_ties_on_rows():
    r = Relation("R", ("a",), [(3,), (1,), (2,)], [0.5, 0.5, 0.1])
    s = r.sorted_by_weight()
    assert s.rows == [(2,), (1,), (3,)]
    assert s.weights == [0.1, 0.5, 0.5]


def test_as_set_drops_duplicates():
    r = Relation("R", ("a",), [(1,), (1,), (2,)])
    assert r.as_set() == {(1,), (2,)}

# ----------------------------------------------------------------------
# Regressions: mixed-type tie order, version propagation, positions memo
# ----------------------------------------------------------------------
def test_sorted_by_weight_mixed_type_column_does_not_crash():
    """Regression: tie-breaking by raw row raised ``TypeError`` when an
    equal-weight tie group mixed ``str`` and ``int`` values in one
    column (the hub-graph datasets' string hub labels vs int spokes).
    Ties now use the type-tagged ``solution_tie_key`` order: within one
    weight, ints sort before strs (by type name), then by value."""
    r = Relation(
        "Hub",
        ("node", "spoke"),
        [("hub", 1), (2, 1), ("apex", 1), (1, 1)],
        [0.5, 0.5, 0.5, 0.5],
    )
    s = r.sorted_by_weight()
    assert s.rows == [(1, 1), (2, 1), ("apex", 1), ("hub", 1)]
    assert s.weights == [0.5] * 4


def test_sorted_by_weight_mixed_types_still_orders_by_weight_first():
    r = Relation("R", ("a",), [("z",), (1,)], [0.9, 0.1])
    assert r.sorted_by_weight().rows == [(1,), ("z",)]


def test_version_survives_all_three_copying_ops():
    """Regression: ``rename`` and ``sorted_by_weight`` reset ``version``
    to 0 while ``copy`` preserved it, so a derived relation could alias
    a static (version-0) fingerprint in the plan cache."""
    r = Relation("R", ("a", "b"), [(1, 2), (3, 4)], [0.2, 0.1])
    r.version = 7
    assert r.copy().version == 7
    assert r.rename({"a": "x"}).version == 7
    assert r.sorted_by_weight().version == 7
    # Chaining keeps the generation too.
    assert r.rename({"b": "y"}).sorted_by_weight().copy().version == 7


def test_every_derived_relation_producer_keeps_version():
    """Regression: ``select``, ``project`` and ``semijoin`` (both
    branches, incl. the empty-right one) built their result with
    ``Relation(...)`` + ``add`` and so reset ``version`` to 0; only
    ``filtered_database`` patched it back by hand.  Every producer of a
    derived relation now goes through :meth:`Relation.derive`."""
    from repro.data.database import Database
    from repro.dynamic import Delete, VersionedDatabase
    from repro.joins.base import atom_relation, reorder_to_query_schema
    from repro.joins.semijoin import full_reducer, semijoin
    from repro.query.cq import Atom, ConjunctiveQuery

    r = Relation("R", ("a", "b"), [(1, 2), (3, 3)], [0.2, 0.1])
    s = Relation("S", ("b", "c"), [(2, 5)], [0.3])
    r.version, s.version = 7, 4
    assert r.select(lambda row: row[0] == 1).version == 7
    assert r.project(("b",)).version == 7
    assert r.restrict([1]).version == 7
    assert r.derive([], []).version == 7
    assert semijoin(r, s).version == 7
    unrelated = Relation("T", ("z",), [(0,)])
    assert semijoin(r, unrelated).version == 7
    assert semijoin(r, Relation("T", ("z",))).version == 7  # empty right
    db = Database([r, s])
    q = ConjunctiveQuery([Atom("R", ("x", "y")), Atom("S", ("y", "z"))])
    assert atom_relation(db, q, 0).version == 7
    loop = ConjunctiveQuery([Atom("R", ("x", "x"))])
    assert atom_relation(db, loop, 0).rows == [(3,)]
    assert atom_relation(db, loop, 0).version == 7
    assert {i: rel.version for i, rel in full_reducer(db, q).items()} == {0: 7, 1: 4}
    flipped = ConjunctiveQuery([Atom("R", ("b", "a"))])
    assert reorder_to_query_schema(r, flipped).schema == ("b", "a")
    assert reorder_to_query_schema(r, flipped).version == 7
    # A delete publishes the filtered relation under the *next* version.
    versioned = VersionedDatabase(db)
    before = versioned.version
    versioned.apply(Delete("R", lambda row: row[0] == 1))
    assert versioned.snapshot()["R"].version == before + 1
    assert versioned.snapshot()["R"].rows == [(3, 3)]


def test_filtered_database_copy_inherits_base_version():
    import repro.sql
    from repro.data.database import Database
    from repro.engine.executor import filtered_database
    from repro.sql.analyzer import analyze

    r = Relation("R", ("a", "b"), [(1, 2), (3, 4)], [0.2, 0.1])
    r.version = 9
    db = Database([r])
    compiled = analyze(db, "SELECT * FROM R WHERE R.a = 1 AND R.b = 2")
    working, query = filtered_database(db, compiled)
    filtered = working[query.atoms[0].relation]
    assert filtered.name == "R__sigma0"
    assert filtered.rows == [(1, 2)] and filtered.version == 9


def test_derive_adopts_lists_and_atom_views_share_storage():
    """``derive`` is the trusted constructor: no copy, no validation, one
    fresh cache; an atom without repeated variables is an O(1) view."""
    from repro.data.database import Database
    from repro.joins.base import atom_relation
    from repro.query.cq import Atom, ConjunctiveQuery

    r = Relation("R", ("a", "b"), [(1, 2), (3, 4)], [0.2, 0.1])
    r.index_on(("a",))
    rows, weights = [(9, 9)], [0.5]
    d = r.derive(rows, weights, "D", ("x", "y"))
    assert d.rows is rows and d.weights is weights
    assert (d.name, d.schema) == ("D", ("x", "y"))
    assert d.index_on(("x",)) == {(9,): [0]}  # its own cache, not r's
    view = atom_relation(
        Database([r]), ConjunctiveQuery([Atom("R", ("u", "v"))]), 0
    )
    assert view.rows is r.rows and view.weights is r.weights
    assert view.schema == ("u", "v") and view.name == "R#0"
    with pytest.raises(SchemaError):
        r.derive([], [], schema=("a", "a"))


def test_extend_and_constructor_load_in_one_validated_sweep():
    r = Relation("R", ("a", "b"), [[1, 2], (3, 4)])
    assert r.rows == [(1, 2), (3, 4)] and r.weights == [0.0, 0.0]
    r.index_on(("a",))
    r.extend(iter([(5, 6)]), iter([1]))
    assert r.weights == [0.0, 0.0, 1.0] and (5,) in r.index_on(("a",))
    # All-or-nothing: a bad row anywhere leaves the relation untouched.
    with pytest.raises(SchemaError):
        r.extend([(7, 8), (9,)])
    with pytest.raises(SchemaError):
        r.extend([(7, 8)], [float("nan")])
    with pytest.raises(SchemaError):
        r.extend([(7, 8)], [0.1, 0.2])
    assert len(r) == 3
    with pytest.raises(SchemaError):
        Relation("R", ("a",), [(1,), (2,)], [0.1])


def test_positions_are_memoized_per_attrs_tuple():
    r = Relation("R", ("a", "b", "c"))
    first = r.positions(("c", "a"))
    assert first == (2, 0)
    assert r.positions(("c", "a")) is first  # cached tuple, not re-resolved
    assert r.positions(["c", "a"]) is first  # list spelling shares the entry
    with pytest.raises(SchemaError):
        r.positions(("c", "missing"))


def test_bulk_load_matches_per_row_add():
    a = Relation("R", ("x", "y"))
    b = Relation("R", ("x", "y"))
    rows = [(1, 2), (3, 4), (5, 6)]
    weights = [0.3, 0.1, 0.2]
    for row, w in zip(rows, weights):
        a.add(row, w)
    b.bulk_load(rows, weights)
    assert a.rows == b.rows and a.weights == b.weights
    # Same validation as add(): arity and finiteness.
    with pytest.raises(SchemaError):
        b.bulk_load([(1,)], [0.0])
    with pytest.raises(SchemaError):
        b.bulk_load([(1, 2)], [float("nan")])
    with pytest.raises(SchemaError):
        b.bulk_load([(1, 2)], [0.1, 0.2])
    # Invalidates cached indexes exactly like add().
    index = b.index_on(("x",))
    assert index[(1,)] == [0]
    b.bulk_load([(1, 9)], [0.0])
    assert b.index_on(("x",))[(1,)] == [0, 3]
