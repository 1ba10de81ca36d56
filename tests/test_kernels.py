"""Compiled enumeration kernels: codegen, caching, slots, fallbacks."""

import pytest

from repro.anyk import kernels
from repro.anyk.api import rank_enumerate
from repro.anyk.kernels import (
    KernelSlot,
    install_kernels,
    kernel_signature,
    kernel_stats,
)
from repro.anyk.ranking import LEX, MAX, PRODUCT, RankingFunction, SUM
from repro.anyk.tdp import TDP
from repro.data.database import Database
from repro.data.generators import path_database
from repro.data.relation import Relation
from repro.query.cq import Atom, ConjunctiveQuery, path_query


@pytest.fixture(autouse=True)
def _fresh_kernel_state():
    kernels.clear_kernel_cache()
    kernels.reset_kernel_stats()
    yield
    kernels.clear_kernel_cache()
    kernels.reset_kernel_stats()


def small_instance(ranking=SUM):
    db = path_database(length=3, size=60, domain=8, seed=11)
    query = path_query(3)
    if ranking is PRODUCT:
        shifted = Database()
        for relation in db:
            copy = relation.copy()
            copy.weights = [w + 1.0 for w in copy.weights]
            shifted.add(copy)
        db = shifted
    return db, query


def test_kernel_streams_match_interpreted_for_every_ranking():
    for ranking in (SUM, MAX, PRODUCT, LEX):
        db, query = small_instance(ranking)
        for method in ("part:lazy", "part:eager", "part:take2", "part:all", "rec"):
            interpreted = list(
                rank_enumerate(
                    db, query, ranking=ranking, method=method, k=40,
                    compile_kernels=False,
                )
            )
            compiled = list(
                rank_enumerate(
                    db, query, ranking=ranking, method=method, k=40,
                    compile_kernels=True,
                )
            )
            assert compiled == interpreted, (ranking.name, method)


def test_install_shadows_instance_only():
    db, query = small_instance()
    tdp = TDP(db, query)
    other = TDP(db, query)
    install_kernels(tdp, engine="part:lazy")
    assert "solution_row" in vars(tdp)  # instance attribute shadow
    assert "solution_row" not in vars(other)  # class path untouched
    full = tdp.expand_best([tdp.root_bucket().best_tuple])
    assert tdp.solution_row(full) == other.solution_row(full)


def test_template_cache_hit_on_same_shape():
    db, query = small_instance()
    install_kernels(TDP(db, query), engine="part:lazy")
    install_kernels(TDP(db, query), engine="part:lazy")
    counts = kernel_stats()["part:lazy"]
    assert counts["compiles"] == 1
    assert counts["template_misses"] == 1
    assert counts["template_hits"] == 1
    assert counts["installs"] == 2


def test_slot_pins_template_across_installs():
    db, query = small_instance()
    slot = KernelSlot()
    install_kernels(TDP(db, query), slot=slot, engine="rec")
    assert slot.template is not None
    kernels.clear_kernel_cache()  # the slot must not need the global cache
    install_kernels(TDP(db, query), slot=slot, engine="rec")
    counts = kernel_stats()["rec"]
    assert counts["slot_hits"] == 1
    assert counts["installs"] == 2
    assert slot.hits == 1


def test_slot_with_stale_signature_recompiles():
    db, query = small_instance()
    slot = KernelSlot()
    install_kernels(TDP(db, query), slot=slot, engine="part:lazy")
    stale = slot.template
    db2 = path_database(length=4, size=40, domain=8, seed=3)
    install_kernels(TDP(db2, path_query(4)), slot=slot, engine="part:lazy")
    assert slot.template is not stale  # different shape replaced the pin
    assert kernel_stats()["part:lazy"]["slot_hits"] == 0


def test_unregistered_ranking_shares_the_row_template():
    """The compiled row does not depend on the ranking, so a custom
    RankingFunction has nothing to fall back from: it hits the template a
    registered ranking compiled, and streams as the interpreted path."""
    db, query = small_instance()
    custom = RankingFunction("counted", lambda a, b: a + b, 0.0, float)
    install_kernels(TDP(db, query, ranking=SUM), engine="part:lazy")
    tdp = TDP(db, query, ranking=custom)
    install_kernels(tdp, engine="part:lazy")
    assert "solution_row" in vars(tdp)
    counts = kernel_stats()["part:lazy"]
    assert (counts["compiles"], counts["template_hits"]) == (1, 1)
    for method in ("part:lazy", "rec"):
        assert list(
            rank_enumerate(db, query, ranking=custom, method=method, k=40)
        ) == list(
            rank_enumerate(
                db, query, ranking=custom, method=method, k=40,
                compile_kernels=False,
            )
        )


def test_signature_is_the_output_shape_alone():
    db, query = small_instance()
    sig_sum = kernel_signature(TDP(db, query, ranking=SUM))
    sig_max = kernel_signature(TDP(db, query, ranking=MAX))
    assert sig_sum == sig_max  # the row template is ranking-independent
    db2 = path_database(length=4, size=40, domain=8, seed=3)
    assert kernel_signature(TDP(db2, path_query(4))) != sig_sum


def test_kernel_handles_mixed_type_columns():
    """Heterogeneous columns flow through compiled row assembly and the
    deterministic tie order exactly as through the interpreted path."""
    rows = [("hub", 0), (1, 0), (2, 0), ("h2", 0)]
    db = Database(
        [
            Relation("R0", ("V0", "V1"), rows, [0.5] * 4),
            Relation("R1", ("V1", "V2"), [(0, "x"), (0, 3)], [0.5, 0.5]),
        ]
    )
    query = ConjunctiveQuery(
        [Atom("R0", ("V0", "V1")), Atom("R1", ("V1", "V2"))], name="Mixed"
    )
    interpreted = list(
        rank_enumerate(db, query, method="part:lazy", compile_kernels=False)
    )
    compiled = list(
        rank_enumerate(db, query, method="part:lazy", compile_kernels=True)
    )
    assert compiled == interpreted
    assert len(compiled) == 8


def test_generated_source_is_shape_specialized():
    db, query = small_instance()
    tdp = TDP(db, query)
    signature = kernel_signature(tdp)
    source = kernels.generate_source(signature)
    # Straight-line row with the join order and the writers baked in,
    # bound over the row lists alone (no T-DP, no ranking in sight).
    assert "def _bind(rows):" in source
    assert "r1 = rows1[choices[1]]" in source
    assert "return (r2[0], r1[0], r0[0], r0[1])" in source
    assert "tdp" not in source and "combine" not in source
    compile(source, "<test>", "exec")  # must be valid Python


def test_explain_analyze_reports_kernel_slot():
    from repro.obs.analyze import render_analyze, run_analyze

    db, _ = small_instance()
    report = run_analyze(
        db,
        "SELECT * FROM R1, R2, R3 WHERE R1.A2 = R2.A2 AND R2.A3 = R3.A3 "
        "ORDER BY weight LIMIT 10",
        engine="part:lazy",
    )
    assert report["kernel"]["slot"] == "warm"
    assert report["kernel"]["engine"] == "part:lazy"
    assert report["kernel"]["stats"]["installs"] >= 1
    assert "kernels:  slot=warm" in render_analyze(report)
