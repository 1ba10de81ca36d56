"""The workload subsystem: samplers, arrivals, traces, drivers, validation.

The determinism contract gets the heaviest coverage — the acceptance
bar for ``repro-loadgen`` is that a (scenario, seed, duration, clients)
tuple fully determines the request trace — followed by short end-to-end
runs (in-process and wire) asserting zero errors and zero replay
mismatches under concurrent mutations, for 1 and 4 client lanes.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.server.cli import parse_generator_spec
from repro.server.service import QueryService
from repro.workload import (
    SCENARIOS,
    BurstyOnOff,
    ClosedLoop,
    HotspotSampler,
    InProcessConnection,
    IntParam,
    OpenLoopPoisson,
    SampledPage,
    UniformSampler,
    ZipfianSampler,
    build_trace,
    make_sampler,
    normalize_page,
    render_text,
    run_scenario,
    verify_samples,
)
from repro.workload.scenarios import PATH_DATASET


# ----------------------------------------------------------------------
# Samplers
# ----------------------------------------------------------------------
def _draws(sampler, seed, n=4000):
    rng = random.Random(seed)
    return [sampler.draw(rng) for _ in range(n)]


def test_samplers_deterministic_and_in_range():
    for sampler in (
        UniformSampler(7),
        ZipfianSampler(7, skew=1.2),
        HotspotSampler(7, hot_fraction=0.2, hot_weight=0.8),
    ):
        a, b = _draws(sampler, 11), _draws(sampler, 11)
        assert a == b
        assert all(0 <= i < 7 for i in a)
        assert _draws(sampler, 12) != a


def test_zipf_concentrates_on_low_ranks():
    counts = Counter(_draws(ZipfianSampler(20, skew=1.2), 3))
    assert counts[0] > counts[10] > 0 or counts[10] == 0
    assert counts[0] == max(counts.values())


def test_hotspot_hot_share():
    sampler = HotspotSampler(100, hot_fraction=0.1, hot_weight=0.9)
    draws = _draws(sampler, 5, n=6000)
    hot = sum(1 for i in draws if i < sampler.hot_count)
    assert 0.85 < hot / len(draws) < 0.95


def test_make_sampler_shapes_and_errors():
    assert isinstance(make_sampler("uniform", 3), UniformSampler)
    assert isinstance(make_sampler("zipf", 3), ZipfianSampler)
    assert isinstance(make_sampler("hotspot", 3), HotspotSampler)
    with pytest.raises(ValueError, match="unknown popularity shape"):
        make_sampler("bimodal", 3)
    with pytest.raises(ValueError):
        UniformSampler(0)
    with pytest.raises(ValueError):
        ZipfianSampler(3, skew=0.0)
    with pytest.raises(ValueError):
        HotspotSampler(3, hot_fraction=0.0)


def test_int_param_skew_and_range():
    rng = random.Random(2)
    cache: dict = {}
    spec = IntParam(10, 19, skew=1.3)
    draws = [spec.draw(rng, cache) for _ in range(2000)]
    assert all(10 <= v <= 19 for v in draws)
    assert Counter(draws)[10] == max(Counter(draws).values())
    assert len(cache) == 1  # the zipf sampler is built once per spec


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
def test_closed_loop_schedule_is_unpaced_and_sized():
    offsets = ClosedLoop(ops_per_client_s=10).lane_offsets(
        random.Random(1), 2.0, lanes=4
    )
    assert offsets == [None] * 20


def test_poisson_offsets_sorted_within_horizon_and_rate_scaled():
    rng = random.Random(9)
    offsets = OpenLoopPoisson(rate=200.0).lane_offsets(rng, 5.0, lanes=2)
    assert offsets == sorted(offsets)
    assert all(0 < t < 5.0 for t in offsets)
    # Each of 2 lanes gets ~rate/2 * duration = 500 events.
    assert 350 < len(offsets) < 650


def test_bursty_on_phase_denser_than_off_phase():
    rng = random.Random(4)
    process = BurstyOnOff(on_rate=200.0, off_rate=10.0, on_s=1.0, off_s=1.0)
    offsets = process.lane_offsets(rng, 20.0, lanes=1)
    on = sum(1 for t in offsets if (t % 2.0) < 1.0)
    off = len(offsets) - on
    assert on > 5 * max(off, 1)


def test_arrival_validation():
    with pytest.raises(ValueError):
        ClosedLoop(0)
    with pytest.raises(ValueError):
        OpenLoopPoisson(-1)
    with pytest.raises(ValueError):
        BurstyOnOff(on_rate=0)


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
def test_trace_is_a_pure_function_of_its_arguments():
    scenario = SCENARIOS["read-mostly"]
    a = build_trace(scenario, seed=7, duration=5.0, clients=4)
    b = build_trace(scenario, seed=7, duration=5.0, clients=4)
    assert a.query_lanes == b.query_lanes
    assert a.mutation_lane == b.mutation_lane
    assert a.sha256() == b.sha256()
    # Any knob changes the trace.
    assert build_trace(scenario, seed=8, duration=5.0, clients=4).sha256() != a.sha256()
    assert build_trace(scenario, seed=7, duration=4.0, clients=4).sha256() != a.sha256()
    assert build_trace(scenario, seed=7, duration=5.0, clients=2).sha256() != a.sha256()


def test_trace_shape_and_content():
    scenario = SCENARIOS["churn"]
    trace = build_trace(scenario, seed=3, duration=3.0, clients=3)
    assert len(trace.query_lanes) == 3
    assert trace.query_count > 0
    assert trace.mutation_count > 0
    template_names = {t.name for t in scenario.templates}
    for lane in trace.query_lanes:
        for request in lane:
            assert request.kind == "query"
            assert request.template in template_names
            assert "SELECT" in request.sql
            assert request.offset_s is None or 0 <= request.offset_s < 3.0
    offsets = [r.offset_s for r in trace.mutation_lane]
    assert offsets == sorted(offsets)
    assert all(
        r.sql.startswith(("INSERT", "DELETE")) for r in trace.mutation_lane
    )


def test_read_only_scenario_has_no_mutations():
    trace = build_trace(SCENARIOS["read-only"], seed=1, duration=2.0, clients=2)
    assert trace.mutation_lane == []


def test_trace_rejects_bad_arguments():
    scenario = SCENARIOS["read-only"]
    with pytest.raises(ValueError):
        build_trace(scenario, seed=1, duration=0.0, clients=1)
    with pytest.raises(ValueError):
        build_trace(scenario, seed=1, duration=1.0, clients=0)


# ----------------------------------------------------------------------
# End-to-end runs (short horizons keep the tier-1 suite fast)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("clients", [1, 4])
def test_inprocess_run_clean_and_validated(clients):
    result = run_scenario(
        "read-mostly",
        seed=7,
        duration=1.2,
        clients=clients,
        mode="inprocess",
        sample=0.5,
    )
    report = result.report
    assert report["errors"]["total"] == 0
    assert report["trace"]["queries"] == result.trace.query_count
    assert report["trace"]["mutations"] > 0  # concurrent mutations ran
    validation = report["validation"]
    assert validation["enabled"]
    assert validation["sampled_pages"] > 0
    assert validation["mismatches"] == 0
    assert validation["unverifiable"] == 0
    for op in ("query", "fetch"):
        summary = report["ops"][op]
        assert summary["count"] > 0
        assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
    assert report["ttfr_ms"]["count"] > 0
    assert report["throughput"]["ops_per_s"] > 0
    # The server-side per-op latency satellite: visible through stats.
    server = report["server"]
    assert server["op_latency_ms"]["query"]["count"] >= report["ops"]["query"]["count"]
    assert server["op_latency_ms"]["query"]["mean"] <= server["op_latency_ms"]["query"]["max"]
    text = render_text(report)
    assert "0 mismatches" in text or "validate:" in text
    assert "errors:   none" in text


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_wire_run_clean_and_validated(scenario):
    result = run_scenario(
        scenario,
        seed=5,
        duration=1.2,
        clients=2,
        mode="wire",
        sample=0.5,
    )
    report = result.report
    assert report["mode"] == "wire"
    assert report["errors"]["total"] == 0
    assert report["validation"]["mismatches"] == 0
    assert report["validation"]["checked"] > 0
    assert report["server"]["mutations"] == report["trace"]["mutations"]


@pytest.mark.parametrize(
    "spec, status",
    [("error_rate<=1%", "ok"), ("query_p99_ms<=0.000001", "page")],
)
def test_report_grades_the_run_against_its_slos(spec, status):
    """The negative control keeps the green verdict honest: the same
    seeded trace graded against an impossible objective must page."""
    result = run_scenario(
        "read-only", seed=11, duration=0.5, clients=2, mode="inprocess",
        sample=0.0, slos=[spec],
    )
    graded = result.report["slo"]
    assert graded["status"] == status
    assert [entry["status"] for entry in graded["slos"]] == [status]


def test_identical_seed_replays_identical_trace_across_runs():
    a = run_scenario(
        "read-only", seed=11, duration=1.0, clients=2, mode="inprocess",
        sample=0.0,
    )
    b = run_scenario(
        "read-only", seed=11, duration=1.0, clients=2, mode="inprocess",
        sample=0.0,
    )
    assert a.trace.query_lanes == b.trace.query_lanes
    assert a.report["trace"]["sha256"] == b.report["trace"]["sha256"]


def test_unknown_scenario_and_mode_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("nope", duration=0.5)
    with pytest.raises(ValueError, match="unknown mode"):
        run_scenario("read-only", duration=0.5, mode="quantum")


# ----------------------------------------------------------------------
# Error accounting and the validator's teeth
# ----------------------------------------------------------------------
def test_driver_counts_sql_errors_and_continues():
    from repro.dynamic import VersionedDatabase
    from repro.workload.driver import run_trace
    from repro.workload.scenarios import (
        QueryTemplate,
        Scenario,
    )

    scenario = Scenario(
        name="broken",
        description="one bad template",
        dataset=PATH_DATASET,
        templates=(
            QueryTemplate(name="bad", sql="SELECT * FROM NoSuchRelation"),
            QueryTemplate(
                name="good",
                sql="SELECT * FROM R1 ORDER BY weight LIMIT {k}",
                params=(("k", IntParam(3, 5)),),
            ),
        ),
        popularity="uniform",
        arrival=ClosedLoop(ops_per_client_s=20),
    )
    trace = build_trace(scenario, seed=2, duration=1.0, clients=1)
    service = QueryService(
        VersionedDatabase(parse_generator_spec(PATH_DATASET), copy=False)
    )
    result = run_trace(
        trace,
        lambda: InProcessConnection(service),
        mode="inprocess",
        sample=0.0,
    )
    errors = result.report["errors"]
    assert errors["by_code"].get("sql_error", 0) > 0
    # The good template still produced ranked rows despite the failures.
    assert result.report["rows"] > 0


def test_verify_samples_detects_corruption():
    def initial_db():
        return parse_generator_spec(PATH_DATASET)

    import repro.sql

    sql = "SELECT * FROM R1 ORDER BY weight LIMIT 5"
    honest = normalize_page(repro.sql.query(initial_db(), sql).fetchall())
    ok = verify_samples(
        initial_db,
        mutation_log=[],
        samples=[SampledPage(sql=sql, version=1, offset=0, rows=honest)],
    )
    assert ok.checked == 1 and not ok.mismatches

    corrupted = ((("tampered",), 0.0),) + tuple(honest[1:])
    bad = verify_samples(
        initial_db,
        mutation_log=[],
        samples=[SampledPage(sql=sql, version=1, offset=0, rows=corrupted)],
    )
    assert len(bad.mismatches) == 1
    assert "row 0" in bad.mismatches[0].detail

    # A sample pinned to a version the mutation log cannot reach is
    # reported as unverifiable, never silently passed.
    gap = verify_samples(
        initial_db,
        mutation_log=[],
        samples=[SampledPage(sql=sql, version=9, offset=0, rows=honest)],
    )
    assert gap.unverifiable == 1 and gap.checked == 0


def test_verify_samples_replays_mutations_to_the_pinned_version():
    def initial_db():
        return parse_generator_spec(PATH_DATASET)

    import repro.sql
    from repro.dynamic import VersionedDatabase

    shadow = VersionedDatabase(initial_db(), copy=False)
    mutations = [
        "INSERT INTO R1 (A1, A2, weight) VALUES (1, 2, -5.0)",
        "DELETE FROM R1 WHERE A1 = 1 AND A2 = 2",
    ]
    log = []
    sql = "SELECT * FROM R1 ORDER BY weight LIMIT 5"
    samples = [
        SampledPage(
            sql=sql,
            version=1,
            offset=0,
            rows=normalize_page(repro.sql.query(shadow.snapshot(), sql).fetchall()),
        )
    ]
    for statement in mutations:
        result = repro.sql.mutate(shadow, statement)
        log.append((result.version, statement))
        samples.append(
            SampledPage(
                sql=sql,
                version=result.version,
                offset=0,
                rows=normalize_page(
                    repro.sql.query(shadow.snapshot(), sql).fetchall()
                ),
            )
        )
    outcome = verify_samples(initial_db, log, samples)
    assert outcome.checked == 3
    assert not outcome.mismatches and outcome.unverifiable == 0


def test_normalize_page_shapes():
    page = normalize_page([[[1, 2], 0.5], [[3, 4], [0.25, 0.75]]])
    assert page == (((1, 2), 0.5), ((3, 4), (0.25, 0.75)))


# ----------------------------------------------------------------------
# The repro-loadgen CLI (in-process: fast, and counted by coverage)
# ----------------------------------------------------------------------
def test_cli_list_and_usage_errors(capsys):
    from repro.workload.cli import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out

    assert main([]) == 64  # --scenario required
    assert main(["--scenario", "read-only", "--mode", "inprocess",
                 "--connect", "x:1"]) == 64
    assert main(["--scenario", "read-only", "--connect", "not-a-port"]) == 64


def test_cli_trace_only_is_deterministic(capsys):
    import json as jsonlib

    from repro.workload.cli import main

    argv = ["--scenario", "read-mostly", "--seed", "7", "--duration", "5",
            "--trace-only"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = jsonlib.loads(first)
    assert payload["sha256"]
    assert payload["query_lanes"] and payload["mutation_lane"]


def test_cli_end_to_end_inprocess(tmp_path, capsys):
    import json as jsonlib

    from repro.workload.cli import main

    report_path = tmp_path / "report.json"
    code = main([
        "--scenario", "read-mostly", "--seed", "7", "--duration", "1",
        "--clients", "2", "--mode", "inprocess", "--sample", "0.5",
        "--json", str(report_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "SLO report" in out and "errors:   none" in out
    report = jsonlib.loads(report_path.read_text())
    assert report["errors"]["total"] == 0
    assert report["validation"]["mismatches"] == 0
    assert report["ops"]["query"]["p95_ms"] >= report["ops"]["query"]["p50_ms"]


# ----------------------------------------------------------------------
# The server-side satellites exercised directly
# ----------------------------------------------------------------------
def test_query_response_reports_pinned_snapshot_version():
    from repro.dynamic import VersionedDatabase

    service = QueryService(
        VersionedDatabase(parse_generator_spec(PATH_DATASET), copy=False)
    )
    connection = InProcessConnection(service)
    sql = "SELECT * FROM R1 ORDER BY weight LIMIT 3"
    assert connection.call("query", sql=sql, fetch=3)["version"] == 1
    connection.call(
        "mutate", sql="INSERT INTO R1 (A1, A2, weight) VALUES (0, 0, 0.5)"
    )
    assert connection.call("query", sql=sql, fetch=3)["version"] == 2


def test_stats_op_latency_counts_every_dispatched_op():
    from repro.dynamic import VersionedDatabase

    service = QueryService(
        VersionedDatabase(parse_generator_spec(PATH_DATASET), copy=False)
    )
    connection = InProcessConnection(service)
    connection.call(
        "query", sql="SELECT * FROM R1 ORDER BY weight LIMIT 2", fetch=2
    )
    with pytest.raises(Exception):
        connection.call("query", sql="SELECT broken")
    latency = connection.call("stats")["op_latency_ms"]
    # Two query dispatches — the failed one still cost server time.
    assert latency["query"]["count"] == 2
    assert latency["query"]["mean"] <= latency["query"]["max"]
    # A stats dispatch observes itself only after building its payload,
    # so the *second* stats call sees the first one's timing.
    assert connection.call("stats")["op_latency_ms"]["stats"]["count"] == 1
