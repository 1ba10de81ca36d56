"""The space-accounting layer: live/peak entry profiles, the per-family
bytes factors behind memory-aware admission, and EXPLAIN ANALYZE's
Q-error.

Three properties anchor the suite:

- *O(1) accounting* — the gauges never walk structures; engine runs
  under a profile report per-category entry counts that match the
  structures' own bookkeeping;
- *space in entries* — REC's peak entries dominate PART's by a gap that
  grows with k, live entries return to zero once a stream ends, and
  entries times the family factor track ``tracemalloc`` within 2x;
- *clean refusal* — a server over its ``--max-mem-mb`` watermark
  answers new queries with ``mem_pressure``, never ``internal``, and
  sheds idle cursors before refusing.
"""

from __future__ import annotations

import gc
import json
import time
import tracemalloc

import pytest

import repro.sql
from repro.anyk.api import rank_enumerate
from repro.data.generators import path_database
from repro.engine.executor import execute
from repro.engine.planner import plan_compiled
from repro.anyk.api import PausableStream
from repro.obs.analyze import q_error
from repro.obs.memory import (
    BYTES_PER_ENTRY,
    ENTRY_BOUNDS,
    MemoryProfile,
    SpaceGauge,
    admission_bytes,
    attach_tracker,
    tracker_of,
)
from repro.server import QueryService
from repro.util.counters import Counters

PATH_SQL = (
    "SELECT * FROM R1 JOIN R2 ON R1.A2 = R2.A2 JOIN R3 ON R2.A3 = R3.A3 "
    "ORDER BY weight LIMIT {k}"
)


@pytest.fixture(scope="module")
def path_db():
    return path_database(length=3, size=120, domain=18, seed=23)


def profiled_counters(profile: MemoryProfile) -> Counters:
    counters = Counters()
    attach_tracker(counters, profile)
    return counters


# ----------------------------------------------------------------------
# Histogram bounds and Q-error
# ----------------------------------------------------------------------
def test_bucket_bounds_shapes():
    assert ENTRY_BOUNDS[0] == 16.0
    assert list(ENTRY_BOUNDS) == sorted(ENTRY_BOUNDS)


def test_q_error_convention():
    assert q_error(10, 10) == 1.0
    assert q_error(100, 10) == 10.0
    assert q_error(10, 100) == 10.0
    # Both sides floored at one row: no division by zero, empty results
    # against tiny estimates compare as exact.
    assert q_error(0, 0) == 1.0
    assert q_error(0.25, 0) == 1.0
    assert q_error(0, 500) == 500.0


# ----------------------------------------------------------------------
# Gauges and profiles
# ----------------------------------------------------------------------
def test_space_gauge_tracks_live_and_peak():
    profile = MemoryProfile("part:lazy")
    gauge = profile.gauge("part.pq")
    assert isinstance(gauge, SpaceGauge)
    gauge.add(3)
    gauge.remove(2)
    gauge.add(1)
    assert gauge.entries == 2
    assert gauge.peak_entries == 3
    assert profile.live_entries == 2
    assert profile.peak_entries == 3
    # The same category returns the same gauge (shared per execution).
    assert profile.gauge("part.pq") is gauge
    # Bytes exist only for admission: live entries times the family factor.
    assert admission_bytes(profile) == 2 * BYTES_PER_ENTRY["part"]
    profile.release()
    assert (gauge.entries, profile.live_entries) == (0, 0)
    assert (gauge.peak_entries, profile.peak_entries) == (3, 3)
    assert admission_bytes(profile) == 0


def test_profile_peak_is_concurrent_across_gauges():
    profile = MemoryProfile()
    a = profile.gauge("a")
    b = profile.gauge("b")
    a.add(5)  # live 5
    b.add(5)  # live 10  <- the true high-water mark
    a.remove(5)
    b.remove(5)
    assert profile.live_entries == 0
    assert profile.peak_entries == 10  # not max(5, 5)


def test_profile_snapshot_roundtrip():
    profile = MemoryProfile("batch")
    profile.streams = 1
    profile.gauge("batch.rows").add(10)
    profile.gauge("batch.sort").add(10)
    # Snapshots survive JSON (the worker's done-frame contract).
    snapshot = json.loads(json.dumps(profile.snapshot()))
    assert snapshot["peak_entries"] == snapshot["live_entries"] == 20
    assert snapshot["engine"] == "batch"
    assert snapshot["streams"] == 1
    assert {
        category: data["peak_entries"]
        for category, data in snapshot["categories"].items()
    } == {"batch.rows": 10, "batch.sort": 10}


def test_tracker_rides_counters_invisibly():
    profile = MemoryProfile()
    counters = profiled_counters(profile)
    assert tracker_of(counters) is profile
    assert tracker_of(None) is None
    assert tracker_of(Counters()) is None
    # The dynamic attribute is invisible to the dataclass machinery.
    assert "space" not in counters.snapshot()
    merged = Counters()
    merged.merge(counters)
    assert tracker_of(merged) is None


# ----------------------------------------------------------------------
# Engine accounting (every instrumented structure reports)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "method, expected",
    [
        ("part:lazy", {"tdp.tuples", "tdp.buckets", "part.pq"}),
        ("rec", {"tdp.tuples", "tdp.buckets", "rec.pq", "rec.solutions"}),
        (
            "batch",
            {"join.build", "join.rows", "batch.rows", "batch.sort"},
        ),
    ],
)
def test_engine_categories_report(path_db, method, expected):
    from repro.query.cq import path_query

    profile = MemoryProfile(method)
    counters = profiled_counters(profile)
    results = list(
        rank_enumerate(
            path_db, path_query(3), method=method, k=60, counters=counters
        )
    )
    assert len(results) == 60
    assert expected <= set(profile.categories())
    assert profile.peak_entries > 0
    for category, gauge in profile.categories().items():
        assert gauge.peak_entries > 0, category


def test_accounting_is_silent_without_tracker(path_db):
    """No profile attached: engines run exactly as before (no gauges,
    no dynamic attributes) — the zero-cost default."""
    from repro.query.cq import path_query

    counters = Counters()
    results = list(
        rank_enumerate(
            path_db, path_query(3), method="part:lazy", k=30,
            counters=counters,
        )
    )
    assert len(results) == 30
    assert tracker_of(counters) is None


def test_part_vs_rec_peak_separation(path_db):
    """The paper's space separation, in its unit: REC memoizes every
    solution prefix per bucket, PART keeps only frontier candidates —
    REC's peak entries must dominate PART's on the same enumeration, by
    a gap that widens as k grows."""
    from repro.query.cq import path_query

    gaps = []
    for k in (100, 500, 2000):
        peaks = {}
        for method in ("part:lazy", "rec"):
            profile = MemoryProfile(method)
            counters = profiled_counters(profile)
            list(
                rank_enumerate(
                    path_db, path_query(3), method=method, k=k,
                    counters=counters,
                )
            )
            peaks[method] = profile.peak_entries
        assert peaks["rec"] > peaks["part:lazy"]
        gaps.append(peaks["rec"] - peaks["part:lazy"])
    assert gaps == sorted(set(gaps))


#: Path lengths per engine: batch materialises the full join, which on
#: length 5 is out of a test's reach.
TRACEMALLOC_LENGTHS = {"part:lazy": (2, 3, 5), "part:eager": (2, 3, 5),
                       "rec": (2, 3, 5), "batch": (2, 3)}


@pytest.mark.parametrize("method", ["part:lazy", "part:eager", "rec", "batch"])
def test_model_tracks_tracemalloc_within_2x(method):
    """Peak entries times the engine family's bytes factor is held to
    ``tracemalloc``'s retained delta at the k-th result — generator
    alive, every structure at full size, after a collect.  k stays below
    the answer count: an exhausted stream frees everything."""
    from repro.query.cq import path_query

    factor = BYTES_PER_ENTRY[method.split(":")[0]]
    for length in TRACEMALLOC_LENGTHS[method]:
        db = path_database(
            length=length, size=400, domain=20 if length == 2 else 40, seed=7
        )
        query, k = path_query(length), 4000
        # Warm one-time costs (kernel templates, interning) out of the window.
        assert len(list(rank_enumerate(db, query, method=method, k=k))) == k
        profile = MemoryProfile(method)
        counters = profiled_counters(profile)
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            stream = rank_enumerate(
                db, query, method=method, k=k, counters=counters
            )
            for _ in range(k):
                next(stream)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        ratio = profile.peak_entries * factor / retained
        assert 0.5 <= ratio <= 2.0, (length, profile.peak_entries, retained)


@pytest.mark.parametrize("method", ["part:lazy", "rec", "batch"])
@pytest.mark.parametrize("ending", ["drain", "close"])
def test_live_entries_return_to_zero_when_a_stream_ends(path_db, method, ending):
    """A drained or closed stream has freed its structures, so its
    profile reads 0 live entries (the peak stays for the aggregates)."""
    compiled = repro.sql.analyze(path_db, PATH_SQL.format(k=200))
    plan = plan_compiled(path_db, compiled, engine=method)
    memory = MemoryProfile()
    stream = PausableStream(execute(compiled, plan, memory=memory))
    rows, done = stream.take(10)
    assert len(rows) == 10 and not done
    assert memory.live_entries > 0
    if ending == "drain":
        while not done:
            _, done = stream.take(500)
    else:
        stream.close()
    assert memory.live_entries == 0
    assert all(g.entries == 0 for g in memory.categories().values())
    assert memory.peak_entries > 0


def test_execute_releases_memory_when_drained(path_db):
    sql = PATH_SQL.format(k=40)
    compiled = repro.sql.analyze(path_db, sql)
    plan = plan_compiled(path_db, compiled)
    memory = MemoryProfile()
    rows = list(execute(compiled, plan, memory=memory))
    assert len(rows) == 40
    assert memory.engine == plan.engine
    assert memory.streams == 1
    assert memory.touched and memory.peak_entries > 0
    assert memory.live_entries == 0  # drained: the structures are freed


def test_parallel_workers_ship_shard_snapshots():
    from repro.parallel import parallel_rank_enumerate
    from repro.query.cq import path_query

    db = path_database(length=2, size=60, domain=12, seed=5)
    memory = MemoryProfile()
    # k past the full join size: the merge drains every shard stream to
    # its done frame, so both snapshots land deterministically (a top-k
    # cutoff may race a worker's done frame when tracing is off).
    results = list(
        parallel_rank_enumerate(
            db, path_query(2), workers=2, k=100_000, memory=memory
        )
    )
    assert len(results) >= 50
    # Worker entries live in worker processes: attribution arrives via the
    # done frames, deliberately excluded from the parent's own totals.
    shards = {shard["shard"] for shard in memory.shards}
    assert shards == {0, 1}
    assert all(shard["peak_entries"] > 0 for shard in memory.shards)


# ----------------------------------------------------------------------
# Service integration: payloads, admission, eviction
# ----------------------------------------------------------------------
def drain(service, cursor_id, n=500):
    while True:
        page = service.fetch(cursor_id, n=n)
        if page["done"]:
            return page


def test_query_and_fetch_carry_mem_payload(path_db):
    service = QueryService(path_db)
    opened = service.query(PATH_SQL.format(k=200), fetch=10)
    assert opened["mem"]["peak_entries"] > 0
    assert opened["mem"]["live_entries"] > 0
    page = service.fetch(opened["cursor"], n=10)
    assert page["mem"]["peak_entries"] >= opened["mem"]["peak_entries"]
    described = service.cursors.stats()["cursors"][0]
    assert described["peak_entries"] == page["mem"]["peak_entries"]
    assert described["live_entries"] == page["mem"]["live_entries"]
    service.shutdown()


def test_memory_pressure_refuses_with_clean_code(path_db):
    """Fresh cursors are idle-protected, so a tiny watermark with a long
    grace refuses the second query — as mem_pressure, never internal."""
    service = QueryService(path_db, max_mem_mb=0.001, mem_evict_idle_s=60.0)
    sql = PATH_SQL.format(k=500)
    first = service.handle({"id": 1, "op": "query", "sql": sql, "fetch": 5})
    assert first["ok"]
    second = service.handle({"id": 2, "op": "query", "sql": sql, "fetch": 5})
    assert not second["ok"]
    assert second["error"]["code"] == "mem_pressure"
    assert "watermark" in second["error"]["message"]
    assert service.memory_stats()["pressure_rejections"] == 1
    # The refused request never opened a cursor.
    assert len(service.cursors) == 1
    # Degraded, not down: closing the held cursor restores admission.
    service.close(first["cursor"])
    third = service.handle({"id": 3, "op": "query", "sql": sql, "fetch": 5})
    assert third["ok"] and len(third["rows"]) == 5
    service.shutdown()


def test_memory_pressure_evicts_idle_cursors_first(path_db):
    service = QueryService(path_db, max_mem_mb=0.001, mem_evict_idle_s=0.01)
    sql = PATH_SQL.format(k=500)
    first = service.query(sql, fetch=5)
    time.sleep(0.05)  # age the cursor past the eviction grace
    second = service.query(sql, fetch=5)
    assert second["cursor"] is not None
    stats = service.memory_stats()
    assert stats["pressure_evictions"] >= 1
    assert stats["pressure_rejections"] == 0
    # The evicted session is gone; fetching it is unknown_cursor.
    response = service.handle(
        {"id": 3, "op": "fetch", "cursor": first["cursor"]}
    )
    assert not response["ok"]
    assert response["error"]["code"] == "unknown_cursor"
    service.shutdown()


def test_retired_cursor_feeds_peak_histogram_and_aggregate(path_db):
    service = QueryService(path_db)
    opened = service.query(PATH_SQL.format(k=120), fetch=0)
    drain(service, opened["cursor"])
    memory = service.memory_stats()
    assert opened["engine"] in memory["profiles"]
    assert memory["profiles"][opened["engine"]]["peak_entries"] > 0
    children = dict(
        (labels["engine"], child)
        for labels, child in service._mem_metric.children()
    )
    assert children[opened["engine"]].summary()["count"] == 1
    service.shutdown()


def test_memory_metric_families_export(path_db):
    service = QueryService(path_db, max_mem_mb=64.0)
    opened = service.query(PATH_SQL.format(k=60), fetch=0)
    drain(service, opened["cursor"])
    text = service.metrics()["metrics"]
    assert "# TYPE repro_mem_peak_entries histogram" in text
    assert 'repro_mem_peak_entries_count{engine="' in text
    assert "repro_mem_live_bytes 0" in text
    assert f"repro_mem_watermark_bytes {64 * 1024 * 1024}" in text
    assert "repro_mem_pressure_rejections_total 0" in text
    assert "repro_mem_pressure_evictions_total 0" in text
    service.shutdown()


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE + CLI surfaces
# ----------------------------------------------------------------------
def test_run_analyze_reports_memory_and_estimates(path_db):
    from repro.obs import run_analyze
    from repro.obs.analyze import render_analyze

    report = run_analyze(path_db, PATH_SQL.format(k=50))
    assert report["memory"]["peak_entries"] > 0
    assert report["memory"]["categories"]
    estimates = report["estimates"]
    assert estimates["actual_rows"] == 50
    assert estimates["truncated"] is True
    assert estimates["qerror"] >= 1.0
    rendered = render_analyze(report)
    assert "memory:" in rendered
    assert "estimate:" in rendered
    assert "LIMIT-truncated" in rendered


def test_explain_analyze_op_carries_memory(path_db):
    service = QueryService(path_db)
    response = service.handle(
        {
            "id": 1,
            "op": "explain",
            "sql": PATH_SQL.format(k=30),
            "analyze": True,
        }
    )
    assert response["ok"]
    assert response["analyze"]["memory"]["peak_entries"] > 0
    assert response["analyze"]["estimates"]["actual_rows"] == 30
    # The analyzed run folds into the same aggregates a cursor would.
    assert service.memory_stats()["profiles"]
    service.shutdown()


def test_stats_and_summary_render_memory(path_db):
    from repro.obs.cli import render_summary

    service = QueryService(path_db, max_mem_mb=32.0)
    opened = service.query(PATH_SQL.format(k=40), fetch=0)
    drain(service, opened["cursor"])
    stats = service.stats()
    assert stats["memory"]["watermark_bytes"] == 32 * 1024 * 1024
    text = render_summary(stats)
    assert "memory live=" in text
    assert "watermark=32 MB" in text
    assert "peak memory (accounted, per engine):" in text
    service.shutdown()


def test_obs_cli_watch_guards():
    from repro.obs.cli import main as obs_main

    # --watch applies to the summary and --metrics views only, and needs
    # a positive period; both are caught before any connection attempt.
    assert obs_main(["--watch", "2", "--traces"]) == 2
    assert obs_main(["--watch", "0", "--metrics"]) == 2
