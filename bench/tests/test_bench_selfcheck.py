"""Self-check of the benchmark (smoke sizes; part of tier-1).

What a later PR must not be able to break silently: the names a run emits
are the declared ones, the same seed asks the same questions and counts
the same operations, a tail percentile without a tail is refused, the
normalisation arithmetic, an oracle that notices a wrong row, and a
refused request that shows up in ``failed``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import bench
from bench import calibrate, compare, engine, metrics, oracle, serve, stats, workloads
from bench.measure import RAW_TWIN, Window

ROOT = Path(bench.__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


@lru_cache(maxsize=None)
def smoke_run(name: str, trace: bool, seed: int = 1):
    if workloads.BY_NAME[name].kind == "engine":
        return engine.run(name, workloads.SMOKE, seed, 0.3, trace)
    return serve.run(name, workloads.SMOKE, seed, 0.8, trace)


def test_manifest_is_the_declarations_and_within_the_contract():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert manifest == metrics.manifest(
        manifest["command"], ["bench"], manifest["run_seconds"]
    )
    assert manifest["command"] == ["python3", "-m", "bench"]
    assert len(manifest["workloads"]) == 5
    assert len(manifest["end_to_end"]) == 7
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[key]
    ]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(
        UNIT.match(entry["unit"])
        for entry in manifest["end_to_end"] + manifest["per_layer"]
    )
    assert all(
        len(entry["why"]) <= 200 and "\n" not in entry["why"]
        for entry in manifest["workloads"]
    )
    assert all(0 < entry["bound"] <= 0.25 for entry in manifest["end_to_end"])
    setup = manifest["end_to_end"][0]
    assert (setup["name"], setup["unit"], setup["better"]) == ("setup_s", "s", "lower")
    assert set(RAW_TWIN) == set(metrics.END_TO_END_NAMES)


def test_calibration_kernel_is_the_pinned_one():
    bench.check_calibrate_pin()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [w.name for w in workloads.WORKLOADS])
def test_emitted_names_are_the_declared_ones(name, trace):
    result = smoke_run(name, trace)
    declared = metrics.PER_LAYER_NAMES if trace else metrics.END_TO_END_NAMES
    assert tuple(result.metrics) == declared
    assert result.correct, result.problems
    assert result.failed == 0 and result.attempted >= 1
    if not trace:
        assert all(value > 0 for value in result.metrics.values())


def test_same_seed_same_trace_and_same_operation_counts():
    first = smoke_run("path_part", True)
    again = engine.run("path_part", workloads.SMOKE, 1, 0.3, True)
    other = smoke_run("path_part", False, seed=2)
    assert first.info["trace_sha256"] == again.info["trace_sha256"]
    assert first.info["trace_sha256"] != other.info["trace_sha256"]
    counted = [n for n in metrics.PER_LAYER_NAMES if n.startswith("util.counters.")]
    assert {n: first.metrics[n] for n in counted} == {
        n: again.metrics[n] for n in counted
    }
    assert first.metrics["util.counters.total_work"] > 0
    churn = workloads.wire_trace("serve_churn", workloads.SMOKE, 5)
    assert churn == workloads.wire_trace("serve_churn", workloads.SMOKE, 5)
    assert churn != workloads.wire_trace("serve_churn", workloads.SMOKE, 6)
    assert [step["kind"] for step in churn[:7]] == ["mutate"] + ["session"] * 5 + ["mutate"]


def test_tail_percentile_without_a_tail_is_an_error():
    assert stats.percentile([5, 1, 4, 2, 3], 50) == 3
    assert stats.percentile(range(1, 101), 90) == 90
    assert stats.strict_percentile(range(1, 101), 90) == 90
    with pytest.raises(stats.ShortSampleError):
        stats.strict_percentile(range(1, 100), 90)
    with pytest.raises(stats.ShortSampleError):
        stats.percentile([], 50)


def test_normalisation_arithmetic():
    ref = calibrate.CAL_REF_MS
    window = Window()
    factor = window.calibrator.factor
    # 60 calm slices, then 60 during which the kernel took twice as long.
    window.calibrator.bursts_ms = [ref] * 61 + [2 * ref] * 60
    assert factor(10) == pytest.approx(1.0)
    assert factor(100) == pytest.approx(0.5)
    assert factor(60) == pytest.approx(1 / 1.5)  # one burst of each kind
    for index in range(120):
        wall = 1.0 if index < 60 else 2.0
        window.sessions.append((10.0 * wall, 30.0 * wall, 100, index))
        window.slices.append((0.030 * wall, 101))
    normalised = window.end_to_end(strict_tail=True)
    assert normalised["ttf_ref_ms_p50"] == pytest.approx(10.0)
    assert normalised["ttk_ref_ms_p90"] == pytest.approx(30.0)
    assert normalised["delay_ref_us_p50"] == pytest.approx(200.0)
    assert normalised["results_per_ref_s"] == pytest.approx(101 / 0.030)
    raw = window.raw(strict_tail=True)
    assert raw["raw.ttf_ms_p50"] == pytest.approx(10.0)
    assert raw["raw.ttk_ms_p90"] == pytest.approx(60.0)
    assert raw["raw.results_per_s"] == pytest.approx((101 / 0.030 + 101 / 0.060) / 2)


def test_oracle_accepts_the_stream_and_trips_on_a_corrupted_row():
    bench.ensure_repro_importable()
    import repro.sql

    sizes = workloads.SMOKE
    db = workloads.engine_database("path_part", sizes, 3)
    sql = workloads.engine_sql("path_part", sizes)
    measured = repro.sql.query(db, sql, engine="part:lazy").fetchall()
    pruned = oracle.batch_reference(db, sql, measured, prune_path=True)
    full = oracle.batch_reference(db, sql, measured, prune_path=False)
    assert len(pruned) < len(full)
    assert pruned[: sizes.path_k] == full[: sizes.path_k]
    assert oracle.check_topk(measured, pruned, sizes.path_k) == []
    row, weight = measured[17]
    corrupted = list(measured)
    corrupted[17] = (row[:-1] + (row[-1] + 1,), weight)
    assert oracle.check_topk(corrupted, pruned, sizes.path_k)
    assert oracle.check_topk(measured[:-1], pruned, sizes.path_k)
    dropped = measured[:17] + measured[18:] + [full[sizes.path_k]]
    assert oracle.check_topk(dropped, pruned, sizes.path_k)
    assert oracle.check_session(measured, [[list(r), w] for r, w in measured], sql) == []
    assert oracle.check_session(measured, [[list(r), w] for r, w in corrupted], sql)


def test_a_refused_request_counts_as_failed():
    result = serve.run(
        "serve_churn", workloads.SMOKE, 1, 0.5, False, server_args=("--readonly",)
    )
    sessions = result.info["sessions"]
    assert result.failed == result.attempted - sessions > 0
    assert not result.correct


def test_compare_verdicts(tmp_path):
    def record(workload, scale, noise):
        values = {m.name: 100.0 * scale + noise for m in metrics.END_TO_END}
        values["results_per_ref_s"] = 100.0 / scale + noise
        return {"workload": workload, "trace": 0, "metrics": values, "raw": {}}

    def write(path, scale, noises):
        lines = [
            json.dumps(record(w.name, scale, noise))
            for noise in noises
            for w in workloads.WORKLOADS
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    steady = write(tmp_path / "a", 1.0, [0.0, 0.5, 1.0, 1.5])
    slower = write(tmp_path / "b", 1.3, [0.0, 0.5, 1.0, 1.5])
    noisy = write(tmp_path / "c", 1.0, [0.0, 30.0, 60.0, 90.0])
    assert compare.compare(steady, steady, raw=False)[1]
    assert compare.compare(steady, None, raw=False)[1]
    table, all_ok = compare.compare(steady, slower, raw=False)
    assert not all_ok and "regressed" in table and "unresolved" not in table
    table, all_ok = compare.compare(steady, noisy, raw=False)
    assert not all_ok and "unresolved" in table


def test_command_line_ends_with_the_result_line():
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "cycle_topk", "--smoke"]
        + ["--seed", "4", "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert tuple(result["metrics"]) == metrics.END_TO_END_NAMES
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
    assert any(line.startswith("ttk_ref_ms_p90") for line in lines)
