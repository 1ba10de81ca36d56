"""Smoke tests: every example script runs to completion and prints the
sections it promises."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.slow
def test_quickstart_runs():
    out = _run("quickstart.py")
    assert "lightest 4-cycles" in out
    assert "simple" in out
    assert "total_work" in out


@pytest.mark.slow
def test_optimal_joins_tour_runs():
    out = _run("optimal_joins_tour.py")
    assert "Generic-Join" in out
    assert "Yannakakis intermediates:           0" in out


@pytest.mark.slow
def test_middleware_topk_runs():
    out = _run("middleware_topk.py")
    assert "Threshold Algorithm" in out
    for regime in ("correlated", "independent", "inverse"):
        assert regime in out


@pytest.mark.slow
def test_anyk_showcase_runs():
    out = _run("anyk_showcase.py")
    assert "identical output" in out
    assert "MISMATCH" not in out
    assert "lex-best" in out


@pytest.mark.slow
def test_parallel_topk_runs():
    out = _run("parallel_topk.py")
    assert "2-shard merged prefix == serial prefix: True" in out
    assert "parallel: 2 workers" in out
    assert "byte-identical" in out


@pytest.mark.slow
def test_serve_client_runs():
    out = _run("serve_client.py")
    assert "identical to one uninterrupted run: True" in out
    assert "first submission  plan_cached=False" in out
    assert "second submission plan_cached=True" in out
    assert "cursor_limit" in out
    assert "server stopped cleanly" in out


@pytest.mark.slow
def test_factorized_aggregates_runs():
    out = _run("factorized_aggregates.py")
    assert "any-k agrees" in out
    assert "cheapest route cost" in out


@pytest.mark.slow
def test_sql_topk_runs():
    out = _run("sql_topk.py")
    assert "engine:   part:lazy" in out
    assert "SQL result == direct rank_enumerate: True" in out
    assert "engine:   batch" in out


@pytest.mark.slow
def test_kshortest_paths_runs():
    out = _run("kshortest_paths.py")
    assert "Hoffman-Pavley" in out
    assert "k-shortest-paths == any-k, verified" in out
