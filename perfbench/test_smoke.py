"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once, traced, from a directory outside the checkout
(so Ray workers must find the package through the benchmark itself).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def bench(cwd, *args):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return p


def parse(p):
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return report, result


def expected_reported(name):
    names = {"job_s", "peak_rss_mb", "setup_s", "error_rate"}
    if name == "er_checkpoint":
        names |= {"pages_per_s", "cluster_f1", "resume_s", "pair_f1"}
    return names


@pytest.mark.parametrize("name", sorted(workloads.SIZES))
def test_traced_run(name, tmp_path):
    report, result = parse(
        bench(tmp_path, "--workload", name, "--seed", "5", "--seconds", "4",
              "--trace", "1", "--tiny")
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert result["metrics"] == {
        k: {"value": result["metrics"][k]["value"], "unit": u}
        for k, u in run.PER_LAYER.items()
    }
    reported = report["metrics"]
    assert set(reported) == expected_reported(name)
    for k, m in reported.items():
        assert m["unit"] == run.REPORTED[k]
    assert reported["error_rate"]["value"] == 0.0
    if name == "dedup_docs":  # tiny enough for the DuckDB oracle
        assert report["quality"]["oracle_checked"] == 1.0

    with open(os.path.join(ROOT, report["span_file"])) as f:
        spans = json.load(f)
    assert spans
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["end"] >= s["start"]
        assert s["self"] >= -1e-9
        if s["parent"] is not None:
            p = by_id[s["parent"]]
            assert p["trace"] == s["trace"]
            assert p["start"] <= s["start"] and s["end"] <= p["end"]
    roots = [s for s in spans if s["parent"] is None]
    assert {s["name"] for s in roots} == {"job"}
    assert len({s["trace"] for s in roots}) == len(roots)
    if name == "er_checkpoint":  # every wrapped layer of the program ran
        assert {s["name"] for s in spans} == {
            "job",
            "sources.io",
            "stages.mention_prep",
            "sources.checkpoint",
            "stages.blocking.pair_score",
            "stages.blocking.census",
            "stages.features.edges",
            "stages.cluster",
            "pipelines.er.eval",
        }
        census = next(s for s in spans if s["name"] == "stages.blocking.census")
        assert by_id[census["parent"]]["name"] == "stages.blocking.pair_score"
    driver_rss = result["metrics"]["er.driver_peak_rss_mb"]["value"]
    assert (driver_rss > 0) is (name == "er_checkpoint")


def test_untraced_metrics(tmp_path):
    _, result = parse(
        bench(tmp_path, "--workload", "dedup_docs", "--seed", "6", "--seconds", "2",
              "--trace", "0", "--tiny")
    )
    assert result["metrics"] == {
        k: {"value": result["metrics"][k]["value"], "unit": u}
        for k, u in run.END_TO_END.items()
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


# (failure, workload, window, job timeout): the window outlasts the
# failed job plus a session restart (set-up with the DuckDB oracle and a
# warm-up, ~20 s on tiny dedup inputs) plus one healthy job; the timeout
# outlasts a healthy job. A dropped output row is always caught on ER
# (rows == pages).
@pytest.mark.parametrize(
    "inject,workload,seconds,timeout",
    [
        ("raise", "dedup_docs", "35", "30"),
        ("hang", "dedup_docs", "50", "12"),
        ("check", "er_checkpoint", "15", "60"),
    ],
)
def test_injected_failure_counts(inject, workload, seconds, timeout, tmp_path):
    report, result = parse(
        bench(tmp_path, "--workload", workload, "--seed", "7", "--seconds", seconds,
              "--trace", "0", "--tiny", "--inject", inject, "--job-timeout", timeout)
    )
    assert result["failed"] == 1
    assert result["attempted"] > result["failed"]  # the loop went on
    assert report["metrics"]["error_rate"]["value"] == pytest.approx(
        1 / result["attempted"]
    )
    assert result["correct"] is (inject != "check")


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dedup_docs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
