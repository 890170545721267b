"""Self-test of the benchmark: result format and the layer predictions.

Run from the repository root (about two minutes)::

    python3 -m pytest -q perfbench/test_perfbench.py

The traced runs use a short setting (one untraced and one traced pass
each) and the checks compare orderings, not values, so they hold on
slower or faster hosts. Each prediction keeps a workload stressing the
layer it was chosen for; see README.md.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def bench(workload: str, trace: int, *, cwd: Path = ROOT, seconds: float = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd,
        timeout=300,
    )


@pytest.fixture(scope="module")
def traced():
    out = {}
    for w in SPEC["workloads"]:
        proc = bench(w["name"], 1)
        assert proc.returncode == 0, proc.stderr
        out[w["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def test_untraced_run_reports_every_end_to_end_metric():
    proc = bench("paper-placed", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(value(result, n) > 0 for n in names)


def test_traced_runs_report_every_layer_metric(traced):
    names = [m["name"] for m in SPEC["per_layer"]]
    for result in traced.values():
        assert list(result["metrics"]) == names


def test_no_item_fails(traced):
    for name, result in traced.items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] > 0


def test_scheduler_share_is_high_only_on_regen(traced):
    share = "sim.scheduler.place_share"
    assert value(traced["regen-quick"], share) > 3 * value(traced["paper-placed"], share)


def test_treematch_dominates_map_large(traced):
    big = traced["map-large"]
    assert value(big, "treematch.map_s") > 0.9 * value(big, "trace.wall_s")


def test_treematch_is_small_on_paper_placed(traced):
    # Not met at the time of writing: the adaptive run's two remaps each
    # map a warm and a cold candidate, and TreeMatch comes to ~10% of the
    # traced pass (the five app cells alone spend ~2% in it).
    apps = traced["paper-placed"]
    assert value(apps, "treematch.map_s") < 0.05 * value(apps, "trace.wall_s")


def test_cache_and_executor_only_on_regen(traced):
    assert value(traced["regen-quick"], "parallel.cache.hits") > 0
    assert value(traced["regen-quick"], "parallel.cells") > 0
    for name in ("paper-placed", "map-large"):
        assert value(traced[name], "parallel.run_jobs_s") == 0
    assert value(traced["map-large"], "sim.events") == 0


def test_fails_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("paper-placed", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
