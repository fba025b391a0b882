"""The benchmark's own test: one reduced round of every workload, untraced
and traced, with every check the full workload makes.  About a minute:

    python3 -m pytest bench/test_smoke.py -q
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT, runner=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_checks_pass(workload):
    out = result(workload, 0)
    assert out["correct"] is True, out
    assert out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    out = result(workload, 1)
    assert out["correct"] is True and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_traced_counts_repeat_exactly():
    def counts():
        return {k: v["value"] for k, v in result("qpsum", 1)["metrics"].items()
                if v["unit"] == "count"}
    first = counts()
    assert first["quasipoly.product_eval_calls"] > 0
    assert counts() == first


def test_refuses_to_run_without_the_program():
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("qpsum", 0, cwd=bare, runner=bare / "bench" / "run.py")
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
