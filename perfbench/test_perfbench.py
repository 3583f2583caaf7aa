"""Smoke tests for the benchmark: python3 -m pytest perfbench

Each workload runs in ``--smoke`` mode, untraced and traced, and must report
every metric that BENCHMARK.json names, with its unit.  Two runs with the
same seed must print the same behaviour fingerprint, and a directory without
the library sources must make the benchmark fail without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=3, trace=0, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0.3", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_and_fingerprint(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    prints = [line for line in lines if line.startswith("fingerprint: ")]
    assert len(prints) == 1
    return json.loads(lines[-1]), prints[0]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_reported(workload, trace, section):
    result, _ = result_and_fingerprint(run(workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_fingerprint(workload):
    result, first = result_and_fingerprint(run(workload, seed=5))
    again, second = result_and_fingerprint(run(workload, seed=5))
    assert first == second
    assert (result["attempted"], result["failed"]) == (again["attempted"], again["failed"])


def test_neutral_solve_counts_do_not_depend_on_the_seed():
    # the known misses are counted over a fixed grid of starts
    _, first = result_and_fingerprint(run("neutral_solve", seed=5))
    _, second = result_and_fingerprint(run("neutral_solve", seed=6))
    assert first == second


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
