"""Checks of the benchmark itself, at toy sizes.

Run explicitly (tier-1's ``testpaths = ["tests"]`` does not collect it,
so the suite's run time is unchanged)::

    python -m pytest benchmarks/e2e/test_e2e_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = str(HERE / "run.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True, cwd=cwd
    )


def test_selftest_names_limits_and_determinism():
    """Every declared name is emitted with its declared unit, counts are
    within the contract's limits, ``sim_`` metrics and digests repeat
    for one seed and change with another."""
    done = _run("--selftest")
    assert done.returncode == 0, done.stdout + done.stderr


def test_contract_run_ends_with_the_result_object():
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        done = _run("--workload", "serve_poisson", "--seed", "5",
                    "--seconds", "1", "--trace", str(trace), "--tiny")
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert result["failed"] == 0
        assert {m["name"]: m["unit"] for m in declared} == {
            name: value["unit"] for name, value in result["metrics"].items()
        }


def test_full_run_then_agree(tmp_path):
    a, b = tmp_path / "A.json", tmp_path / "B.json"
    for out in (a, b):
        done = _run("--seed", "7", "--out", str(out), "--passes", "2",
                    "--seconds", "1", "--tiny")
        assert done.returncode == 0, done.stdout + done.stderr
    doc = json.loads(a.read_text())
    assert {"nproc", "python", "numpy", "crypto_backend", "blas_threads",
            "seed", "passes", "git_commit"} <= set(doc["host"])
    assert set(doc["workloads"]) == {w["name"] for w in SPEC["workloads"]}

    same = _run("--agree", str(a), str(a))
    assert same.returncode == 0, same.stdout
    assert "worse" not in same.stdout.replace("worse by", "")

    # Same seed, same code: simulated metrics, losses and digests are
    # identical.  (Wall metrics at toy sizes are too noisy to assert on.)
    both = _run("--agree", str(a), str(b))
    sim_rows = [r for r in both.stdout.splitlines() if " sim_s_per_op " in r]
    assert len(sim_rows) == len(SPEC["workloads"])
    assert all(row.endswith(" ok") for row in sim_rows), both.stdout
    assert "digest" not in both.stdout and "final_loss" not in both.stdout

    # A slower B is reported and fails the comparison.
    slow = json.loads(b.read_text())
    for entry in slow["workloads"].values():
        metric = entry["metrics"]["sim_s_per_op"]
        metric["values"] = [v * 1.5 for v in metric["values"]]
        metric["median"] *= 1.5
    b.write_text(json.dumps(slow))
    worse = _run("--agree", str(a), str(b))
    assert worse.returncode == 1 and " worse" in worse.stdout

    # Different crypto backend or BLAS pin: not comparable.
    slow["host"]["crypto_backend"] = "something-else"
    b.write_text(json.dumps(slow))
    assert _run("--agree", str(a), str(b)).returncode == 2


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fed_rounds",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
