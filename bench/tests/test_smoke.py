"""Seconds-long self-test of the benchmark harness on the smallest inputs.

    python3 -m pytest bench/tests -q

The ``smoke`` workload certifies hopf_as_dialgebra(group_hopf(S3)) and
uar_infinity(sq2, 2) and rejects four corruptions of them.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import run as bench_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def run(script: str, *args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", script), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_schema(trace, section):
    proc = run("run.py", "--workload", "smoke", "--seed", "5", "--seconds", "1",
               "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    context = json.loads(proc.stdout.splitlines()[-2])["context"]
    assert context["hash_seed"] == "0" and context["seed"] == 5
    assert context["src_lines"]["exact_core"] > 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_tampered_reference_is_a_failure():
    wl = WORKLOADS["smoke"]
    inp = wl.setup(5)
    reference = copy.deepcopy(harness.load_reference("smoke"))
    reference["uar_infinity"]["rack"]["mu"] = "0" * 16
    out = harness.measure(wl, inp, 0.1, reference)
    assert out["failed"] >= 1
    assert any(p.startswith("uar_infinity:") for p in out["problems"])
    assert harness.measure(wl, inp, 0.1, harness.load_reference("smoke"))["failed"] == 0


def test_accepted_corruption_is_a_failure():
    tally = harness.Tally()
    harness.check_reject([("no-op", None, 0.0), ("crash", ValueError("x"), 0.0)],
                         harness.error_type(), tally, {})
    assert (tally.attempted, tally.failed) == (2, 2)


def test_differing_counts_are_a_failure():
    t = {"metrics": {"a": 1, "b": 2}, "attempted": 3, "failed": 0, "problems": []}
    bench_run.repeat_check(t, {"metrics": {"a": 1, "b": 3}}, ["a", "b"])
    assert (t["attempted"], t["failed"]) == (4, 1)
    assert "['b']" in t["problems"][0]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("run.py", "--workload", "smoke", "--seed", "5", "--seconds", "1",
               "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
