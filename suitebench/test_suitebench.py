"""Tests of the suite benchmark itself (not part of the package's tests):

    python3 -m pytest suitebench -q

Tiny-corpus runs of every workload, plain and traced, through the real
command line; a run where the package is missing must fail without a
result; and the oracles must accept the engine's real output but reject it
with one violation row dropped or one verdict flipped.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from suitebench import oracle  # noqa: E402
from suitebench.workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)

TINY_ROWS = 8000
SEED = 5


def bench(root: str, cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, os.path.join(root, "suitebench", "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--rows", str(TINY_ROWS),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace, tmp_path):
    # from a foreign working directory, as the contract requires
    proc = bench(ROOT, str(tmp_path), workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    details = json.loads(proc.stdout.strip().splitlines()[-2])["details"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "suitebench"), tmp_path / "suitebench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = bench(str(tmp_path), str(tmp_path), "suite-clean", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class TestOracle:
    """The oracle against one real ``run_suite`` output on a tiny corpus."""

    @pytest.fixture(scope="class")
    def output(self, tmp_path_factory):
        import ray

        from anomalydetection_ray.pipelines.validate import run_suite
        from suitebench.workloads import suite_config

        w = WORKLOADS["suite-clean"]
        tmp = tmp_path_factory.mktemp("oracle")
        baseline = str(tmp / "baseline.parquet")
        subprocess.run(
            [
                sys.executable, os.path.join(ROOT, "suitebench", "prepare.py"), "--workload", w.name,
                "--seed", str(SEED), "--rows", str(TINY_ROWS), "--files", "4",
                "--dir", str(tmp / "c"), "--baseline", baseline,
            ],
            check=True, capture_output=True, timeout=300,
        )
        with open(tmp / "c" / "expected.json") as f:
            expected = json.load(f)
        ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
        try:
            cfg = suite_config(w, str(tmp / "c" / "repos.parquet"))
            res = run_suite(str(tmp / "c" / "corpus"), str(tmp / "out"), cfg, baseline, resume=False)
        finally:
            ray.shutdown()
        return res.verdicts, oracle.read_violations(res), expected

    def test_accepts_the_engine_output(self, output):
        verdicts, violations, expected = output
        assert violations.num_rows > 0
        assert oracle.check_output(verdicts, violations, expected) == []

    def test_rejects_a_dropped_violation_row(self, output):
        verdicts, violations, expected = output
        dropped = violations.slice(1, violations.num_rows - 1)
        assert oracle.check_output(verdicts, dropped, expected)
        assert oracle.output_digest(verdicts, dropped) != oracle.output_digest(verdicts, violations)

    def test_rejects_a_flipped_verdict(self, output):
        verdicts, violations, expected = output
        for i in range(len(verdicts)):
            flipped = verdicts.copy()
            flipped.loc[i, "passed"] = not flipped.loc[i, "passed"]
            assert oracle.check_output(flipped, violations, expected), verdicts.iloc[i].to_dict()
