"""Smoke test of the benchmark: each workload at one instance, timed and traced.

Runs the command listed in BENCHMARK.json from the repository root and
checks the result line against the metrics listed there.
"""

import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "0", "--seconds", "0",
                             "--trace", str(trace), "--instances", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _digest(stdout: str) -> str:
    return re.search(r"^t_max_digest = (\w+)$", stdout, re.M).group(1)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload):
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        digests.append(_digest(proc.stdout))
    # tracing must leave every t_max unchanged
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
