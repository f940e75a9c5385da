"""Self-test of the e2e benchmark: short runs on two seeds.

``PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py``
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.compare import compare

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc


@pytest.mark.parametrize("seed", [0, 1])
def test_smoke_reports_every_declared_metric(tmp_path, seed):
    out = tmp_path / "smoke.json"
    run(["-m", "benchmarks.e2e", "--smoke", "--seed", str(seed),
         "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["kind"] == "smoke"
    assert report["host"]["seed"] == seed
    assert list(report["workloads"]) == [w["name"]
                                         for w in BENCH["workloads"]]
    for entry in report["workloads"].values():
        assert entry["fail_ratio"] == 0, entry["failures"]
        assert entry["attempted"] > 0
        for part in ("end_to_end", "per_layer"):
            for m in BENCH[part]:
                assert entry[part][m["name"]]["unit"] == m["unit"]
    for m in BENCH["end_to_end"]:
        assert all(e["end_to_end"][m["name"]]["median"] > 0
                   for e in report["workloads"].values())
    lines, regressed = compare(report, report)
    assert not regressed, "\n".join(lines)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_line(trace):
    proc = run(["benchmarks/e2e/run.py", "--workload", "scalar-dispatch",
                "--seed", "3", "--seconds", "1", "--smoke",
                "--trace", trace])
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    declared = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert line["metrics"] == {
        m["name"]: {"value": line["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in declared}
