"""Smoke test of the benchmark itself, kept out of the tier-1 suite
(pytest's ``testpaths`` only collects ``tests/``).  Run it with

    python3 -m pytest -q perfbench/test_smoke.py

It makes one short run of each workload, untraced and twice traced, and
takes 70-90 seconds on a 2-core machine.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_RE = re.compile(r"\.(calls|pairs|points|draws|samples_\w+)$")


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def assert_reported(lines, result, declared):
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert any(re.fullmatch(rf"{re.escape(m['name'])} = \S+ "
                                rf"{re.escape(m['unit'])}( .*)?", line)
                   for line in lines), m["name"]
    assert any(re.match(r"failed_frac = 0 ratio ", line) for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines, result = run(workload, 0)
    assert_reported(lines, result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    lines, first = run(workload, 1)
    assert_reported(lines, first, SPEC["per_layer"])
    _, second = run(workload, 1)
    counts = [k for k in first["metrics"] if COUNT_RE.search(k)]
    assert counts
    for k in counts:
        assert first["metrics"][k] == second["metrics"][k], k
