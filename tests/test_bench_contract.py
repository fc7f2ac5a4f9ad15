"""Every benchmark workload still ends its run with a well-formed result line.

The benchmark calls the library through its public names; a rename or a
changed signature shows up as a traceback in the bench run rather than in
the library's own tests.  Each workload is run once on its quick inputs.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_quick_run_ends_with_a_result_line(workload):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--quick", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def _refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_quick_run_ends_with_a_result_line(workload):
    # The traced run rebinds the library's public names; it must still end with a result.
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--quick", "--seconds", "0",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert type(value) in (int, float) and math.isfinite(value), (name, value)
