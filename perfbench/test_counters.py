"""Self-test of the benchmark: the traced pass must count the same work every
time it runs on the same seed, so that a count can back a claim.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_counters.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 3


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _traced_metrics(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    return result["metrics"]


@pytest.mark.parametrize("workload",
                         [w["name"] for w in _spec()["workloads"]])
def test_counts_repeat_exactly(workload):
    counted = [m["name"] for m in _spec()["per_layer"]
               if m["unit"] == "count"]
    first = _traced_metrics(workload)
    second = _traced_metrics(workload)
    assert {name: first[name]["value"] for name in counted} == \
        {name: second[name]["value"] for name in counted}
    assert first["machines.successors_calls"]["value"] > 0
