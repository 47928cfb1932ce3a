"""The benchmark under perfbench/ must keep running on this source tree.

Two toy-size runs of seed 0 through perfbench/run.py: the traced one
patches every lobsim name the benchmark's tracer wraps, and both compare
their behaviour digest with the one stored in perfbench/digests.json.  A change under src/
that breaks the benchmark or changes what a run decides fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, trace", [("learn_dense", "1"), ("paper_episode", "0")])
def test_toy_benchmark_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--size", "toy", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"], lines
    assert result["failed"] == 0
