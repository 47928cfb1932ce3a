"""The benchmark under perfbench/ must keep running on this source tree.

Three toy-size runs of seed 0 through perfbench/run.py: the traced one
patches every lobsim name the benchmark's tracer wraps, and all compare
their behaviour digest with the one stored in perfbench/digests.json.
The replay_day digest also covers `replay_log.jsonl`, so it checks every
log record's text, which is formatted from the payload when it is read.  A change under src/
that breaks the benchmark or changes what a run decides fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, trace", [("learn_dense", "1"), ("paper_episode", "0"),
                                             ("replay_day", "0")])
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
