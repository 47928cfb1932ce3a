"""The benchmark's own tests: every workload at toy size, untraced and traced,
the metric tables against BENCHMARK.json, the tracer, the host clock, and the
refusal to run without the program.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from hostclock import HostClock  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("paper_episode", "replay_day", "learn_dense")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    spec = declared()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_is_correct_and_complete(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in declared()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    stored = json.loads((BENCH_DIR / "digests.json").read_text())["toy"][workload]["0"]
    assert f"digest {workload} toy seed 0: {stored}" in lines
    assert not (ROOT / ".bench_work").exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "paper_episode", "--seed", "0", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


class Probe:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return sum(range(n))


def test_tracer_nests_spans_and_restores_methods():
    original_outer, original_inner = Probe.outer, Probe.inner
    tracer = Tracer()
    tracer.patch_method(Probe, "outer", "probe.outer")
    tracer.patch_method(Probe, "inner", "probe.inner")
    with tracer.span("root"):
        assert Probe().outer(1000) == sum(range(1000)) + 1
    tracer.uninstall()
    assert Probe.outer is original_outer and Probe.inner is original_inner

    table = tracer.table()
    outer, inner = table.mask("probe.outer"), table.mask("probe.inner", parent="probe.outer")
    assert table.count(outer) == 1 and table.count(inner) == 1
    assert table.count(table.within("root")) == 3
    assert table.self_total(outer) == pytest.approx(table.total(outer) - table.total(inner))


def test_host_clock_samples_the_region_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) == previous
    assert len(clock.probes) >= 4  # start, at least two timer samples, end
    assert clock.wall_s >= 0.35 > sum(clock.probes[1:-1])
    assert clock.speed > 0 and clock.ref_s > 0
