"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload paper_episode --seed 0 --seconds 10 --trace 0

Runs from the root of a lobsim checkout and imports the package from its
`src/`.  With `--trace 0` it sets the workload up several times (set-up is
reported as the median), runs one untimed toy-size job to warm up, then
repeats the closed job untraced, under the host clock of `hostclock.py`,
until at least `--seconds` of job wall time have been measured.  It reports
the end-to-end metrics, with job time in the clock's reference seconds.
With `--trace 1` it runs the job once untraced and once with every layer
wrapped in spans, checks that both runs decide the
same digest, runs the layer micro-benchmarks and reports the per-layer
metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

`--size toy` runs the same jobs on minutes of simulated time.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPS = {"full": 5, "toy": 1}
CALIB_ITERATIONS = 2_000_000

TAGS = ("wakeup", "market_data_query", "market_data_reply", "limit_order", "market_order",
        "cancel_order", "order_accepted", "order_executed", "order_cancelled")
POLL_TAGS = ("wakeup", "market_data_query", "market_data_reply")
AGENTS = ("exchange", "replay", "momentum", "twap", "ddql")
BOOK_OPS = ("submit", "cancel", "reduce", "snapshot")
LEARNER_SPANS = ("agents.ddql.select_action", "agents.ddql.train_once", "rl.featurize",
                 "rl.schedule_orders", "rl.buffer_push", "rl.buffer_sample")

END_TO_END_UNITS = {"job_ref_s": "s", "setup_s": "s", "deliveries_per_ref_s": "1/s",
                    "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for op in BOOK_OPS:
        units[f"book.{op}_p50_us"] = "us"
        units[f"book.{op}_p99_us"] = "us"
        units[f"book.{op}.calls"] = "count"
    units.update({
        "book.resting_orders_at_stop": "count", "book.levels_at_stop": "count",
        "book.max_level_orders_at_stop": "count", "book.snapshots_per_mutation": "ratio",
        "book.op_stream_ops_per_s": "1/s", "book.snapshot3_us": "us",
        "kernel.deliveries": "count",
    })
    for tag in TAGS:
        units[f"kernel.deliveries.{tag}"] = "count"
    units.update({"kernel.self_s": "s", "kernel.poll_share": "ratio",
                  "kernel.log_jsonl_s": "s", "kernel.null_dispatch_per_s": "1/s"})
    for stage in ("generate", "parse", "write"):
        units[f"lobster.{stage}_events_per_s"] = "1/s"
    for agent in AGENTS:
        units[f"agents.{agent}.callbacks"] = "count"
        units[f"agents.{agent}.callback_s"] = "s"
    units.update({
        "agents.exchange.rejects": "count", "agents.exchange.cancel_not_found": "count",
        "agents.ddql.period_step_p50_us": "us", "agents.ddql.period_step_p99_us": "us",
        "agents.ddql.select_action_us": "us", "agents.ddql.train_once_us": "us",
        "agents.ddql.compute_target_us": "us", "agents.ddql.save_ms": "ms",
        "agents.ddql.load_ms": "ms", "agents.ddql.checkpoint_bytes": "bytes",
        "agents.ddql.learner_share": "ratio",
        "rl.featurize_us": "us", "rl.schedule_orders_us": "us",
        "rl.buffer_sample_us": "us", "rl.buffer_push_us": "us",
        "mlp.forward_b1_us": "us", "mlp.forward_b32_us": "us", "mlp.train_step_us": "us",
        "training.events_for_episode_s": "s", "training.run_episode_s": "s",
        "training.train_steps_per_s": "1/s",
    })
    for fit in ("fit_gamma", "fit_weibull", "windowed_volume", "interarrival_fit",
                "intraday_profile"):
        units[f"metrics.{fit}_ms"] = "ms"
    units.update({"trace.overhead_ratio": "ratio", "trace.spans": "count",
                  "host.calib_s": "s", "host.blas_threads": "count"})
    return units


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_episode", "replay_day", "learn_dense"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    return parser.parse_args(argv)


def single_threaded_native_code() -> None:
    """One BLAS thread, so a run is one single-threaded process; must run
    before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_lobsim() -> None:
    src = ROOT / "src"
    if not (src / "lobsim" / "__init__.py").is_file():
        sys.exit(f"error: no lobsim package under {src}; run from a lobsim checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import lobsim

    if Path(lobsim.__file__).resolve().parent != (src / "lobsim").resolve():
        sys.exit(f"error: imported lobsim from {lobsim.__file__}, not {src}")


def calib_s() -> float:
    """A fixed pure-Python loop; its time tracks how fast this host runs
    Python right now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIB_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def blas_threads() -> int:
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Job:
    """One timed execution of the workload's job and what it decided."""

    def __init__(self, workload, work: Path, name: str):
        from workloads import KernelCapture

        self.workload = workload
        self.work = work
        self.out = work / name
        self.capture = KernelCapture()
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.speed = 0.0
        self.deliveries = 0
        self.train_steps = 0
        self.digest = ""
        self.problems: list = []

    def run(self, tracer=None, clock=None) -> None:
        """Runs the job once; under a `HostClock` it also sets `ref_s` and
        `speed`."""
        from workloads import digest, results_of

        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()
        self.capture.install()
        try:
            start = time.perf_counter()
            with clock or contextlib.nullcontext(), \
                    tracer.span("bench.job") if tracer else contextlib.nullcontext():
                self.workload.job(self.work, self.out)
            self.wall_s = time.perf_counter() - start
            if clock:
                self.wall_s, self.ref_s, self.speed = clock.wall_s, clock.ref_s, clock.speed
            self.digest = digest(self.capture, self.out)
        finally:
            self.capture.uninstall()
        self.problems = self.workload.check(self.capture, self.work, self.out)
        self.deliveries = self.capture.deliveries
        self.train_steps = sum(r.train_steps for kernel, _ in self.capture.runs
                               for name, r in results_of(kernel) if name == "ddql")

    def release(self) -> None:
        """Drop the kernels, logs and artifacts; the summary fields stay."""
        self.capture.runs.clear()
        shutil.rmtree(self.out, ignore_errors=True)


def expected_digest(workload: str, size: str, seed: int):
    table = json.loads((BENCH_DIR / "digests.json").read_text())
    return table.get(size, {}).get(workload, {}).get(str(seed))


def set_up(workload, work: Path, reps: int) -> float:
    from workloads import child_import_s

    times = []
    for _ in range(reps):
        start = time.perf_counter()
        child_import_s(ROOT)
        workload.prepare(work)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def warm_up(workload, work: Path) -> None:
    """One untimed toy-size job of the same workload, so lazy imports and
    first-call set-up are done before the timed jobs."""
    import workloads

    toy = workloads.WORKLOADS[workload.name](workload.seed, "toy")
    warm = work / "warm"
    warm.mkdir()
    toy.prepare(warm)
    toy.job(warm, warm / "out")
    shutil.rmtree(warm)


def run_untraced(workload, work: Path, seconds: float):
    """Repeats the job under the host clock until `seconds` of job wall
    time are measured."""
    from hostclock import HostClock

    clock = HostClock()
    warm_up(workload, work)
    jobs = []
    while True:
        job = Job(workload, work, f"out{len(jobs)}")
        try:
            job.run(clock=clock)
        except Exception as exc:  # a failed job is counted, not fatal
            job.problems = [f"job raised {exc!r}"]
        job.release()
        jobs.append(job)
        if sum(j.wall_s for j in jobs) >= seconds:
            return jobs


def install_tracing(tracer, ops: list, counters: collections.Counter) -> None:
    """Spans at every layer boundary the metrics name, recorded from outside."""
    import lobsim.agents.ddql as ddql_module
    import lobsim.rl as rl_module
    import lobsim.training as training_module
    from lobsim import (
        DDQLExecutionAgent,
        ExchangeAgent,
        Kernel,
        LearnerState,
        MarketReplayAgent,
        MomentumAgent,
        OrderBook,
        ReplayBuffer,
        TWAPExecutionAgent,
    )
    from lobsim.messages import OrderCancelled
    from lobsim.training import DataSource

    def new_kernel_run(kernel):
        ops.append([])

    tracer.patch_method(Kernel, "run", "kernel.run", before=new_kernel_run)
    for cls, short in ((ExchangeAgent, "exchange"), (MarketReplayAgent, "replay"),
                       (MomentumAgent, "momentum"), (TWAPExecutionAgent, "twap"),
                       (DDQLExecutionAgent, "ddql")):
        for callback in ("on_start", "on_wakeup", "on_message", "on_stop"):
            tracer.patch_method(cls, callback, f"agents.{short}.callback")
    exchange = tracer.name_of("agents.exchange.callback")

    def record(kind):
        def before(book, *args):
            if tracer.current() == exchange:  # not the flow generator's shadow book
                if kind == "submit":
                    o = args[0]
                    ops[-1].append(("submit", o.order_id, o.agent_id, o.side, o.price_ticks,
                                    o.quantity, o.kind, o.placed_at))
                else:
                    ops[-1].append((kind, *args))
        return before

    for op in BOOK_OPS:
        tracer.patch_method(OrderBook, op, f"book.{op}", before=record(op))

    def count_sends(kernel, sender_id, recipient_id, payload):
        if isinstance(payload, OrderCancelled) and \
                isinstance(kernel.agents[sender_id], ExchangeAgent):
            if payload.reason.startswith("rejected"):
                counters["rejects"] += 1
            elif payload.reason == "not_found":
                counters["cancel_not_found"] += 1

    tracer.patch_counter(Kernel, "send", count_sends)
    tracer.patch_method(DDQLExecutionAgent, "_period_step", "agents.ddql.period_step")
    tracer.patch_function(ddql_module, "select_action", "agents.ddql.select_action")
    tracer.patch_method(LearnerState, "train_once", "agents.ddql.train_once")
    tracer.patch_function(rl_module, "featurize", "rl.featurize")
    tracer.patch_function(rl_module, "schedule_orders", "rl.schedule_orders")
    tracer.patch_method(ReplayBuffer, "push", "rl.buffer_push")
    tracer.patch_method(ReplayBuffer, "sample", "rl.buffer_sample")
    tracer.patch_function(training_module, "run_episode", "training.run_episode")
    tracer.patch_method(DataSource, "events_for_episode", "training.events_for_episode")


def span_metrics(table, job: Job, counters) -> dict:
    from lobsim import Side
    from workloads import exchange_of

    metrics = {}
    in_job = table.within("bench.job")
    exchange = "agents.exchange.callback"
    for op in BOOK_OPS:
        mask = table.mask(f"book.{op}", parent=exchange)
        metrics[f"book.{op}_p50_us"] = table.percentile_us(mask, 50)
        metrics[f"book.{op}_p99_us"] = table.percentile_us(mask, 99)
        metrics[f"book.{op}.calls"] = table.count(mask)
    mutations = sum(metrics[f"book.{op}.calls"] for op in ("submit", "cancel", "reduce"))
    metrics["book.snapshots_per_mutation"] = metrics["book.snapshot.calls"] / max(1, mutations)

    main_kernel, _ = max(job.capture.runs, key=lambda run: len(run[1]))
    levels = [level for side in (Side.BID, Side.ASK)
              for level in exchange_of(main_kernel).book.side_levels(side)]
    metrics["book.resting_orders_at_stop"] = sum(count for _, _, count in levels)
    metrics["book.levels_at_stop"] = len(levels)
    metrics["book.max_level_orders_at_stop"] = max((c for _, _, c in levels), default=0)

    tags = collections.Counter(rec.tag for _, log in job.capture.runs for rec in log.records)
    deliveries = sum(tags.values())
    metrics["kernel.deliveries"] = deliveries
    for tag in TAGS:
        metrics[f"kernel.deliveries.{tag}"] = tags.get(tag, 0)
    metrics["kernel.poll_share"] = sum(tags[t] for t in POLL_TAGS) / max(1, deliveries)
    metrics["kernel.self_s"] = table.self_total(table.mask("kernel.run") & in_job)
    for agent in AGENTS:
        mask = table.mask(f"agents.{agent}.callback") & in_job
        metrics[f"agents.{agent}.callbacks"] = table.count(mask)
        metrics[f"agents.{agent}.callback_s"] = table.total(mask)
    metrics["agents.exchange.rejects"] = counters["rejects"]
    metrics["agents.exchange.cancel_not_found"] = counters["cancel_not_found"]
    step = table.mask("agents.ddql.period_step")
    metrics["agents.ddql.period_step_p50_us"] = table.percentile_us(step, 50)
    metrics["agents.ddql.period_step_p99_us"] = table.percentile_us(step, 99)
    learner_s = sum(table.total(table.mask(name) & in_job) for name in LEARNER_SPANS)
    metrics["agents.ddql.learner_share"] = learner_s / job.wall_s
    metrics["training.events_for_episode_s"] = table.total(
        table.mask("training.events_for_episode") & in_job)
    metrics["training.run_episode_s"] = table.total(table.mask("training.run_episode") & in_job)
    metrics["trace.spans"] = len(table.duration)
    return metrics


def run_traced(workload, work: Path) -> tuple:
    """Untraced job, traced job, micro-benchmarks; returns (attempted, failed,
    problems, metrics, digests)."""
    import micro
    from tracing import Tracer
    from workloads import exchange_of

    plain = Job(workload, work, "plain")
    plain.run()
    plain.release()

    tracer = Tracer()
    ops: list = []
    counters: collections.Counter = collections.Counter()
    traced = Job(workload, work, "traced")
    install_tracing(tracer, ops, counters)
    try:
        traced.run(tracer)
    finally:
        tracer.uninstall()
    problems = plain.problems + traced.problems
    failed = sum(1 for j in (plain, traced) if j.problems)
    if traced.digest != plain.digest:
        problems.append("traced run decided a different digest than the untraced run")
        failed += 1

    metrics = span_metrics(tracer.table(), traced, counters)
    del tracer
    main_index = max(range(len(traced.capture.runs)),
                     key=lambda i: len(traced.capture.runs[i][1]))
    main_kernel, main_log = traced.capture.runs[main_index]
    log_path = work / "main_log.jsonl"
    start = time.perf_counter()
    main_log.to_jsonl(log_path)
    metrics["kernel.log_jsonl_s"] = time.perf_counter() - start
    log_path.unlink()
    book = exchange_of(main_kernel).book
    expected_depth = book.depth_csv()
    allow_self_trade = book.allow_self_trade
    main_ops = ops[main_index]
    traced_wall = traced.wall_s
    traced.release()
    del ops, book, main_kernel, main_log
    gc.collect()

    micro_result = micro.run_all(workload.seed, workload.size, work, main_ops,
                                 allow_self_trade, expected_depth)
    metrics.update(micro_result["metrics"])
    if micro_result["problems"]:
        problems += micro_result["problems"]
        failed = max(failed, 1)
    metrics["trace.overhead_ratio"] = traced_wall / plain.wall_s
    metrics["training.train_steps_per_s"] = plain.train_steps / plain.wall_s
    digests = {plain.digest}
    return 2, min(2, failed), problems, metrics, digests


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    single_threaded_native_code()
    import_lobsim()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    host_calib = calib_s()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.size}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            workload.prepare(work)
            attempted, failed, problems, metrics, digests = run_traced(workload, work)
            metrics["host.calib_s"] = host_calib
            metrics["host.blas_threads"] = blas_threads()
            units = per_layer_units()
        else:
            setup_s = set_up(workload, work, SETUP_REPS[args.size])
            jobs = run_untraced(workload, work, args.seconds)
            attempted = len(jobs)
            failed = sum(1 for j in jobs if j.problems)
            problems = [p for j in jobs for p in j.problems]
            digests = {j.digest for j in jobs if not j.problems}
            timed = [j for j in jobs if j.ref_s > 0] or jobs  # a job that raised has none
            metrics = {
                "job_ref_s": statistics.median(j.ref_s for j in timed),
                "setup_s": setup_s,
                "deliveries_per_ref_s": statistics.median(j.deliveries / max(j.ref_s, 1e-9)
                                                          for j in timed),
                "peak_rss_mb": peak_rss_mb(),
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()

    if len(digests) > 1:
        problems.append(f"runs decided {len(digests)} different digests")
        failed = attempted
    expected = expected_digest(args.workload, args.size, args.seed)
    for value in digests:
        print(f"digest {args.workload} {args.size} seed {args.seed}: {value}")
        if expected is not None and value != expected:
            problems.append(f"digest {value} differs from the stored {expected}")
            failed = attempted
    if not args.trace:
        print(f"setup_s {setup_s:.4f}; per job wall_s/host speed/job_ref_s: "
              + " ".join(f"{j.wall_s:.3f}/{j.speed:.3f}/{j.ref_s:.3f}" for j in jobs))
    print(f"host.calib_s {host_calib:.4f}; elapsed {time.perf_counter() - started:.1f} s")
    for problem in problems:
        print(f"problem: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
