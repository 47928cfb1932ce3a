"""The benchmark's three workloads, each one closed `lobsim` job.

Every workload drives the program through its command-line entry point
(`lobsim.cli.main`, called in-process) with configs built here from the
workload seed, so the benchmark measures what a user of `lobsim` runs.

- paper_episode: one paper-scale DDQL training episode (`lobsim train`,
  660 x 30 s periods, six momentum traders and the TWAP twin over a
  09:30-16:00 synthetic day).  Kernel dispatch, momentum polling and book
  snapshots on a ~30k-order book do nearly all the work; the learner is a
  fraction of a percent.
- replay_day: `lobsim replay` of a default-flow day written at set-up with
  `lobsim gen-data`, then `lobsim realism` on the same file.  It writes to
  the book and never reads it: no market-data queries, with LOBSTER parsing,
  log serialisation and the realism fits on the path.
- learn_dense: `lobsim train` for 3 episodes of 3,600 one-second periods with
  `train_every: 1` and a shallow book (cancel probability 0.7, one momentum
  trader), then `lobsim evaluate` from the last checkpoint.  Learner time
  and real checkpoint save/load (a full 10k-row buffer) dominate.

The toy size runs the same jobs on minutes of simulated time; the
benchmark's own tests use it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import yaml

from lobsim import DDQLExecutionAgent, ExchangeAgent, Kernel, LearnerState, Side
from lobsim.cli import main as lobsim_main
from lobsim.lobster import EventType, parse_message_file
from lobsim.rl import EpisodeResult

LOG_CHUNK = 10_000


class JobError(Exception):
    """A `lobsim` command exited non-zero."""


def run_cli(*argv: str) -> None:
    """`lobsim <argv>` in-process with its stdout discarded; raises on failure."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = lobsim_main(list(argv))
    if status != 0:
        raise JobError(f"lobsim {' '.join(argv)} exited {status}")


class KernelCapture:
    """Keeps each (kernel, log) pair a job runs so the digest and checks can
    read the final book and the log after the timed region.  One call per
    kernel run, so it costs nothing measurable."""

    def __init__(self) -> None:
        self.runs: list[tuple] = []
        self._original = None

    def install(self) -> None:
        original = self._original = Kernel.run
        runs = self.runs

        def run(kernel):
            log = original(kernel)
            runs.append((kernel, log))
            return log

        Kernel.run = run

    def uninstall(self) -> None:
        Kernel.run = self._original

    @property
    def deliveries(self) -> int:
        return sum(len(log) for _, log in self.runs)


def exchange_of(kernel) -> ExchangeAgent:
    return next(a for a in kernel.agents if isinstance(a, ExchangeAgent))


def results_of(kernel) -> list:
    return [(a.name, a.result) for a in kernel.agents
            if isinstance(getattr(a, "result", None), EpisodeResult)]


def write_yaml(path: Path, cfg: dict) -> None:
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))


# -- workloads -------------------------------------------------------------------


class Workload:
    name = ""
    kernel_runs = 0

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size

    @property
    def toy(self) -> bool:
        return self.size == "toy"

    def prepare(self, work: Path) -> None:
        """Set-up: write configs (and data) under `work`."""
        raise NotImplementedError

    def job(self, work: Path, out: Path) -> None:
        raise NotImplementedError

    def check(self, capture: KernelCapture, work: Path, out: Path) -> list:
        """Problems with the job's outputs; empty when they are correct."""
        problems = []
        if len(capture.runs) != self.kernel_runs:
            problems.append(f"expected {self.kernel_runs} kernel runs, "
                            f"got {len(capture.runs)}")
        for kernel, _ in capture.runs:
            book = exchange_of(kernel).book
            bid, ask = book.best_bid(), book.best_ask()
            if bid is not None and ask is not None and bid >= ask:
                problems.append(f"crossed book at stop: {bid} >= {ask}")
            for name, result in results_of(kernel):
                if result.partial:
                    problems.append(f"{name}: episode {result.episode} ended partial")
                if result.filled_quantity > result.parent_quantity:
                    problems.append(f"{name}: overfilled {result.filled_quantity}")
        return problems


class PaperEpisode(Workload):
    name = "paper_episode"
    kernel_runs = 1

    def config(self) -> dict:
        cfg = {"seed": self.seed, "ddql": {"episodes": 1}}
        if self.toy:
            cfg["data"] = {"synthetic": {"session_start": "09:59:00",
                                         "session_end": "10:03:00"}}
            cfg["roster"] = {"momentum_count": 2}
            cfg["ddql"].update({
                "num_periods": 4, "period_seconds": 30.0,
                "session_start": "10:00:00", "session_end": "10:02:00",
                "parent_quantity": 40, "hidden_sizes": [8],
                "min_experience": 2, "batch_size": 2, "train_every": 1,
            })
        return cfg

    def prepare(self, work: Path) -> None:
        write_yaml(work / "train.yaml", self.config())

    def job(self, work: Path, out: Path) -> None:
        run_cli("train", "--config", str(work / "train.yaml"), "--out", str(out))

    def check(self, capture, work, out) -> list:
        problems = super().check(capture, work, out)
        for kernel, _ in capture.runs:
            for name, result in results_of(kernel):
                if result.filled_quantity != result.parent_quantity:
                    problems.append(f"{name}: filled {result.filled_quantity} of "
                                    f"{result.parent_quantity}")
                if name == "ddql" and result.train_steps == 0:
                    problems.append("ddql: no train steps")
        return problems


class ReplayDay(Workload):
    name = "replay_day"
    kernel_runs = 1

    def configs(self, data_file: Path) -> tuple:
        flow = {"session_start": "09:30:00", "session_end": "10:10:00"} if self.toy else {}
        generate = {"seed": self.seed, "data": {"synthetic": flow}}
        replay = {"seed": self.seed, "data": {"kind": "lobster", "paths": [str(data_file)]}}
        if self.toy:
            replay["ddql"] = {"num_periods": 4, "period_seconds": 30.0,
                              "session_start": "10:00:00", "session_end": "10:02:00"}
        return generate, replay

    def data_file(self, work: Path) -> Path:
        return work / "data" / f"synthetic_{self.seed}.csv"

    def prepare(self, work: Path) -> None:
        generate, replay = self.configs(self.data_file(work))
        write_yaml(work / "gen.yaml", generate)
        write_yaml(work / "replay.yaml", replay)
        run_cli("gen-data", "--config", str(work / "gen.yaml"), "--out", str(work / "data"))

    def job(self, work: Path, out: Path) -> None:
        cfg = str(work / "replay.yaml")
        run_cli("replay", "--config", cfg, "--out", str(out))
        run_cli("realism", "--config", cfg, "--out", str(out))

    def check(self, capture, work, out) -> list:
        problems = super().check(capture, work, out)
        if not capture.runs:
            return problems
        kernel, _ = capture.runs[0]
        book = exchange_of(kernel).book
        config = kernel.config
        last_sent = config.stop_time - config.latency_nanos - config.computation_delay_nanos
        expected = reconstruct_depth(self.data_file(work), last_sent)
        for side in (Side.BID, Side.ASK):
            if book.side_levels(side) != expected[side]:
                problems.append(f"replayed {side.name} depth differs from a direct "
                                f"reconstruction of the file")
        report = json.loads((out / "realism.json").read_text())
        for section in ("windowed_volume", "interarrival", "intraday"):
            body = report.get(section)
            if not isinstance(body, dict) or "refused" in body:
                problems.append(f"realism section {section} missing or refused")
        return problems


def reconstruct_depth(path: Path, last_sent_ns: int) -> dict:
    """Per-side (price, total, count) levels, best first, from applying the
    file's events directly; the replay delivers an event sent at t at
    t + latency, so events after stop - latency never reach the book.
    Synthetic flow never crosses, so no matching is needed."""
    orders: dict[int, list] = {}
    for event in parse_message_file(path):
        if event.time_ns > last_sent_ns:
            break
        if event.event_type is EventType.NEW_LIMIT:
            orders[event.order_id] = [event.side, event.price, event.size]
        elif event.event_type is EventType.PARTIAL_CANCEL:
            entry = orders[event.order_id]
            entry[2] -= event.size
            if entry[2] <= 0:
                del orders[event.order_id]
        elif event.event_type is EventType.DELETE:
            orders.pop(event.order_id, None)
    levels: dict = {Side.BID: {}, Side.ASK: {}}
    for side, price, size in orders.values():
        total, count = levels[side].get(price, (0, 0))
        levels[side][price] = (total + size, count + 1)
    return {
        side: [(p, *levels[side][p]) for p in sorted(levels[side], reverse=side is Side.BID)]
        for side in (Side.BID, Side.ASK)
    }


class LearnDense(Workload):
    name = "learn_dense"
    kernel_runs = 5  # three training episodes, then greedy DDQL and TWAP

    def config(self) -> dict:
        ddql = {"episodes": 3, "num_periods": 3600, "period_seconds": 1.0,
                "session_start": "10:00:00", "session_end": "11:00:00",
                "train_every": 1}
        flow = {"cancel_probability": 0.7}
        if self.toy:
            ddql.update({"num_periods": 60, "session_end": "10:01:00",
                         "parent_quantity": 120, "hidden_sizes": [8, 8],
                         "min_experience": 10, "batch_size": 8, "max_experience": 150})
            flow.update({"session_start": "09:59:00", "session_end": "10:01:30"})
        return {"seed": self.seed, "data": {"synthetic": flow},
                "roster": {"momentum_count": 1}, "ddql": ddql}

    def prepare(self, work: Path) -> None:
        write_yaml(work / "learn.yaml", self.config())

    def job(self, work: Path, out: Path) -> None:
        cfg = str(work / "learn.yaml")
        run_cli("train", "--config", cfg, "--out", str(out))
        run_cli("evaluate", "--config", cfg, "--out", str(out))

    def check(self, capture, work, out) -> list:
        problems = super().check(capture, work, out)
        if not capture.runs:
            return problems
        ddql = next(a.config for a in capture.runs[0][0].agents
                    if isinstance(a, DDQLExecutionAgent))
        learner = LearnerState.load(out / "checkpoints" / "latest.ckpt", ddql, self.seed)
        rows = min(ddql.max_experience, ddql.episodes * ddql.num_periods)
        if len(learner.buffer) != rows:
            problems.append(f"checkpoint holds {len(learner.buffer)} experiences, "
                            f"expected {rows}")
        if learner.episode_index != ddql.episodes:
            problems.append(f"checkpoint at episode {learner.episode_index}")
        if not (out / "evaluation.json").is_file():
            problems.append("no evaluation report")
        return problems


WORKLOADS = {w.name: w for w in (PaperEpisode, ReplayDay, LearnDense)}


# -- set-up, digest ----------------------------------------------------------------


def child_import_s(root: Path) -> float:
    """Start-up cost every `lobsim` invocation pays: a fresh interpreter
    importing the CLI."""
    env = {"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import lobsim.cli"], cwd=root, env=env,
                   check=True, timeout=120)
    return time.perf_counter() - start


def digest(capture: KernelCapture, out: Path) -> str:
    """sha256 over everything a run decides: per kernel run the episode
    results (action traces, rewards, losses), the final book depth, every
    field of every logged delivery and the agents' final states; then every
    artifact the commands wrote except the manifest, whose config names the
    output directory."""
    h = hashlib.sha256()
    for kernel, log in capture.runs:
        for name, result in results_of(kernel):
            body = {"agent": name, "result": result.to_dict(), "losses": result.losses}
            h.update(json.dumps(body, sort_keys=True).encode())
        h.update(exchange_of(kernel).book.depth_csv().encode())
        records = log.records
        for i in range(0, len(records), LOG_CHUNK):  # chunks keep the digest's memory small
            h.update("".join(f"{r.time},{r.sender_id},{r.recipient_id},{r.tag},{r.summary},"
                             f"{r.detail!r}\n" for r in records[i:i + LOG_CHUNK]).encode())
        h.update(json.dumps(log.final_states, sort_keys=True).encode())
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            h.update(path.relative_to(out).as_posix().encode())
            hash_file(h, path)
    return h.hexdigest()


def hash_file(h, path: Path) -> None:
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
