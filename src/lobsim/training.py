"""Experiment orchestration: rosters, episodes, the training loop, and
paired evaluation runs.

Reproducibility contract: every stochastic stream is derived from the run
seed with a fixed stream tag and the episode index, so episode k sees the
same data and kernel behavior whether the run got there directly or through
a checkpoint resume.

An episode's synthetic day is made beside the simulation.  When the episode
starts, `DataSource` forks a helper that runs `generate_synthetic` and
streams its rows (`lobster.stream_synthetic`); `run_episode` builds its
roster once the first chunk is in, and the replay agent fills the rest of
the columns as it reads, waiting on the helper only when it has replayed
every row received.  The replay agent's `on_stop` reads the rest of the day
and reaps the helper, so the day is whole for `events_total` and for a
second run on it.  If the run ends any other way, `run_episode` kills and
reaps the helper before the exception goes on, and the cut day is dropped.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .agents import (
    DDQLConfig,
    DDQLExecutionAgent,
    ExchangeAgent,
    LearnerState,
    MarketReplayAgent,
    MomentumAgent,
    MomentumConfig,
    TradingAgent,
    TWAPExecutionAgent,
)
from .agents.ddql import replace_file
from .kernel import Agent, AgentFault, KernelConfig, SimTime, SimulationLog, build_kernel, seconds
from .lobster import (
    FlowColumns,
    FlowHelperError,
    SyntheticFlowConfig,
    parse_message_file,
    stream_synthetic,
)
from .metrics import ExecutionComparison, execution_report
from .mlp import NumericalError
from .rl import ActionSpace, EpisodeResult

# stream tags for per-episode seed derivation
KERNEL_STREAM = 1
FLOW_STREAM = 2


def derive_seed(base_seed: int, stream: int, episode: int) -> int:
    return int(np.random.SeedSequence([base_seed, stream, episode]).generate_state(1)[0])


@dataclass
class DataSource:
    """Where each episode's background order flow comes from."""

    kind: str = "synthetic"  # "synthetic" | "lobster" | "none"
    synthetic: Optional[SyntheticFlowConfig] = None
    paths: list = field(default_factory=list)
    _last: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def validate(self) -> None:
        if self.kind == "synthetic" and self.synthetic is None:
            raise ValueError("synthetic data source needs a flow config")
        if self.kind == "lobster" and not self.paths:
            raise ValueError("lobster data source needs at least one file")
        if self.kind not in ("synthetic", "lobster", "none"):
            raise ValueError(f"unknown data source kind {self.kind!r}")

    def events_for_episode(self, episode: int, base_seed: int,
                           streamed: bool = False) -> FlowColumns:
        """The episode's flow.  The last one is kept for a command that runs
        its day twice, and dropped before the next is made.  A synthetic day
        comes from a forked helper: with `streamed` it is returned holding
        its first chunk and grows as its reader pulls, else whole."""
        self.validate()
        if self.kind == "none":
            return FlowColumns()
        if self.kind == "lobster":
            key = self.paths[episode % len(self.paths)]
        else:
            key = replace(self.synthetic, seed=derive_seed(base_seed, FLOW_STREAM, episode))
        if self._last is None or self._last[0] != key:
            self.drop()  # frees the last day before the next is made
            self._last = (key, parse_message_file(key) if self.kind == "lobster"
                          else stream_synthetic(key))
        flow = self._last[1]
        if not streamed:
            flow.finish()
        return flow

    def drop(self) -> None:
        """Forgets the last day, killing its helper if it is still making it."""
        if self._last is not None:
            self._last[1].close()
            self._last = None


@dataclass
class RunSetup:
    """Everything one experiment run needs besides the learner itself."""

    ddql: DDQLConfig
    data: DataSource
    seed: int = 0
    out_dir: Path = Path("runs/default")
    warmup: SimTime = seconds(60)
    post_margin: SimTime = seconds(5)
    latency_nanos: int = 1_000_000
    computation_delay_nanos: int = 0
    momentum_count: int = 6
    momentum: MomentumConfig = field(default_factory=MomentumConfig)

    def kernel_config(self, episode: int) -> KernelConfig:
        return KernelConfig(
            start_time=self.ddql.session_start - self.warmup,
            stop_time=self.ddql.session_end + self.post_margin,
            latency_nanos=self.latency_nanos,
            computation_delay_nanos=self.computation_delay_nanos,
            rng_seed=derive_seed(self.seed, KERNEL_STREAM, episode),
        )


@dataclass
class EpisodeOutcome:
    log: SimulationLog
    exchange: ExchangeAgent


def run_episode(setup: RunSetup, episode: int,
                executor: Optional[TradingAgent] = None) -> EpisodeOutcome:
    """One full kernel session: the background roster, then `executor`, if
    given, whose result is stamped with the episode index.  A TWAP twin
    trades beside a training DDQL executor: training episodes carry it,
    greedy evaluation and paired realism runs do not.

    The day arrives as the run goes (see the module docstring).  A run that
    raises kills and reaps the day's helper first, and a helper's failure
    is raised as its FlowHelperError, not as the replay agent's fault."""
    events = setup.data.events_for_episode(episode, setup.seed, streamed=True)
    try:
        agents: list[Agent] = [ExchangeAgent()]
        if events:
            agents.append(MarketReplayAgent(events))
        stagger = setup.momentum.poll_interval // max(1, setup.momentum_count)
        for i in range(setup.momentum_count):
            agents.append(MomentumAgent(replace(setup.momentum), poll_offset=i * stagger,
                                        name=f"momentum-{i}"))
        if executor is not None:
            executor.result.episode = episode
            if isinstance(executor, DDQLExecutionAgent) and executor.train_enabled:
                agents.append(TWAPExecutionAgent(setup.ddql, name="twap-benchmark"))
            agents.append(executor)
        log = build_kernel(setup.kernel_config(episode), agents).run()
    except BaseException as exc:
        setup.data.drop()
        if isinstance(exc, AgentFault) and isinstance(exc.__cause__, FlowHelperError):
            raise exc.__cause__ from None
        raise
    return EpisodeOutcome(log, agents[0])


LEARNING_CURVE_COLUMNS = ("episode", "total_reward", "filled_quantity",
                          "slippage", "epsilon", "loss_mean")


def _curve_row(result: EpisodeResult) -> list:
    loss_mean = float(np.mean(result.losses)) if result.losses else ""
    slippage = result.slippage if result.slippage is not None else ""
    return [result.episode, result.total_reward, result.filled_quantity,
            slippage, result.final_epsilon, loss_mean]


def _csv_bytes(header, rows) -> bytes:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode()


def write_learning_curve(rows: list, path: Path) -> None:
    replace_file(path, _csv_bytes(LEARNING_CURVE_COLUMNS, rows))


def checkpoint_path(out_dir: Path, episode: int) -> Path:
    return Path(out_dir) / "checkpoints" / f"episode_{episode:04d}.ckpt"


def _episode_of(path: Path, suffix: str) -> int:
    """n for a file named episode_<n><suffix>, -1 for any other name."""
    number = path.name[len("episode_"):-len(suffix)]
    return int(number) if number.isdecimal() else -1


def latest_checkpoint(out_dir: Path) -> Optional[Path]:
    folder = Path(out_dir) / "checkpoints"
    candidates = folder.glob("episode_*.ckpt") if folder.is_dir() else ()
    return max(candidates, key=lambda path: _episode_of(path, ".ckpt"), default=None)


@dataclass
class TrainOutcome:
    results: list
    learning_curve_path: Path
    last_checkpoint: Optional[Path]


class CheckpointWriteError(Exception):
    def __init__(self, cause: BaseException, last_good: Optional[Path]):
        super().__init__(f"writing training output failed ({cause}); last good: {last_good}")
        self.last_good = last_good


class LearnerDivergedError(Exception):
    """Training stopped because a loss or a network parameter became
    non-finite; no checkpoint is written for the episode."""

    def __init__(self, episode: int, cause: NumericalError):
        super().__init__(f"the learner diverged in episode {episode} ({cause}); "
                         "lower ddql.learning_rate")
        self.episode = episode


def train(setup: RunSetup, resume: bool = False) -> TrainOutcome:
    """Run the configured number of episodes, checkpointing after each one.
    With resume=True, picks up from the newest checkpoint in out_dir.

    Each episode commits its output in one order: its action trace, the
    learning curve with its row, its checkpoint, then latest.ckpt, each
    written whole through a temporary file.  A run stopped anywhere and
    resumed therefore writes the straight run's bytes: a resume drops what
    the stop left past the newest checkpoint, then redoes the episodes after
    it and rewrites their traces and rows."""
    out_dir = Path(setup.out_dir)
    (out_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
    (out_dir / "traces").mkdir(exist_ok=True)
    curve_path = out_dir / "learning_curve.csv"
    latest_path = out_dir / "checkpoints" / "latest.ckpt"
    learner = None
    rows: list = []
    last_good = None
    if resume:
        last_good = latest_checkpoint(out_dir)
        if last_good is not None:
            learner = LearnerState.load(last_good, setup.ddql, setup.seed)
            rows = _read_curve_rows(curve_path, learner.episode_index)
        try:
            _drop_uncommitted(out_dir, 0 if learner is None else learner.episode_index)
            if last_good is not None:  # the stop may have come before latest.ckpt caught up
                replace_file(latest_path, last_good.read_bytes())
        except OSError as exc:
            raise CheckpointWriteError(exc, last_good) from exc
    if learner is None:
        learner = LearnerState(setup.ddql, setup.seed)
    results = []
    for episode in range(learner.episode_index, setup.ddql.episodes):
        learner.epsilon = setup.ddql.epsilon_for_episode(episode)
        executor = DDQLExecutionAgent(setup.ddql, learner)
        # the outcome is dropped: held, it would keep the episode's log,
        # book and flow alive through the next episode
        try:
            run_episode(setup, episode, executor)
        except AgentFault as exc:
            if isinstance(exc.__cause__, NumericalError):  # the loss check in train_step
                raise LearnerDivergedError(episode, exc.__cause__) from exc
            raise
        result = executor.result
        learner.episode_index = episode + 1
        try:
            checkpoint = learner.to_bytes()
        except NumericalError as exc:  # non-finite parameters
            raise LearnerDivergedError(episode, exc) from exc
        rows.append(_curve_row(result))
        path = checkpoint_path(out_dir, episode)
        try:
            write_action_trace(result, out_dir / "traces" / f"episode_{episode:04d}_actions.csv")
            write_learning_curve(rows, curve_path)
            replace_file(path, checkpoint)
            replace_file(latest_path, checkpoint)
        except OSError as exc:
            raise CheckpointWriteError(exc, last_good) from exc
        last_good = path
        results.append(result)
    return TrainOutcome(results, curve_path, last_good)


def _drop_uncommitted(out_dir: Path, episode: int) -> None:
    """Deletes what a stopped run leaves past its newest checkpoint: the
    temporary files of writes it never finished, which the manifest would
    hash, and the action traces of `episode` on, which a resume to fewer
    episodes would otherwise keep."""
    for folder in (out_dir, out_dir / "checkpoints", out_dir / "traces"):
        for path in folder.glob("*.tmp"):
            path.unlink()
    for path in (out_dir / "traces").glob("episode_*_actions.csv"):
        if _episode_of(path, "_actions.csv") >= episode:
            path.unlink()


def _read_curve_rows(path: Path, upto_episode: int) -> list:
    if not Path(path).is_file():
        return []
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if row and int(row[0]) < upto_episode:
                rows.append(row)
    return rows


@dataclass
class EvaluationOutcome:
    comparison: ExecutionComparison
    candidate: DDQLExecutionAgent
    baseline: TWAPExecutionAgent


def evaluate(setup: RunSetup, checkpoint: Path) -> EvaluationOutcome:
    """Greedy DDQL and TWAP runs of the episode after the checkpoint's, compared."""
    learner = LearnerState.load(checkpoint, setup.ddql, setup.seed)
    index = learner.episode_index
    candidate = DDQLExecutionAgent(setup.ddql, learner, epsilon=0.0, train_enabled=False)
    baseline = TWAPExecutionAgent(setup.ddql)
    run_episode(setup, index, candidate)
    run_episode(setup, index, baseline)
    comparison = execution_report(candidate.result, baseline.result)
    return EvaluationOutcome(comparison, candidate, baseline)


def write_action_trace(result: EpisodeResult, path: Path) -> None:
    rows = []
    for period, index in enumerate(result.action_trace):
        action = ActionSpace().decode(index)
        rows.append([period, index, action.multiplier, action.placement])
    replace_file(path, _csv_bytes(["period", "action_index", "multiplier", "placement"], rows))
