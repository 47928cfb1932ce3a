"""Tests for experiment orchestration: episode rosters, the training loop
with checkpoint/resume, and paired evaluation runs.

Sessions here are a few simulated seconds so whole training runs finish in
well under a second of wall time.
"""

import csv
import gc
import hashlib
import weakref

import pytest

from lobsim.agents import DDQLConfig, ExchangeAgent, LearnerState, TWAPExecutionAgent
from lobsim.book import BookSnapshot, Fill, Order, OrderKind, PriceLevel, Side
from lobsim.kernel import Agent, seconds
from lobsim.lobster import EventType, LobsterEvent, SyntheticFlowConfig
from lobsim.messages import (
    CancelOrder,
    LimitOrder,
    MarketDataQuery,
    MarketDataReply,
    MarketOrder,
    OrderAccepted,
    OrderCancelled,
    OrderExecuted,
)
from lobsim.metrics import execution_report
from lobsim.rl import ChildOrder, EpisodeResult, Experience, StateVector
from lobsim.training import (
    FLOW_STREAM,
    KERNEL_STREAM,
    LEARNING_CURVE_COLUMNS,
    CheckpointWriteError,
    DataSource,
    RunSetup,
    checkpoint_path,
    derive_seed,
    evaluate,
    latest_checkpoint,
    run_episode,
    train,
    write_action_trace,
    write_learning_curve,
)


def small_ddql(**overrides) -> DDQLConfig:
    base = dict(
        episodes=2,
        num_periods=5,
        period=seconds(1),
        session_start=seconds(100),
        session_end=seconds(105),
        hidden_sizes=(8,),
        dropout_rate=0.0,
        parent_quantity=50,
        min_experience=4,
        batch_size=4,
        train_every=2,
        target_sync_every=2,
        max_experience=64,
    )
    base.update(overrides)
    return DDQLConfig(**base)


def small_flow() -> SyntheticFlowConfig:
    return SyntheticFlowConfig(
        arrival_rate_per_side=8.0,
        size_gamma_shape=2.0,
        size_gamma_scale=30.0,
        initial_mid_ticks=10_000,
        session_start_ns=seconds(99),
        session_end_ns=seconds(106),
    )


def make_setup(out_dir, data_kind="synthetic", **overrides) -> RunSetup:
    ddql = overrides.pop("ddql", small_ddql())
    if data_kind == "synthetic":
        data = DataSource("synthetic", synthetic=small_flow())
    else:
        data = DataSource("none")
    base = dict(
        ddql=ddql,
        data=data,
        seed=7,
        out_dir=out_dir,
        warmup=seconds(1),
        post_margin=seconds(1),
        momentum_count=2,
    )
    base.update(overrides)
    return RunSetup(**base)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, KERNEL_STREAM, 3) == derive_seed(7, KERNEL_STREAM, 3)

    def test_distinct_across_streams_and_episodes(self):
        values = {
            derive_seed(base, stream, episode)
            for base in (0, 7)
            for stream in (KERNEL_STREAM, FLOW_STREAM)
            for episode in range(4)
        }
        assert len(values) == 16

    def test_fits_a_32_bit_seed(self):
        value = derive_seed(123, FLOW_STREAM, 9)
        assert 0 <= value < 2**32


class TestDataSource:
    def test_none_yields_no_events(self):
        assert DataSource("none").events_for_episode(0, 7) == []

    def test_synthetic_requires_flow_config(self):
        with pytest.raises(ValueError, match="flow config"):
            DataSource("synthetic").validate()

    def test_lobster_requires_paths(self):
        with pytest.raises(ValueError, match="at least one file"):
            DataSource("lobster").validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown data source"):
            DataSource("flat-file").validate()

    def test_synthetic_events_deterministic_per_episode(self):
        source = DataSource("synthetic", synthetic=small_flow())
        first = source.events_for_episode(0, base_seed=7)
        again = source.events_for_episode(0, base_seed=7)
        other = source.events_for_episode(1, base_seed=7)
        assert first == again
        assert first != other

    def test_synthetic_seed_comes_from_run_not_flow_config(self):
        # The flow config's own seed field is overridden per episode, so two
        # sources differing only there produce identical streams.
        from dataclasses import replace

        a = DataSource("synthetic", synthetic=small_flow())
        b = DataSource("synthetic", synthetic=replace(small_flow(), seed=999))
        assert a.events_for_episode(2, 7) == b.events_for_episode(2, 7)

    def test_lobster_paths_cycle_by_episode(self, tmp_path):
        first = tmp_path / "day1.csv"
        second = tmp_path / "day2.csv"
        first.write_text("100.000000000,1,11,21,1000000,1\n")
        second.write_text("100.000000000,1,22,21,1000000,1\n")
        source = DataSource("lobster", paths=[first, second])
        assert [e.order_id for e in source.events_for_episode(0, 7)] == [11]
        assert [e.order_id for e in source.events_for_episode(1, 7)] == [22]
        assert [e.order_id for e in source.events_for_episode(2, 7)] == [11]


class TestRunEpisode:
    def test_background_only_roster(self, tmp_path):
        outcome = run_episode(make_setup(tmp_path), 0, executor="none")
        assert outcome.result is None
        assert outcome.executor is None
        assert outcome.twap_twin is None
        assert isinstance(outcome.exchange, ExchangeAgent)
        assert len(outcome.log) > 0

    def test_ddql_needs_a_learner(self, tmp_path):
        with pytest.raises(ValueError, match="LearnerState"):
            run_episode(make_setup(tmp_path), 0, executor="ddql")

    def test_unknown_executor_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown executor"):
            run_episode(make_setup(tmp_path), 0, executor="vwap")

    def test_twap_run_returns_result_without_twin(self, tmp_path):
        outcome = run_episode(make_setup(tmp_path), 0, executor="twap")
        assert outcome.twap_twin is None
        assert outcome.result.parent_quantity == 50
        assert outcome.result.action_trace == [8] * 5

    def test_ddql_run_carries_twap_twin(self, tmp_path):
        setup = make_setup(tmp_path)
        learner = LearnerState(setup.ddql, seed=7)
        outcome = run_episode(setup, 0, learner, epsilon=0.0)
        assert isinstance(outcome.twap_twin, TWAPExecutionAgent)
        assert outcome.twap_twin.result.parent_quantity == 50
        assert len(outcome.result.action_trace) == 5

    def test_twin_can_be_disabled(self, tmp_path):
        setup = make_setup(tmp_path)
        learner = LearnerState(setup.ddql, seed=7)
        outcome = run_episode(setup, 0, learner, epsilon=0.0,
                              include_twap_twin=False)
        assert outcome.twap_twin is None

    def test_extra_agent_factory_sees_episode_index(self, tmp_path):
        calls = []

        def factory(episode):
            calls.append(episode)
            return []

        setup = make_setup(tmp_path, extra_agent_factory=factory)
        run_episode(setup, 3, executor="none")
        assert calls == [3]

    def test_episode_index_stamped_on_result(self, tmp_path):
        outcome = run_episode(make_setup(tmp_path), 2, executor="twap")
        assert outcome.result.episode == 2


class TestSeedAlignment:
    def test_kernel_seed_derived_per_episode(self, tmp_path):
        setup = make_setup(tmp_path)
        config = setup.kernel_config(3)
        assert config.rng_seed == derive_seed(7, KERNEL_STREAM, 3)
        assert setup.kernel_config(3) == config
        assert setup.kernel_config(4).rng_seed != config.rng_seed

    def test_identical_runs_are_identical(self, tmp_path):
        """Two fresh runs of the same episode must match record for record;
        paired DDQL/TWAP comparisons lean on this."""
        setup = make_setup(tmp_path)

        def run_once():
            learner = LearnerState(setup.ddql, seed=setup.seed)
            return run_episode(setup, 0, learner, epsilon=0.0,
                               train_enabled=False)

        first, second = run_once(), run_once()
        assert [r.to_json() for r in first.log.records] == \
            [r.to_json() for r in second.log.records]
        assert first.result.to_dict() == second.result.to_dict()

    def test_twap_control_reports_zero_distance(self, tmp_path):
        # Same episode run twice with the TWAP executor: byte-equal behavior,
        # so the comparison collapses to zero distance and equal slippage.
        setup = make_setup(tmp_path)
        a = run_episode(setup, 0, executor="twap")
        b = run_episode(setup, 0, executor="twap")
        comparison = execution_report(a.result, b.result)
        assert comparison.action_trace_distance == 0.0
        assert comparison.candidate["slippage"] == comparison.baseline["slippage"]


class TestTrain:
    def test_two_episodes_two_checkpoints_two_rows(self, tmp_path):
        setup = make_setup(tmp_path / "run")
        outcome = train(setup)
        assert len(outcome.results) == 2
        assert [r.episode for r in outcome.results] == [0, 1]
        assert checkpoint_path(setup.out_dir, 0).is_file()
        assert checkpoint_path(setup.out_dir, 1).is_file()
        assert outcome.last_checkpoint == checkpoint_path(setup.out_dir, 1)
        with open(outcome.learning_curve_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(LEARNING_CURVE_COLUMNS)
        assert len(rows) == 3
        assert [row[0] for row in rows[1:]] == ["0", "1"]

    def test_epsilon_follows_schedule(self, tmp_path):
        setup = make_setup(tmp_path / "run")
        outcome = train(setup)
        expected = [setup.ddql.epsilon_for_episode(i) for i in range(2)]
        assert [r.final_epsilon for r in outcome.results] == expected

    def test_latest_checkpoint_mirrors_newest(self, tmp_path):
        setup = make_setup(tmp_path / "run")
        outcome = train(setup)
        latest = setup.out_dir / "checkpoints" / "latest.ckpt"
        assert latest.read_bytes() == outcome.last_checkpoint.read_bytes()

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        """Training 4 episodes straight and training 2 + 2 through a resume
        must produce byte-identical checkpoints and learning curves."""
        straight = make_setup(tmp_path / "straight", ddql=small_ddql(episodes=4))
        train(straight)

        resumed_dir = tmp_path / "resumed"
        train(make_setup(resumed_dir, ddql=small_ddql(episodes=2)))
        train(make_setup(resumed_dir, ddql=small_ddql(episodes=4)), resume=True)

        final = "checkpoints/episode_0003.ckpt"
        assert (resumed_dir / final).read_bytes() == \
            (straight.out_dir / final).read_bytes()
        assert (resumed_dir / "learning_curve.csv").read_bytes() == \
            (straight.out_dir / "learning_curve.csv").read_bytes()

    def test_resume_without_checkpoints_starts_fresh(self, tmp_path):
        setup = make_setup(tmp_path / "run")
        outcome = train(setup, resume=True)
        assert len(outcome.results) == 2

    def test_checkpoint_write_failure_reports_last_good(self, tmp_path):
        setup = make_setup(tmp_path / "run")
        # A directory squatting on the checkpoint path forces an OSError on
        # the first write, before any good checkpoint exists.
        checkpoint_path(setup.out_dir, 0).mkdir(parents=True)
        with pytest.raises(CheckpointWriteError, match="last good: None"):
            train(setup)

    def test_empty_market_leaves_loss_and_slippage_blank(self, tmp_path):
        # No background flow and a huge replay-buffer floor: nothing fills
        # and nothing trains, so those curve cells stay empty.
        setup = make_setup(tmp_path / "run", data_kind="none",
                           ddql=small_ddql(episodes=1, min_experience=50))
        outcome = train(setup)
        with open(outcome.learning_curve_path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, row = rows[0], rows[1]
        assert row[header.index("slippage")] == ""
        assert row[header.index("loss_mean")] == ""
        assert row[header.index("filled_quantity")] == "0"


class TestMemory:
    """Episodes free what they made: no cycles, no finished episode held."""

    def test_training_episode_leaves_no_cyclic_garbage(self, tmp_path):
        setup = make_setup(tmp_path)
        learner = LearnerState(setup.ddql, seed=7)
        gc.collect()
        gc.disable()
        try:
            outcome = run_episode(setup, 0, learner, epsilon=0.5)
            assert outcome.result.train_steps > 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_dropped_episode_is_freed_by_reference_counting(self, tmp_path):
        setup = make_setup(tmp_path)
        learner = LearnerState(setup.ddql, seed=7)
        gc.collect()
        gc.disable()
        try:
            outcome = run_episode(setup, 0, learner, epsilon=0.5)
            exchange = weakref.ref(outcome.exchange)
            del outcome
            assert exchange() is None
        finally:
            gc.enable()

    def test_train_holds_no_finished_episode(self, tmp_path):
        previous = []
        freed = []

        class Probe(Agent):
            def on_start(self, kernel):
                gc.collect()
                freed.append(all(ref() is None for ref in previous))
                previous.append(weakref.ref(self))

        setup = make_setup(tmp_path / "run", ddql=small_ddql(episodes=3),
                           extra_agent_factory=lambda episode: [Probe()])
        train(setup)
        assert freed == [True, True, True]

    STATE = StateVector(0.5, 0.5, 1.0, 0.0, 0.0, 0.0)
    SNAPSHOT = BookSnapshot(((99, 10),), ((101, 5),), 100)

    @pytest.mark.parametrize("make", [
        lambda: Order(1, 0, Side.BID, 100, 5),
        lambda: Fill(1, 2, 100, 5, 0),
        lambda: TestMemory.SNAPSHOT,
        lambda: PriceLevel(100),
        lambda: LimitOrder(1, Side.BID, 5, 100),
        lambda: MarketOrder(1, Side.ASK, 5),
        lambda: CancelOrder(1),
        lambda: OrderAccepted(1),
        lambda: OrderExecuted(1, 5, 100),
        lambda: OrderCancelled(1, 5),
        lambda: MarketDataQuery(),
        lambda: MarketDataReply(TestMemory.SNAPSHOT),
        lambda: LobsterEvent(0, EventType.NEW_LIMIT, 1, 5, 100, 1),
        lambda: TestMemory.STATE,
        lambda: Experience(TestMemory.STATE, 0, 1.0, TestMemory.STATE, False),
        lambda: ChildOrder(OrderKind.LIMIT, Side.BID, 5, 100),
    ], ids=lambda make: type(make()).__name__)
    def test_per_event_types_carry_no_dict(self, make):
        assert not hasattr(make(), "__dict__")


class TestLatestCheckpoint:
    def test_missing_directory(self, tmp_path):
        assert latest_checkpoint(tmp_path / "nowhere") is None

    def test_picks_highest_episode_and_ignores_latest_alias(self, tmp_path):
        folder = tmp_path / "checkpoints"
        folder.mkdir()
        for name in ("episode_0000.ckpt", "episode_0002.ckpt",
                     "episode_0010.ckpt", "latest.ckpt"):
            (folder / name).write_bytes(b"x")
        assert latest_checkpoint(tmp_path) == folder / "episode_0010.ckpt"


class TestEvaluate:
    def test_paired_runs_and_read_only_checkpoint(self, tmp_path):
        setup = make_setup(tmp_path / "run", ddql=small_ddql(episodes=1))
        outcome = train(setup)
        ckpt = outcome.last_checkpoint
        digest_before = hashlib.sha256(ckpt.read_bytes()).hexdigest()

        evaluation = evaluate(setup, ckpt)
        assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == digest_before
        assert evaluation.candidate.result.final_epsilon == 0.0
        assert evaluation.candidate.result.train_steps == 0
        assert evaluation.baseline.result.action_trace == [8] * 5
        assert evaluation.comparison.action_trace_distance >= 0.0
        body = evaluation.comparison.to_dict()
        assert body["candidate"]["fill_ratio"] == \
            evaluation.candidate.result.fill_ratio

    def test_explicit_episode_override(self, tmp_path):
        setup = make_setup(tmp_path / "run", ddql=small_ddql(episodes=1))
        ckpt = train(setup).last_checkpoint
        evaluation = evaluate(setup, ckpt, episode=5)
        assert evaluation.candidate.result.episode == 5
        assert evaluation.baseline.result.episode == 5

    def test_evaluation_is_deterministic(self, tmp_path):
        setup = make_setup(tmp_path / "run", ddql=small_ddql(episodes=1))
        ckpt = train(setup).last_checkpoint
        first = evaluate(setup, ckpt)
        second = evaluate(setup, ckpt)
        assert first.comparison.to_dict() == second.comparison.to_dict()


class TestWriters:
    def test_learning_curve_row_values(self, tmp_path):
        result = EpisodeResult(
            episode=3, parent_quantity=100, total_reward=1.5,
            filled_quantity=80, fill_vwap=101.0, arrival_price=100.0,
            final_epsilon=0.5, losses=[1.0, 3.0],
        )
        path = tmp_path / "curve.csv"
        from lobsim.training import _curve_row

        write_learning_curve([_curve_row(result)], path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(LEARNING_CURVE_COLUMNS)
        assert rows[1] == ["3", "1.5", "80", "0.01", "0.5", "2.0"]

    def test_action_trace_csv(self, tmp_path):
        result = EpisodeResult(episode=0, parent_quantity=10,
                               action_trace=[0, 8, 23])
        path = tmp_path / "trace.csv"
        write_action_trace(result, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["period", "action_index", "multiplier", "placement"]
        assert rows[1] == ["0", "0", "0.1", "0"]
        assert rows[2] == ["1", "8", "1.0", "0"]
        assert rows[3] == ["2", "23", "2.5", "3"]
