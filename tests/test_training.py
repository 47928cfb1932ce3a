"""Tests for experiment orchestration: episode rosters, the training loop
with checkpoint/resume, and paired evaluation runs.

Sessions here are a few simulated seconds so whole training runs finish in
well under a second of wall time.
"""

import csv
import gc
import hashlib
import os
import weakref
from dataclasses import replace

import pytest

from lobsim import lobster, training
from lobsim.agents import (
    DDQLConfig,
    DDQLExecutionAgent,
    ExchangeAgent,
    LearnerState,
    TWAPExecutionAgent,
)
from lobsim.book import BookSnapshot, Fill, Order, OrderBook, OrderKind, PriceLevel, Side
from lobsim.kernel import AgentFault, seconds
from lobsim.lobster import (
    CHUNK_ROWS,
    EventType,
    FlowHelperError,
    LobsterEvent,
    SyntheticFlowConfig,
    generate_synthetic,
    parse_message_file,
)
from lobsim.messages import (
    CancelOrder,
    LimitOrder,
    MarketDataQuery,
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
        assert len(DataSource("none").events_for_episode(0, 7)) == 0

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
        first = DataSource("synthetic", synthetic=small_flow()).events_for_episode(0, 7)
        again = DataSource("synthetic", synthetic=small_flow()).events_for_episode(0, 7)
        other = DataSource("synthetic", synthetic=small_flow()).events_for_episode(1, 7)
        assert first is not again
        assert first == again
        assert first != other

    def test_the_last_flow_is_made_once(self, flows_made):
        source = DataSource("synthetic", synthetic=small_flow())
        first = source.events_for_episode(0, 7)
        assert source.events_for_episode(0, 7) is first
        assert len(flows_made) == 1
        del first
        other = source.events_for_episode(1, 7)
        assert source.events_for_episode(1, 7) is other
        assert len(flows_made) == 2

    def test_a_lobster_file_is_parsed_once_for_every_episode(self, tmp_path, monkeypatch):
        day = tmp_path / "day.csv"
        day.write_text("100.000000000,1,11,21,1000000,1\n")
        parsed = []

        def counted(path):
            parsed.append(path)
            return parse_message_file(path)

        monkeypatch.setattr(training, "parse_message_file", counted)
        source = DataSource("lobster", paths=[day])
        flows = [source.events_for_episode(episode, 7) for episode in range(3)]
        assert parsed == [day]
        assert list(flows[0].id) == [11]

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


@pytest.fixture
def twins(monkeypatch):
    """The TWAP twins that run_episode adds to the rosters of a test."""
    made = []

    class RecordedTWAP(TWAPExecutionAgent):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(training, "TWAPExecutionAgent", RecordedTWAP)
    return made


def ddql_agent(setup, epsilon=0.0, train_enabled=True) -> DDQLExecutionAgent:
    return DDQLExecutionAgent(setup.ddql, LearnerState(setup.ddql, seed=7),
                              epsilon=epsilon, train_enabled=train_enabled)


class TestRunEpisode:
    def test_background_only_roster(self, tmp_path, twins):
        outcome = run_episode(make_setup(tmp_path), 0)
        assert twins == []
        assert isinstance(outcome.exchange, ExchangeAgent)
        assert len(outcome.log) > 0
        assert len(outcome.log.final_states) == 4  # exchange, replay, 2 momentum

    def test_executor_joins_the_roster_last(self, tmp_path):
        agent = TWAPExecutionAgent(small_ddql())
        outcome = run_episode(make_setup(tmp_path), 0, agent)
        assert agent.agent_id == len(outcome.log.final_states) - 1
        assert outcome.log.final_states[agent.agent_id] == agent.state_summary()

    def test_twap_run_returns_result_without_twin(self, tmp_path, twins):
        agent = TWAPExecutionAgent(small_ddql())
        run_episode(make_setup(tmp_path), 0, agent)
        assert twins == []
        assert agent.result.parent_quantity == 50
        assert agent.result.action_trace == [8] * 5

    def test_ddql_run_carries_twap_twin(self, tmp_path, twins):
        setup = make_setup(tmp_path)
        agent = ddql_agent(setup)
        run_episode(setup, 0, agent)
        [twin] = twins
        assert twin.name == "twap-benchmark"
        assert twin.result.parent_quantity == 50
        assert len(twin.result.action_trace) == 5
        assert len(agent.result.action_trace) == 5

    def test_vwaps_are_the_mean_of_the_executions_received(self, tmp_path, twins):
        # a parent large enough that both executors trade at several prices
        setup = make_setup(tmp_path, ddql=small_ddql(parent_quantity=500))
        agent = ddql_agent(setup, epsilon=1.0)
        outcome = run_episode(setup, 0, agent)
        for trader in (agent, *twins):
            fills = [r.payload for r in outcome.log.records
                     if r.recipient_id == trader.agent_id and isinstance(r.payload, OrderExecuted)]
            assert len({f.price for f in fills}) > 1
            assert trader.result.fill_vwap == \
                sum(f.quantity * f.price for f in fills) / sum(f.quantity for f in fills)

    def test_only_a_training_episode_carries_the_twin(self, tmp_path, twins):
        setup = make_setup(tmp_path)
        run_episode(setup, 0, ddql_agent(setup, train_enabled=False))
        assert twins == []

    @pytest.mark.xfail(strict=True, reason="with no mid at the first period the arrival "
                       "price is the parent quantity, a share count; taking the first mid "
                       "moves the rewards of the benchmark's learn_dense runs, so the fix "
                       "waits for new digests")
    def test_arrival_price_is_the_first_mid_seen(self, tmp_path):
        # the flow starts 2 s after the executor's session: no mid at period 0
        flow = replace(small_flow(), session_start_ns=seconds(102))
        setup = make_setup(tmp_path, data=DataSource("synthetic", synthetic=flow))
        agent = ddql_agent(setup, epsilon=1.0)
        outcome = run_episode(setup, 0, agent)
        mids = [r.payload.mid_price for r in outcome.log.records
                if r.recipient_id == agent.agent_id and isinstance(r.payload, BookSnapshot)]
        assert mids[0] is None
        assert agent.result.arrival_price == next(mid for mid in mids if mid is not None)

    def test_episode_index_stamped_on_result(self, tmp_path):
        agent = TWAPExecutionAgent(small_ddql())
        run_episode(make_setup(tmp_path), 2, agent)
        assert agent.result.episode == 2


def assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class FailingTWAP(TWAPExecutionAgent):
    """Raises at its second period, after the replay has begun."""

    def on_wakeup(self, now):
        if self.result.action_trace:
            raise RuntimeError("mid-episode")
        super().on_wakeup(now)


class TestHelperLifetime:
    """The day's helper is reaped at the end of every run, and a run that
    aborts neither hangs nor keeps a cut day."""

    def dense_setup(self, tmp_path) -> RunSetup:
        flow = replace(small_flow(), arrival_rate_per_side=1000.0)  # about 14k rows
        return make_setup(tmp_path, data=DataSource("synthetic", synthetic=flow))

    def replayed_total(self, outcome) -> int:
        return outcome.log.final_states[1]["events_total"]

    def test_a_finished_run_replays_the_whole_day(self, tmp_path):
        setup = self.dense_setup(tmp_path)
        outcome = run_episode(setup, 0)
        assert_no_child()
        day = replace(setup.data.synthetic, seed=derive_seed(7, FLOW_STREAM, 0))
        assert self.replayed_total(outcome) == len(generate_synthetic(day)) > 2 * CHUNK_ROWS

    def test_an_empty_day_registers_no_replay_agent(self, tmp_path):
        flow = replace(small_flow(), session_end_ns=seconds(99) + 1_000)
        setup = make_setup(tmp_path, data=DataSource("synthetic", synthetic=flow))
        outcome = run_episode(setup, 0)
        assert_no_child()
        assert "events_total" not in str(outcome.log.final_states)
        assert len(outcome.log.final_states) == 3  # exchange, 2 momentum

    def test_an_agent_fault_reaps_the_helper_and_drops_the_day(self, tmp_path):
        setup = self.dense_setup(tmp_path)
        with pytest.raises(AgentFault) as excinfo:
            run_episode(setup, 0, FailingTWAP(small_ddql(), name="failing"))
        assert excinfo.value.agent_name == "failing"
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert_no_child()
        assert setup.data._last is None
        assert self.replayed_total(run_episode(setup, 0)) == \
            self.replayed_total(run_episode(self.dense_setup(tmp_path), 0))

    @pytest.mark.parametrize("failure, reason", [("raise", "RuntimeError: helper fault"),
                                                 ("sigkill", "killed by signal 9")])
    def test_a_lost_helper_ends_the_run_with_its_error(self, tmp_path, monkeypatch,
                                                       failure, reason):
        generate = lobster.generate_synthetic

        def failing(config, on_chunk):  # runs in the helper: the second chunk is never sent
            def send(flow):
                if len(flow) > CHUNK_ROWS:
                    if failure == "sigkill":
                        os.kill(os.getpid(), 9)
                    raise RuntimeError("helper fault")
                on_chunk(flow)
            return generate(config, on_chunk=send)

        monkeypatch.setattr(lobster, "generate_synthetic", failing)
        setup = self.dense_setup(tmp_path)
        with pytest.raises(FlowHelperError, match=reason):
            run_episode(setup, 0)
        assert_no_child()
        assert setup.data._last is None


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
            agent = ddql_agent(setup, train_enabled=False)
            return agent, run_episode(setup, 0, agent)

        (first, first_run), (second, second_run) = run_once(), run_once()
        assert [r.to_json() for r in first_run.log.records] == \
            [r.to_json() for r in second_run.log.records]
        assert first.result.to_dict() == second.result.to_dict()

    def test_twap_control_reports_zero_distance(self, tmp_path):
        # Same episode run twice with the TWAP executor: byte-equal behavior,
        # so the comparison collapses to zero distance and equal slippage.
        setup = make_setup(tmp_path)
        a, b = TWAPExecutionAgent(setup.ddql), TWAPExecutionAgent(setup.ddql)
        run_episode(setup, 0, a)
        run_episode(setup, 0, b)
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


def output_bytes(out_dir) -> dict:
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


class TestStopAndResume:
    """A run stopped between two of its writes and then resumed writes the
    straight run's bytes: the learning curve, every checkpoint, latest.ckpt
    and every action trace."""

    WRITES = 12  # per episode: its trace, the curve, its checkpoint, latest.ckpt

    @pytest.fixture(scope="class")
    def straight(self, tmp_path_factory):
        setup = make_setup(tmp_path_factory.mktemp("straight"), ddql=small_ddql(episodes=3))
        train(setup)
        return output_bytes(setup.out_dir)

    @pytest.mark.parametrize("stop_after", range(1, WRITES))
    def test_stop_after_a_write_then_resume(self, tmp_path, monkeypatch, straight,
                                            stop_after):
        # only checkpoints used to go through os.replace, and the save's
        # clean-up turned a stop right after one into a FileNotFoundError
        real_replace, writes = os.replace, []

        def replace_then_stop(src, dst):
            real_replace(src, dst)
            writes.append(dst)
            if len(writes) == stop_after:
                raise SystemExit(f"stopped after write {stop_after}")

        setup = make_setup(tmp_path / "run", ddql=small_ddql(episodes=3))
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", replace_then_stop)
            with pytest.raises(SystemExit):
                train(setup)
        train(setup, resume=True)
        assert output_bytes(setup.out_dir) == straight

    def test_stop_in_place_of_episode_1_curve_row_keeps_the_row(self, tmp_path, monkeypatch,
                                                                straight):
        # the checkpoint used to be saved before the curve row, so this stop
        # left episode 1 checkpointed without its row, and a resume lost it
        real_write = training.write_learning_curve

        def write_or_stop(rows, path):
            if len(rows) == 2:
                raise SystemExit("stopped")
            real_write(rows, path)

        setup = make_setup(tmp_path / "run", ddql=small_ddql(episodes=3))
        with monkeypatch.context() as patch:
            patch.setattr(training, "write_learning_curve", write_or_stop)
            with pytest.raises(SystemExit):
                train(setup)
        train(setup, resume=True)
        with open(setup.out_dir / "learning_curve.csv", newline="") as fh:
            assert [row[0] for row in csv.reader(fh)][1:] == ["0", "1", "2"]
        assert output_bytes(setup.out_dir) == straight

    def test_resume_deletes_temporary_files_a_kill_left(self, tmp_path, straight):
        # a kill inside a write leaves its temporary file, which a resume
        # used to keep and the manifest to hash
        setup = make_setup(tmp_path / "run", ddql=small_ddql(episodes=1))
        train(setup)
        for name in ("checkpoints/episode_0001.ckptk1ll.tmp", "learning_curve.csvk1ll.tmp",
                     "traces/episode_0001_actions.csvk1ll.tmp"):
            (setup.out_dir / name).write_bytes(b"cut short")
        train(replace(setup, ddql=small_ddql(episodes=3)), resume=True)
        assert output_bytes(setup.out_dir) == straight

    def test_resume_to_fewer_episodes_deletes_the_stopped_episode_trace(
            self, tmp_path, monkeypatch, straight):
        # episode 3 of 4 wrote its trace and stopped; a resume as a
        # 3-episode run used to keep that trace
        real_write = training.write_learning_curve

        def write_or_stop(rows, path):
            if len(rows) == 4:
                raise SystemExit("stopped")
            real_write(rows, path)

        setup = make_setup(tmp_path / "run", ddql=small_ddql(episodes=4))
        with monkeypatch.context() as patch:
            patch.setattr(training, "write_learning_curve", write_or_stop)
            with pytest.raises(SystemExit):
                train(setup)
        assert (setup.out_dir / "traces" / "episode_0003_actions.csv").is_file()
        train(replace(setup, ddql=small_ddql(episodes=3)), resume=True)
        assert output_bytes(setup.out_dir) == straight


class TestMemory:
    """Episodes free what they made: no cycles, no finished episode held."""

    def test_training_episode_leaves_no_cyclic_garbage(self, tmp_path):
        setup = make_setup(tmp_path)
        agent = ddql_agent(setup, epsilon=0.5)
        gc.collect()
        gc.disable()
        try:
            run_episode(setup, 0, agent)
            assert agent.result.train_steps > 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_dropped_episode_is_freed_by_reference_counting(self, tmp_path):
        setup = make_setup(tmp_path)
        agent = ddql_agent(setup, epsilon=0.5)
        gc.collect()
        gc.disable()
        try:
            outcome = run_episode(setup, 0, agent)
            exchange = weakref.ref(outcome.exchange)
            del outcome
            assert exchange() is None
        finally:
            gc.enable()

    def test_train_holds_no_finished_episode(self, tmp_path, monkeypatch):
        previous = []
        freed = []

        class ProbeExchange(ExchangeAgent):
            def on_start(self, kernel):
                gc.collect()
                freed.append(all(ref() is None for ref in previous))
                previous.append(weakref.ref(self))

        monkeypatch.setattr(training, "ExchangeAgent", ProbeExchange)
        setup = make_setup(tmp_path / "run", ddql=small_ddql(episodes=3))
        train(setup)
        assert freed == [True, True, True]

    def test_train_makes_one_flow_per_episode(self, tmp_path, flows_made):
        train(make_setup(tmp_path / "run", ddql=small_ddql(episodes=3)))
        assert len(flows_made) == 3

    STATE = StateVector(0.5, 0.5, 1.0, 0.0, 0.0, 0.0)
    SNAPSHOT = BookSnapshot(((99, 10),), ((101, 5),), 100)

    @pytest.mark.parametrize("make", [
        lambda: Order(1, 0, Side.BID, 100, 5),
        lambda: Fill(1, 2, 100, 5, 0),
        lambda: TestMemory.SNAPSHOT,
        lambda: PriceLevel(),
        lambda: LimitOrder(1, Side.BID, 5, 100),
        lambda: MarketOrder(1, Side.ASK, 5),
        lambda: CancelOrder(1),
        lambda: OrderAccepted(1),
        lambda: OrderExecuted(1, 5, 100),
        lambda: OrderCancelled(1, 5),
        lambda: MarketDataQuery(),
        pytest.param(lambda: OrderBook().snapshot(1), id="market_data_reply"),
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

    def test_orders_by_episode_past_the_padding(self, tmp_path):
        # the names sort as text with 9999 after 10000
        folder = tmp_path / "checkpoints"
        folder.mkdir()
        for name in ("episode_9999.ckpt", "episode_10000.ckpt"):
            (folder / name).touch()
        assert latest_checkpoint(tmp_path) == folder / "episode_10000.ckpt"

    def test_resume_drops_traces_by_episode_past_the_padding(self, tmp_path):
        # the traces share the checkpoints' names and their ordering
        traces = tmp_path / "traces"
        traces.mkdir()
        for name in ("episode_9999_actions.csv", "episode_10000_actions.csv",
                     "episode_10001_actions.csv"):
            (traces / name).touch()
        training._drop_uncommitted(tmp_path, 10_000)
        assert sorted(p.name for p in traces.iterdir()) == ["episode_9999_actions.csv"]


class TestEvaluate:
    def test_paired_runs_and_read_only_checkpoint(self, tmp_path):
        setup = make_setup(tmp_path / "run", ddql=small_ddql(episodes=1))
        outcome = train(setup)
        ckpt = outcome.last_checkpoint
        digest_before = hashlib.sha256(ckpt.read_bytes()).hexdigest()

        evaluation = evaluate(setup, ckpt)
        assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == digest_before
        assert isinstance(evaluation.candidate, DDQLExecutionAgent)
        assert isinstance(evaluation.baseline, TWAPExecutionAgent)
        assert evaluation.candidate.result.final_epsilon == 0.0
        assert evaluation.candidate.result.train_steps == 0
        # both run the episode after the checkpoint's last
        assert evaluation.candidate.result.episode == evaluation.baseline.result.episode == 1
        assert evaluation.baseline.result.action_trace == [8] * 5
        assert evaluation.comparison.action_trace_distance >= 0.0
        assert evaluation.comparison.candidate["fill_ratio"] == \
            evaluation.candidate.result.fill_ratio

    def test_candidate_and_baseline_share_one_flow(self, tmp_path, flows_made):
        setup = make_setup(tmp_path / "run", ddql=small_ddql(episodes=1))
        ckpt = train(setup).last_checkpoint
        flows_made.clear()
        evaluate(make_setup(tmp_path / "run", ddql=small_ddql(episodes=1)), ckpt)
        assert len(flows_made) == 1

    def test_evaluation_is_deterministic(self, tmp_path):
        setup = make_setup(tmp_path / "run", ddql=small_ddql(episodes=1))
        ckpt = train(setup).last_checkpoint
        first = evaluate(setup, ckpt)
        second = evaluate(setup, ckpt)
        assert first.comparison == second.comparison


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
