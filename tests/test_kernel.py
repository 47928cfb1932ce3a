"""Kernel event loop: delivery order, timing arithmetic, and failure modes."""

import gc
import json
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest

from lobsim import (
    Agent,
    AgentFault,
    KernelConfig,
    KernelError,
    SchedulingError,
    UnknownRecipientError,
    build_kernel,
    run_simulation,
    seconds,
    time_from_str,
    time_to_str,
)

from lobsim.book import BookSnapshot, Side
from lobsim.kernel import Kernel, LogRecord, SimulationLog, Wakeup
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

from kernel_script import (
    Ping,
    ScriptAgent,
    check_schedule,
    expected_log,
    flatten,
    observed_log,
    random_scripts,
    run_scripts,
)


def config(start=0, stop=1_000_000, **kw) -> KernelConfig:
    return KernelConfig(start_time=start, stop_time=stop, **kw)


class TestTimeHelpers:
    def test_parse_session_open(self):
        assert time_from_str("09:30:00") == 34_200_000_000_000

    def test_parse_fraction_pads_to_nanos(self):
        assert time_from_str("00:00:01.5") == 1_500_000_000

    def test_round_trip(self):
        t = time_from_str("13:07:42.000000123")
        assert time_to_str(t) == "13:07:42.000000123"

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            time_from_str("9h30")

    def test_single_digit_hours_and_the_last_second(self):
        assert time_from_str("9:30:00") == time_from_str("09:30:00")
        assert time_from_str("23:59:59.999999999") == 24 * 3600 * 10**9 - 1

    @pytest.mark.parametrize("text", ["10:75:00", "09:30:99", "09:60:00", "09:30:60"])
    def test_rejects_minutes_or_seconds_of_60_or_more(self, text):
        # each used to carry into the next field: "10:75:00" meant 11:15:00
        with pytest.raises(ValueError, match="below 60"):
            time_from_str(text)

    @pytest.mark.parametrize("text", ["9:-5:00", "10:00:00.-5", "+9:30:00", "09:30:+5",
                                      "09:30:1_0", "09: 30:00", "10:00:00.", "１0:00:00"])
    def test_rejects_fields_that_are_not_unsigned_digits(self, text):
        # int() took each: "9:-5:00" meant 08:55:00, "10:00:00.-5" 09:59:59.95
        with pytest.raises(ValueError, match="decimal digits"):
            time_from_str(text)

    def test_seconds(self):
        assert seconds(1.5) == 1_500_000_000


class TestConfigValidation:
    def test_start_must_precede_stop(self):
        with pytest.raises(ValueError):
            KernelConfig(start_time=10, stop_time=10).validate()

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            config(latency_nanos=-1).validate()


class TestDeliveryOrder:
    def test_same_time_wakeups_fifo_by_registration(self):
        # agents 3 and 5 both wake at t=500; 3 scheduled first so 3 delivers first
        scripts = [[] for _ in range(6)]
        scripts[3] = [(500, [])]
        scripts[5] = [(500, [])]
        log, _ = run_scripts(scripts, config())
        assert [(r.time, r.recipient_id) for r in log.records] == [(500, 3), (500, 5)]

    def test_message_delivery_sums_delay_and_latency(self):
        # sent at t=10_000 with delay 50 and latency 1000 -> delivered 11_050
        scripts = [[(10_000, [(1, 7)])], []]
        log, agents = run_scripts(scripts, config(latency_nanos=1_000, computation_delay_nanos=50))
        assert agents[1].seen == [(11_050, "ping", 7)]

    def test_earlier_delivery_wins_over_insertion(self):
        # agent 1's wakeup at 200 is enqueued at start, before agent 0 sends
        # its ping at 50; the ping lands at 105 and is delivered first
        scripts = [[(50, [(1, 7)])], [(200, [])]]
        log, agents = run_scripts(scripts, config(latency_nanos=55))
        assert [(r.time, r.recipient_id, r.tag) for r in log.records] == \
            [(50, 0, "wakeup"), (105, 1, "ping"), (200, 1, "wakeup")]
        assert agents[1].seen == [(105, "ping", 7), (200, "wakeup", -1)]

    def test_wakeup_past_stop_never_delivered(self):
        scripts = [[(999, []), (1_000_001, [])]]
        log, agents = run_scripts(scripts, config(stop=1_000_000))
        assert agents[0].seen == [(999, "wakeup", -1)]
        assert len(log) == 1

    def test_message_past_stop_never_delivered(self):
        # wakeup inside horizon, ping lands beyond it
        cfg = config(stop=1_000, latency_nanos=500)
        scripts = [[(800, [(1, 3)])], []]
        _, agents = run_scripts(scripts, cfg)
        assert agents[1].seen == []

    def test_empty_roster_runs_clean(self):
        log = run_simulation(config(), [])
        assert len(log) == 0
        assert log.final_states == {}

    def test_single_wakeup(self):
        log, _ = run_scripts([[(42, [])]], config())
        assert [(r.time, r.tag) for r in log.records] == [(42, "wakeup")]


class TestFailureModes:
    def test_past_wakeup_raises(self):
        kernel = build_kernel(config(start=1_000), [Agent()])
        with pytest.raises(SchedulingError):
            kernel.schedule_wakeup(0, 999)

    def test_unknown_recipient_raises(self):
        kernel = build_kernel(config(), [Agent()])
        with pytest.raises(UnknownRecipientError):
            kernel.send(0, 5, Ping(0))

    def test_unregistered_sender_raises(self):
        kernel = build_kernel(config(), [Agent()])
        with pytest.raises(KernelError):
            kernel.schedule_wakeup(3, 10)

    def test_agent_exception_wrapped_with_identity(self):
        class Faulty(Agent):
            def on_start(self, kernel):
                kernel.schedule_wakeup(self.agent_id, 5)

            def on_wakeup(self, now):
                raise ValueError("broken")

        with pytest.raises(AgentFault) as excinfo:
            run_simulation(config(), [Faulty(name="bad-actor")])
        assert excinfo.value.agent_id == 0
        assert "bad-actor" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_register_while_running_rejected(self):
        class Sneaky(Agent):
            def on_start(self, kernel):
                kernel.schedule_wakeup(self.agent_id, 5)

            def on_wakeup(self, now):
                self.kernel.register(Agent())

        with pytest.raises(KernelError, match="while running"):
            run_simulation(config(), [Sneaky()])

    def test_agent_id_past_the_int16_log_columns_is_refused(self):
        # used to be accepted; the log's sender and recipient columns are int16
        kernel = Kernel(config())
        for _ in range(32_767):
            kernel.register(Agent())
        assert kernel.agents[-1].agent_id == 32_766
        with pytest.raises(KernelError, match="at most 32767 agents"):
            kernel.register(Agent())
        assert len(kernel.agents) == 32_767


class TestGarbageCollector:
    """Kernel.run pauses the cyclic collector and restores its state."""

    class Probe(Agent):
        def __init__(self, fail=False):
            super().__init__()
            self.fail = fail
            self.enabled_in_wakeup = None

        def on_start(self, kernel):
            kernel.schedule_wakeup(self.agent_id, 5)

        def on_wakeup(self, now):
            self.enabled_in_wakeup = gc.isenabled()
            if self.fail:
                raise ValueError("broken")

    @pytest.fixture(autouse=True)
    def collector_enabled(self):
        gc.enable()
        yield
        gc.enable()

    def test_paused_during_delivery_and_enabled_after(self):
        probe = self.Probe()
        run_simulation(config(), [probe])
        assert probe.enabled_in_wakeup is False
        assert gc.isenabled()

    def test_enabled_again_after_an_agent_fault(self):
        probe = self.Probe(fail=True)
        with pytest.raises(AgentFault):
            run_simulation(config(), [probe])
        assert probe.enabled_in_wakeup is False
        assert gc.isenabled()

    def test_caller_that_disabled_it_finds_it_disabled(self):
        gc.disable()
        probe = self.Probe()
        run_simulation(config(), [probe])
        assert probe.enabled_in_wakeup is False
        assert not gc.isenabled()


class TestDeterminism:
    def test_identical_runs_produce_identical_logs(self):
        cfg = config(latency_nanos=100, rng_seed=11)
        rng = np.random.default_rng(0)
        scripts = random_scripts(rng, 3, cfg)
        log_a, _ = run_scripts(scripts, cfg)
        log_b, _ = run_scripts(scripts, cfg)
        assert [r.to_json() for r in log_a.records] == [r.to_json() for r in log_b.records]
        assert log_a.final_states == log_b.final_states

    def test_agent_rngs_are_seeded_and_distinct(self):
        roster_a = [Agent(), Agent()]
        roster_b = [Agent(), Agent()]
        build_kernel(config(rng_seed=7), roster_a)
        build_kernel(config(rng_seed=7), roster_b)
        draws_a = [agent.rng.integers(0, 1 << 30, size=4).tolist() for agent in roster_a]
        draws_b = [agent.rng.integers(0, 1 << 30, size=4).tolist() for agent in roster_b]
        assert draws_a == draws_b
        assert draws_a[0] != draws_a[1]

    def test_final_states_collected(self):
        class Counting(Agent):
            def __init__(self):
                super().__init__()
                self.n = 0

            def on_start(self, kernel):
                kernel.schedule_wakeup(self.agent_id, 1)
                kernel.schedule_wakeup(self.agent_id, 2)

            def on_wakeup(self, now):
                self.n += 1

            def state_summary(self):
                return {"wakeups": self.n}

        log = run_simulation(config(), [Counting()])
        assert log.final_states == {0: {"wakeups": 2}}

    def test_log_jsonl_round_trip(self, tmp_path):
        log, _ = run_scripts([[(5, [(0, 1)])]], config(latency_nanos=10))
        path = tmp_path / "log.jsonl"
        log.to_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(log) + 1
        assert "final_states" in lines[-1]


class TestScriptedOracle:
    """Randomized rosters checked against the sort-based delivery oracle."""

    @pytest.mark.parametrize("seed", range(60))
    def test_delivery_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        cfg = config(
            start=1_000,
            stop=1_000 + int(rng.integers(500, 5_000)),
            latency_nanos=int(rng.choice([0, 1, 777])),
            computation_delay_nanos=int(rng.choice([0, 50])),
        )
        n_agents = int(rng.integers(2, 5))
        check_schedule(random_scripts(rng, n_agents, cfg), cfg)

    def test_zero_latency_ping_storm_keeps_fifo(self):
        # all deliveries collapse onto one timestamp; insertion order decides
        cfg = config(latency_nanos=0, computation_delay_nanos=0)
        scripts = [[(10, [(1, 1), (1, 2), (1, 3)])], [(10, [(0, 4)])]]
        log, _ = run_scripts(scripts, cfg)
        assert observed_log(log) == expected_log(scripts, cfg)
        markers = [int(r.summary) for r in log.records if r.tag == "ping"]
        assert markers == [1, 2, 3, 4]


class TestLogRecord:
    """A record keeps the payload; its tag and text fields are derived from
    it on reading."""

    PAYLOADS = [
        LimitOrder(1, Side.BID, 10, 9_990), MarketOrder(2, Side.ASK, 5), CancelOrder(3),
        CancelOrder(3, 4), OrderAccepted(1), OrderExecuted(1, 10, 9_990),
        OrderCancelled(3, 4, "reduced"), MarketDataQuery(1),
        MarketDataReply(BookSnapshot(((9_990, 10),), (), 9_990)), Wakeup(), Ping(7),
        "plain text",
    ]

    @pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
    def test_fields_are_the_payloads_own_formatting(self, payload):
        # a payload without a tag (Wakeup, a string) is tagged by its type's name
        tag = getattr(payload, "tag", type(payload).__name__.lower())
        record = LogRecord(5, 1, 2, payload)
        assert record.tag == tag
        summary = payload.summary() if hasattr(payload, "summary") else str(payload)
        detail = payload.detail() if hasattr(payload, "detail") else None
        assert record.summary == summary
        assert record.detail == detail
        body = {"time": 5, "sender": 1, "recipient": 2, "tag": tag, "summary": summary}
        if detail is not None:
            body["detail"] = detail
        assert record.to_json() == json.dumps(body, sort_keys=True)

    def test_stores_four_fields_and_derives_the_tag(self):
        assert LogRecord._fields == ("time", "sender_id", "recipient_id", "payload")
        assert LogRecord(5, 1, 2, OrderAccepted(1)).tag == "order_accepted"
        assert LogRecord(5, 1, 2, "plain text").tag == "str"

    def test_formatted_text(self):
        record = LogRecord(5, 1, 0, LimitOrder(1, Side.BID, 10, 9_990))
        assert record.to_json() == (
            '{"detail": {"order_id": 1, "price": 9990, "quantity": 10, "side": "BID"}, '
            '"recipient": 0, "sender": 1, "summary": "#1 BID 10@9990", '
            '"tag": "limit_order", "time": 5}')
        reply = LogRecord(6, 0, 1, MarketDataReply(BookSnapshot(((9_990, 10),), ())))
        assert (reply.summary, reply.detail) == ("bid 10x9990 / ask -", None)

    def test_kernel_logs_the_payload_it_delivered(self):
        log, _ = run_scripts([[(5, [(0, 1)])]], config(latency_nanos=10))
        wakeup, ping = log.records
        assert isinstance(wakeup.payload, Wakeup)
        assert (wakeup.tag, wakeup.summary) == ("wakeup", "")
        assert ping.payload == Ping(1) and (ping.tag, ping.summary) == ("ping", "1")


class _Pinger(Agent):
    """Wakes itself `left` times, 1 ns apart: one delivery per wakeup."""

    def __init__(self, left: int):
        super().__init__("pinger")
        self.left = left

    def on_start(self, kernel):
        kernel.schedule_wakeup(self.agent_id, kernel.config.start_time)

    def on_wakeup(self, now):
        self.left -= 1
        if self.left > 0:
            self.kernel.schedule_wakeup(self.agent_id, now + 1)


class TestColumnarLog:
    """The log keeps an int64 time column, int16 sender and recipient
    columns and a payload list; `records` reads them back as LogRecords."""

    @pytest.mark.parametrize("seed", range(5))
    def test_records_view_reads_the_expected_log(self, seed):
        cfg = config(latency_nanos=7)
        scripts = random_scripts(np.random.default_rng(seed), 4, cfg)
        log, _ = run_scripts(scripts, cfg)
        want = expected_log(scripts, cfg)
        records = log.records
        n = len(want)
        assert isinstance(records, Sequence) and len(records) == len(log) == n
        assert [flatten(records[i]) for i in range(n)] == want
        assert [flatten(records[i - n]) for i in range(n)] == want
        assert [flatten(rec) for rec in records] == want
        for part in (slice(None), slice(2, n - 1), slice(-3, None), slice(None, None, 2),
                     slice(None, None, -1), slice(n, n + 5)):
            assert [flatten(rec) for rec in records[part]] == want[part]
        assert all(type(rec) is LogRecord for rec in records)
        with pytest.raises(IndexError):
            records[n]

    def test_records_are_read_only(self):
        log, _ = run_scripts([[(5, [(0, 1)])]], config())
        with pytest.raises(TypeError):
            log.records[0] = LogRecord(0, 0, 0, "x")
        assert not hasattr(log.records, "append")

    def test_append_adds_one_row_to_each_column(self):
        log = SimulationLog()
        log.append(LogRecord(5, 1, 0, "text"))
        log.append(LogRecord(2**62, 3, 4, Ping(9)))
        assert list(log.times) == [5, 2**62]
        assert (list(log.senders), list(log.recipients)) == ([1, 3], [0, 4])
        assert list(log.records) == [LogRecord(5, 1, 0, "text"), LogRecord(2**62, 3, 4, Ping(9))]

    @staticmethod
    def log_bytes_per_delivery(deliveries=100_000) -> float:
        kernel = build_kernel(config(stop=10 * deliveries), [_Pinger(deliveries)])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = kernel.run()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(log) == deliveries
        return held / deliveries

    def test_a_delivery_costs_under_48_bytes(self):
        # a LogRecord tuple and its time int cost 120 bytes a delivery
        assert self.log_bytes_per_delivery() < 48

    def test_a_delivery_costs_under_24_bytes(self):
        # three int64 columns and a payload pointer cost about 32.5 bytes; an
        # int64 time, two int16 ids and the pointer about 20
        assert self.log_bytes_per_delivery() < 24
