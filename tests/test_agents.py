"""Exchange protocol, market replay, momentum, and TWAP benchmark agents."""

from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from lobsim import (
    DDQLConfig,
    ExchangeAgent,
    KernelConfig,
    MarketReplayAgent,
    MomentumAgent,
    MomentumConfig,
    Side,
    SyntheticFlowConfig,
    TWAPExecutionAgent,
    generate_synthetic,
    run_simulation,
    seconds,
)
from lobsim.book import BookSnapshot, Order, OrderKind
from lobsim.kernel import Agent
from lobsim.lobster import EventType, LobsterEvent
from lobsim.messages import (
    EXCHANGE_ID,
    CancelOrder,
    LimitOrder,
    MarketDataQuery,
    MarketDataReply,
    MarketOrder,
    OrderAccepted,
    OrderCancelled,
    OrderExecuted,
)
from lobsim.agents.momentum import momentum_decide
from lobsim.agents.twap import twap_schedule

from replay_oracle import OracleBook


class FakeKernel:
    """Captures outbound sends so agents can be driven without an event loop."""

    def __init__(self):
        self.sent = []

    def send(self, sender_id, recipient_id, payload):
        self.sent.append((recipient_id, payload))

    def to(self, recipient_id):
        return [p for r, p in self.sent if r == recipient_id]


def make_exchange(**kw):
    exchange = ExchangeAgent(**kw)
    exchange.agent_id = 0
    exchange.kernel = FakeKernel()
    return exchange, exchange.kernel


class TestExchangeProtocol:
    def test_resting_limit_gets_one_accept(self):
        exchange, kernel = make_exchange()
        exchange.on_message(10, 1, LimitOrder(100, Side.BID, 50, 9_990))
        assert kernel.to(1) == [OrderAccepted(100)]

    def test_market_against_two_makers_notifies_everyone(self):
        exchange, kernel = make_exchange()
        exchange.on_message(10, 1, LimitOrder(100, Side.ASK, 100, 1_000_000))
        exchange.on_message(11, 2, LimitOrder(200, Side.ASK, 50, 1_000_100))
        kernel.sent.clear()
        exchange.on_message(12, 3, MarketOrder(300, Side.BID, 150))
        assert kernel.to(3) == [
            OrderExecuted(300, 100, 1_000_000),
            OrderExecuted(300, 50, 1_000_100),
        ]
        assert kernel.to(1) == [OrderExecuted(100, 100, 1_000_000)]
        assert kernel.to(2) == [OrderExecuted(200, 50, 1_000_100)]

    def test_market_data_query_returns_depth_limited_snapshot(self):
        exchange, kernel = make_exchange()
        for i, price in enumerate((9_990, 9_980, 9_970, 9_960)):
            exchange.on_message(10, 1, LimitOrder(100 + i, Side.BID, 10, price))
        kernel.sent.clear()
        exchange.on_message(11, 2, MarketDataQuery(depth=3))
        (reply,) = kernel.to(2)
        assert isinstance(reply, MarketDataReply)
        assert [p for p, _ in reply.snapshot.bids] == [9_990, 9_980, 9_970]

    def test_unchanged_book_resends_the_same_reply(self):
        exchange, kernel = make_exchange()
        exchange.on_message(10, 1, LimitOrder(100, Side.BID, 10, 9_990))
        kernel.sent.clear()
        exchange.on_message(11, 2, MarketDataQuery(depth=1))
        exchange.on_message(11, 3, MarketDataQuery(depth=1))
        (first,), (second,) = kernel.to(2), kernel.to(3)
        assert second is first
        exchange.on_message(12, 1, LimitOrder(101, Side.BID, 5, 9_995))
        exchange.on_message(13, 2, MarketDataQuery(depth=1))
        third = kernel.to(2)[-1]
        assert third is not first and third.snapshot.bids == ((9_995, 5),)
        exchange.on_message(14, 2, MarketDataQuery(depth=3))
        deeper = kernel.to(2)[-1]
        assert deeper is not third and deeper.snapshot.bids == ((9_995, 5), (9_990, 10))

    def test_deep_cancel_between_queries_resends_the_same_reply(self):
        exchange, kernel = make_exchange()
        for i, price in enumerate((9_990, 9_980, 9_970, 9_960)):
            exchange.on_message(10, 1, LimitOrder(100 + i, Side.BID, 10, price))
        kernel.sent.clear()
        exchange.on_message(11, 2, MarketDataQuery(depth=3))
        exchange.on_message(12, 1, CancelOrder(103))  # the fourth level, below the depth
        assert kernel.to(1) == [OrderCancelled(103, 10, "cancelled")]
        exchange.on_message(13, 2, MarketDataQuery(depth=3))
        first, second = kernel.to(2)
        assert second is first

    def test_unfilled_market_remainder_cancelled(self):
        exchange, kernel = make_exchange()
        exchange.on_message(10, 1, LimitOrder(100, Side.ASK, 30, 1_000_000))
        kernel.sent.clear()
        exchange.on_message(11, 2, MarketOrder(200, Side.BID, 50))
        cancels = [p for p in kernel.to(2) if isinstance(p, OrderCancelled)]
        assert cancels == [OrderCancelled(200, 20, "unfilled")]

    def test_duplicate_id_rejected(self):
        exchange, kernel = make_exchange()
        exchange.on_message(10, 1, LimitOrder(100, Side.BID, 50, 9_990))
        exchange.on_message(11, 1, LimitOrder(100, Side.BID, 50, 9_990))
        rejects = [p for p in kernel.to(1) if isinstance(p, OrderCancelled)]
        assert len(rejects) == 1
        assert rejects[0].reason.startswith("rejected:")
        assert rejects[0].quantity == 50

    def test_malformed_order_rejected(self):
        exchange, kernel = make_exchange()
        exchange.on_message(10, 1, LimitOrder(100, Side.BID, 0, 9_990))
        (reject,) = kernel.to(1)
        assert reject.reason.startswith("rejected:")

    def test_cancel_unknown_id(self):
        exchange, kernel = make_exchange()
        exchange.on_message(10, 1, CancelOrder(999))
        assert kernel.to(1) == [OrderCancelled(999, 0, "not_found")]

    def test_cancel_by_non_owner_rejected(self):
        exchange, kernel = make_exchange()
        exchange.on_message(10, 1, LimitOrder(100, Side.BID, 50, 9_990))
        kernel.sent.clear()
        exchange.on_message(11, 2, CancelOrder(100))
        assert kernel.to(2) == [OrderCancelled(100, 0, "rejected:not_owner")]
        assert exchange.book.order(100) is not None

    @pytest.mark.parametrize("quantity", [None, 5])
    def test_non_owner_cancel_of_an_order_no_longer_resting_is_not_found(self, quantity):
        # ownership is read off the resting order, so a filled order has none
        exchange, kernel = make_exchange()
        exchange.on_message(10, 1, LimitOrder(100, Side.BID, 50, 9_990))
        exchange.on_message(11, 3, MarketOrder(200, Side.ASK, 50))
        kernel.sent.clear()
        exchange.on_message(12, 2, CancelOrder(100, quantity))
        assert kernel.sent == [(2, OrderCancelled(100, 0, "not_found"))]

    def test_maker_execution_is_routed_by_the_resting_orders_agent(self):
        # the exchange never saw order 100 arrive; the fill names its owner
        exchange, kernel = make_exchange()
        exchange.book.submit(Order(100, 4, Side.ASK, 1_000_000, 30, OrderKind.LIMIT, 0))
        exchange.on_message(10, 3, MarketOrder(300, Side.BID, 20))
        assert kernel.to(4) == [OrderExecuted(100, 20, 1_000_000)]
        assert kernel.to(3) == [OrderExecuted(300, 20, 1_000_000)]

    def test_full_cancel_acknowledges_removed_quantity(self):
        exchange, kernel = make_exchange()
        exchange.on_message(10, 1, LimitOrder(100, Side.BID, 50, 9_990))
        kernel.sent.clear()
        exchange.on_message(11, 1, CancelOrder(100))
        assert kernel.to(1) == [OrderCancelled(100, 50, "cancelled")]

    def test_reduce_keeps_order_resting(self):
        exchange, kernel = make_exchange()
        exchange.on_message(10, 1, LimitOrder(100, Side.BID, 50, 9_990))
        kernel.sent.clear()
        exchange.on_message(11, 1, CancelOrder(100, 20))
        assert kernel.to(1) == [OrderCancelled(100, 20, "reduced")]
        assert exchange.book.order(100).quantity == 30

    def test_unsupported_payload_rejected(self):
        exchange, kernel = make_exchange()
        exchange.on_message(10, 1, "gibberish")
        (reject,) = kernel.to(1)
        assert reject.reason == "rejected:unsupported_payload"

    def test_flow_records_track_accepted_actions(self):
        # the acks carry what each accepted action did to the book
        exchange, kernel = make_exchange()
        exchange.on_message(10, 1, LimitOrder(100, Side.BID, 50, 9_990))
        exchange.on_message(11, 2, MarketOrder(200, Side.ASK, 10))
        exchange.on_message(12, 1, CancelOrder(100, 5))
        exchange.on_message(13, 1, CancelOrder(100))
        assert kernel.to(1) == [
            OrderAccepted(100),
            OrderExecuted(100, 10, 9_990),
            OrderCancelled(100, 5, "reduced"),
            OrderCancelled(100, 35, "cancelled"),
        ]
        assert kernel.to(2) == [OrderExecuted(200, 10, 9_990)]

    def test_self_trade_prevention_notifies_cancelled_maker(self):
        exchange, kernel = make_exchange(allow_self_trade=False)
        exchange.on_message(10, 1, LimitOrder(100, Side.ASK, 30, 1_000_000))
        exchange.on_message(11, 2, LimitOrder(200, Side.ASK, 30, 1_000_000))
        kernel.sent.clear()
        exchange.on_message(12, 1, MarketOrder(300, Side.BID, 30))
        assert OrderCancelled(100, 30, "self_trade_prevented") in kernel.to(1)
        assert OrderExecuted(200, 30, 1_000_000) in kernel.to(2)


class TopOfBookExchange(ExchangeAgent):
    """Records (best bid, best ask) after each order, cancel or reduce."""

    def __init__(self):
        super().__init__()
        self.tops = []

    def on_message(self, now, sender_id, payload):
        super().on_message(now, sender_id, payload)
        if not isinstance(payload, MarketDataQuery):
            self.tops.append((self.book.best_bid(), self.book.best_ask()))


def replay_setup(events, latency=0, stop=None, exchange=None):
    stop = stop if stop is not None else (events[-1].time_ns if events else 0) + seconds(1)
    config = KernelConfig(start_time=0, stop_time=stop, latency_nanos=latency)
    exchange = exchange or ExchangeAgent()
    replay = MarketReplayAgent(events)
    log = run_simulation(config, [exchange, replay])
    return exchange, replay, log


def inbound(log):
    """(time, payload) of every message the exchange received."""
    return [(r.time, r.payload) for r in log.records if r.recipient_id == EXCHANGE_ID]


class TestMarketReplay:
    def test_limit_cancel_delete_mapping(self):
        events = [
            LobsterEvent(100, EventType.NEW_LIMIT, 1, 50, 1_000_000, 1),
            LobsterEvent(200, EventType.PARTIAL_CANCEL, 1, 20, 1_000_000, 1),
            LobsterEvent(300, EventType.DELETE, 1, 30, 1_000_000, 1),
        ]
        exchange, replay, log = replay_setup(events)
        assert replay.submitted == 3
        assert exchange.book.resting_quantity() == 0
        assert inbound(log) == [
            (100, LimitOrder(1, Side.BID, 50, 1_000_000)),
            (200, CancelOrder(1, 20)),
            (300, CancelOrder(1)),
        ]

    def test_visible_execution_becomes_opposite_market_order(self):
        events = [
            LobsterEvent(100, EventType.NEW_LIMIT, 1, 21, 1_000_100, -1),
            LobsterEvent(200, EventType.EXECUTE_VISIBLE, 1, 21, 1_000_100, -1),
        ]
        exchange, replay, log = replay_setup(events)
        assert replay.type4_market_orders == 1
        assert exchange.book.resting_quantity() == 0
        assert exchange.book.last_trade_price == 1_000_100
        time, last = inbound(log)[-1]
        assert (time, type(last), last.quantity, last.side) == (200, MarketOrder, 21, Side.BID)

    def test_hidden_and_halt_skipped_with_counters(self):
        events = [
            LobsterEvent(100, EventType.NEW_LIMIT, 1, 50, 1_000_000, 1),
            LobsterEvent(200, EventType.EXECUTE_HIDDEN, 0, 10, 999_000, 1),
            LobsterEvent(300, EventType.HALT, 0, 1, 0, 1),
        ]
        _, replay, _ = replay_setup(events)
        assert replay.submitted == 1
        assert replay.skipped == {"execute_hidden": 1, "halt": 1}

    def test_warmup_events_burst_at_start(self):
        config = KernelConfig(start_time=1_000, stop_time=2_000)
        events = [
            LobsterEvent(100, EventType.NEW_LIMIT, 1, 10, 1_000_000, 1),
            LobsterEvent(900, EventType.NEW_LIMIT, 2, 10, 999_000, 1),
            LobsterEvent(1_500, EventType.NEW_LIMIT, 3, 10, 998_000, 1),
        ]
        replay = MarketReplayAgent(events)
        log = run_simulation(config, [ExchangeAgent(), replay])
        assert [(time, type(p), p.quantity) for time, p in inbound(log)] == [
            (1_000, LimitOrder, 10), (1_000, LimitOrder, 10), (1_500, LimitOrder, 10),
        ]
        assert [r.detail["price"] for r in log.records if r.tag == "limit_order"] == \
            [1_000_000, 999_000, 998_000]

    def test_events_past_stop_not_submitted(self):
        events = [
            LobsterEvent(100, EventType.NEW_LIMIT, 1, 10, 1_000_000, 1),
            LobsterEvent(5_000, EventType.NEW_LIMIT, 2, 10, 999_000, 1),
        ]
        _, replay, _ = replay_setup(events, stop=1_000)
        assert replay.submitted == 1

    def test_replay_reproduces_standalone_reconstruction(self):
        # best bid/ask after every type-1/2/3 event must match an
        # independent rebuild of the same stream
        flow = SyntheticFlowConfig(
            arrival_rate_per_side=2.0, session_start_ns=0, session_end_ns=seconds(120),
            seed=17,
        )
        events = list(generate_synthetic(flow))
        exchange, replay, _ = replay_setup(events, latency=1_000_000,
                                           exchange=TopOfBookExchange())
        assert replay.submitted == len(events)
        assert len(exchange.tops) == len(events)
        oracle = OracleBook()
        for event, top in zip(events, exchange.tops):
            oracle.apply(event)
            if event.event_type in (EventType.NEW_LIMIT, EventType.PARTIAL_CANCEL, EventType.DELETE):
                assert top == (oracle.best_bid(), oracle.best_ask())


class TestMomentumDecide:
    def test_constant_series_no_order(self):
        assert momentum_decide([100.0] * 50) is None

    def test_strictly_increasing_buys(self):
        assert momentum_decide([float(i) for i in range(50)]) is Side.BID

    def test_recent_drop_sells(self):
        # last 50 = 30 x 100.00 then 20 x 99.00: short mean 99 < long mean 99.6
        series = [100.0] * 30 + [99.0] * 20
        assert momentum_decide(series) is Side.ASK

    def test_insufficient_history(self):
        assert momentum_decide([100.0] * 49) is None

    def test_only_trailing_window_matters(self):
        tail = [100.0] * 30 + [99.0] * 20
        assert momentum_decide([5.0] * 500 + tail) is momentum_decide(tail)

    def test_full_deque_decides_as_its_list(self):
        mids = np.random.default_rng(0).normal(100.0, 0.5, size=120).tolist()
        history = deque(maxlen=50)
        for mid in mids:
            history.append(mid)
            assert momentum_decide(history) is momentum_decide(list(history))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MomentumConfig(short_window=50, long_window=50).validate()
        with pytest.raises(ValueError):
            MomentumConfig(order_size=0).validate()


def reply(bid_price, ask_price, qty=100):
    snapshot = BookSnapshot(bids=((bid_price, qty),), asks=((ask_price, qty),))
    return MarketDataReply(snapshot)


def make_momentum(**kw):
    agent = MomentumAgent(MomentumConfig(**kw))
    agent.agent_id = 3
    agent.kernel = FakeKernel()
    return agent, agent.kernel


class TestMomentumAgent:
    def test_uptrend_places_buy_at_touch(self):
        agent, kernel = make_momentum(short_window=2, long_window=4)
        for i in range(4):
            agent.on_message(i, 0, reply(9_990 + i * 10, 10_010 + i * 10))
        limits = [p for _, p in kernel.sent if isinstance(p, LimitOrder)]
        assert limits
        assert limits[-1].side is Side.BID
        assert limits[-1].price == 9_990 + 30
        assert agent.orders_placed == len(limits)

    def test_new_signal_cancels_previous_order(self):
        agent, kernel = make_momentum(short_window=2, long_window=4)
        for i in range(5):
            agent.on_message(i, 0, reply(9_990 + i * 10, 10_010 + i * 10))
        cancels = [p for _, p in kernel.sent if isinstance(p, CancelOrder)]
        limits = [p for _, p in kernel.sent if isinstance(p, LimitOrder)]
        assert len(limits) == 2
        assert [c.order_id for c in cancels] == [limits[0].order_id]

    def test_one_query_object_per_depth(self):
        agent, kernel = make_momentum()
        for depth in (1, 1, 3, 1, 3):
            agent.query_market_data(depth)
        queries = [p for _, p in kernel.sent]
        assert queries == [MarketDataQuery(d) for d in (1, 1, 3, 1, 3)]
        assert queries[0] is queries[1] is queries[3]
        assert queries[2] is queries[4] and queries[2] is not queries[0]

    def test_fill_attribution_via_live_orders(self):
        agent, _ = make_momentum(short_window=2, long_window=4)
        for i in range(4):
            agent.on_message(i, 0, reply(9_990 + i * 10, 10_010 + i * 10))
        order_id = agent.open_order_id
        agent.on_message(10, 0, OrderExecuted(order_id, 7, 10_000))
        assert agent.filled_quantity == 7

    def test_cancelled_ack_clears_open_order(self):
        agent, _ = make_momentum(short_window=2, long_window=4)
        for i in range(4):
            agent.on_message(i, 0, reply(9_990 + i * 10, 10_010 + i * 10))
        order_id = agent.open_order_id
        agent.on_message(10, 0, OrderCancelled(order_id, 10, "cancelled"))
        assert agent.open_order_id is None

    def test_one_sided_book_is_ignored(self):
        agent, kernel = make_momentum(short_window=2, long_window=4)
        snapshot = BookSnapshot(bids=(), asks=((10_010, 5),))
        for i in range(6):
            agent.on_message(i, 0, MarketDataReply(snapshot))
        assert kernel.sent == []


def parent_order(parent, periods, start=0, **fields) -> DDQLConfig:
    """A bid parent order over `periods` 30 s periods from `start`."""
    return DDQLConfig(parent_quantity=parent, num_periods=periods, session_start=start,
                      session_end=start + periods * seconds(30), **fields)


class TestTWAPSchedule:
    def test_paper_scale_schedule(self):
        schedule = twap_schedule(DDQLConfig())
        assert len(schedule) == 660
        assert all(quantity == 10 for _, quantity in schedule)
        assert schedule[1][0] - schedule[0][0] == seconds(30)

    def test_remainder_to_earliest_periods(self):
        assert [q for _, q in twap_schedule(parent_order(7, 3))] == [3, 2, 2]

    def test_zero_parent_rejected(self):
        with pytest.raises(ValueError):
            parent_order(0, 3).validate()

    def test_indivisible_session_rejected(self):
        with pytest.raises(ValueError):
            replace(parent_order(10, 3), session_end=seconds(100)).validate()

    def test_tiny_parent_spreads_zeros_and_ones(self):
        assert [q for _, q in twap_schedule(parent_order(2, 4))] == [1, 1, 0, 0]

    @pytest.mark.parametrize("seed", range(10))
    def test_sums_to_parent(self, seed):
        rng = np.random.default_rng(seed)
        periods = int(rng.integers(1, 40))
        parent = int(rng.integers(1, 5_000))
        schedule = twap_schedule(parent_order(parent, periods))
        assert sum(q for _, q in schedule) == parent
        base = parent // periods
        assert all(base <= q <= base + 1 for _, q in schedule)


class TestTWAPAgent:
    def run_against_wall(self, parent=30, periods=3, wall_price=10_010, **grid):
        """The TWAP agent against deep liquidity, so every child fills at one
        price.  A passive agent, registered second so its id is 1, owns the
        liquidity and gets the maker executions.  Returns the agent and the log."""
        config = KernelConfig(start_time=0, stop_time=seconds(200))
        exchange = ExchangeAgent()
        exchange.book.submit(Order(1, 1, Side.ASK, wall_price, 10_000, OrderKind.LIMIT, 0))
        exchange.book.submit(Order(2, 1, Side.BID, 9_990, 10_000, OrderKind.LIMIT, 0))
        twap = TWAPExecutionAgent(parent_order(parent, periods, start=seconds(10), **grid))
        log = run_simulation(config, [exchange, Agent("liquidity"), twap])
        return twap, log

    def test_constant_rate_execution(self):
        twap, log = self.run_against_wall()
        assert twap.result.filled_quantity == 30
        fills = [(r.time, r.payload.quantity) for r in log.records
                 if r.recipient_id == twap.agent_id and isinstance(r.payload, OrderExecuted)]
        assert [q for _, q in fills] == [10, 10, 10]
        assert [(t - seconds(10)) // seconds(30) for t, _ in fills] == [0, 1, 2]

    def test_vwap_and_arrival_price(self):
        twap, _ = self.run_against_wall()
        assert twap.result.fill_vwap == 10_010.0
        assert twap.result.arrival_price == 10_000.0
        assert twap.result.slippage == pytest.approx(0.001)

    def test_action_trace_is_all_market(self):
        twap, _ = self.run_against_wall()
        assert twap.result.action_trace == [8, 8, 8]  # multiplier 1.0, market placement

    def test_action_trace_uses_the_configured_grid(self):
        twap, _ = self.run_against_wall(multipliers=(0.5, 1.0, 2.0))
        assert twap.result.action_trace == [4, 4, 4]  # multiplier rank 1, market placement

    def test_grid_without_the_twap_action_rejected(self):
        with pytest.raises(ValueError, match="multiplier"):
            self.run_against_wall(multipliers=(0.5, 2.0))
