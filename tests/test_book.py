"""Matching engine: spec'd behaviors plus randomized oracle equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobsim.book import (
    BookSnapshot,
    DuplicateOrderIdError,
    Order,
    OrderBook,
    OrderKind,
    OrderNotFoundError,
    Side,
)

from book_ops import real_state, run_lockstep

# prices are integer ticks, 1 tick = $0.0001
DOLLAR = 10_000


def limit(order_id, side, dollars, qty, agent_id=0, placed_at=0):
    return Order(order_id, agent_id, side, int(round(dollars * DOLLAR)), qty,
                 OrderKind.LIMIT, placed_at)


def market(order_id, side, qty, agent_id=0, placed_at=0):
    return Order(order_id, agent_id, side, 0, qty, OrderKind.MARKET, placed_at)


def seeded_asks(book):
    book.submit(limit(1, Side.ASK, 100.00, 200))
    book.submit(limit(2, Side.ASK, 100.01, 300))


class TestSubmit:
    def test_market_buy_walks_levels(self):
        book = OrderBook()
        seeded_asks(book)
        result = book.submit(market(3, Side.BID, 250))
        assert [(f.price_ticks, f.quantity) for f in result.fills] == [
            (100_0000, 200),
            (100_0100, 50),
        ]
        assert result.resting is None
        assert book.side_levels(Side.ASK) == [(100_0100, 250, 1)]

    def test_snapshot_after_partial_sweep(self):
        book = OrderBook()
        seeded_asks(book)
        book.submit(market(3, Side.BID, 250))
        snap = book.snapshot(3)
        assert snap.best_ask == (100_0100, 250)
        assert snap.last_trade_price == 100_0100

    def test_non_marketable_limit_rests(self):
        book = OrderBook()
        seeded_asks(book)
        result = book.submit(limit(3, Side.BID, 99.50, 100))
        assert result.fills == []
        assert result.resting is not None
        assert book.best_bid() == 99_5000

    def test_market_into_empty_side_unfilled(self):
        book = OrderBook()
        result = book.submit(market(1, Side.ASK, 10))
        assert result.fills == []
        assert result.resting is None
        assert book.resting_quantity() == 0

    def test_duplicate_order_id_rejected(self):
        book = OrderBook()
        book.submit(limit(7, Side.BID, 100.00, 10))
        with pytest.raises(DuplicateOrderIdError):
            book.submit(limit(7, Side.BID, 99.00, 10))

    def test_marketable_limit_fills_at_maker_price(self):
        book = OrderBook()
        book.submit(limit(1, Side.ASK, 100.00, 50))
        order = limit(2, Side.BID, 100.05, 80)
        result = book.submit(order)
        assert [(f.price_ticks, f.quantity) for f in result.fills] == [(100_0000, 50)]
        # remainder rests at the limit price, not the fill price
        assert book.best_bid() == 100_0500
        # the submitted order itself rests, carrying the remainder
        assert result.resting is order and book.order(2) is order
        assert order.quantity == 30

    def test_fifo_within_level(self):
        book = OrderBook()
        book.submit(limit(1, Side.ASK, 100.00, 10, agent_id=5, placed_at=5))
        book.submit(limit(2, Side.ASK, 100.00, 10, agent_id=6, placed_at=6))
        result = book.submit(market(3, Side.BID, 15))
        # each fill names its maker's agent
        assert [(f.maker_order_id, f.maker_agent_id, f.quantity) for f in result.fills] == \
            [(1, 5, 10), (2, 6, 5)]

    def test_equal_placed_at_breaks_ties_by_order_id(self):
        book = OrderBook()
        book.submit(limit(9, Side.ASK, 100.00, 10, placed_at=5))
        book.submit(limit(4, Side.ASK, 100.00, 10, placed_at=5))
        result = book.submit(market(10, Side.BID, 15))
        assert [f.maker_order_id for f in result.fills] == [4, 9]


class TestCancelReduce:
    def test_cancel_returns_remaining(self):
        book = OrderBook()
        book.submit(limit(1, Side.BID, 100.00, 500))
        assert book.cancel(1) == 500
        assert book.side_levels(Side.BID) == []

    def test_cancel_after_partial_fill(self):
        book = OrderBook()
        book.submit(limit(1, Side.BID, 100.00, 500))
        book.submit(market(2, Side.ASK, 200))
        assert book.cancel(1) == 300

    def test_cancel_idempotent(self):
        book = OrderBook()
        book.submit(limit(1, Side.BID, 100.00, 500))
        assert book.cancel(1) == 500
        assert book.cancel(1) == 0
        assert book.cancel(999) == 0

    def test_reduce_preserves_queue_position(self):
        book = OrderBook()
        book.submit(limit(1, Side.ASK, 100.00, 500, placed_at=1))
        book.submit(limit(2, Side.ASK, 100.00, 100, placed_at=2))
        assert book.reduce(1, 100) == 400
        result = book.submit(market(3, Side.BID, 50))
        assert result.fills[0].maker_order_id == 1

    def test_reduce_saturates_and_removes(self):
        book = OrderBook()
        book.submit(limit(1, Side.ASK, 100.00, 50))
        assert book.reduce(1, 80) == 0
        assert book.order(1) is None
        assert book.side_levels(Side.ASK) == []

    def test_reduce_unknown_id_raises(self):
        book = OrderBook()
        with pytest.raises(OrderNotFoundError):
            book.reduce(42, 10)


class TestSnapshot:
    def test_empty_book(self):
        snap = OrderBook().snapshot(3)
        assert snap.best_bid is None
        assert snap.best_ask is None
        assert snap.mid_price is None
        assert snap.spread_ticks is None

    def test_direct_read(self):
        book = OrderBook()
        book.submit(limit(1, Side.BID, 100.00, 10))
        book.submit(limit(2, Side.ASK, 100.02, 5))
        snap = book.snapshot(3)
        assert snap.spread_ticks == 200
        assert snap.mid_price == 100_0100.0
        assert (snap.best_ask[1], snap.best_bid[1]) == (5, 10)

    def test_depth_limited_to_k(self):
        book = OrderBook()
        for i, px in enumerate((100.00, 100.01, 100.02, 100.03)):
            book.submit(limit(i + 1, Side.ASK, px, 10))
        for i, px in enumerate((99.97, 99.99, 99.98)):
            book.submit(limit(i + 5, Side.BID, px, 10 * (i + 1)))
        snap = book.snapshot(2)
        assert snap.asks == ((100_0000, 10), (100_0100, 10))
        assert snap.bids == ((99_9900, 20), (99_9800, 30))  # best (highest) first
        deep = book.snapshot(10)  # k beyond the side returns every level
        assert deep.asks == ((100_0000, 10), (100_0100, 10), (100_0200, 10), (100_0300, 10))
        assert deep.bids == ((99_9900, 20), (99_9800, 30), (99_9700, 10))
        for i in range(5, 8):
            book.cancel(i)
        assert book.snapshot(2).bids == ()
        assert OrderBook().snapshot(1) == BookSnapshot(bids=(), asks=())

    def test_snapshot_does_not_mutate(self):
        book = OrderBook()
        seeded_asks(book)
        before = book.depth_csv()
        book.snapshot(3)
        assert book.depth_csv() == before


class TestSelfTrade:
    def test_permitted_by_default(self):
        book = OrderBook()
        book.submit(limit(1, Side.ASK, 100.00, 10, agent_id=5))
        result = book.submit(market(2, Side.BID, 10, agent_id=5))
        assert sum(f.quantity for f in result.fills) == 10
        assert book.self_trade_cancels == []

    def test_prevention_cancels_resting(self):
        book = OrderBook(allow_self_trade=False)
        book.submit(limit(1, Side.ASK, 100.00, 10, agent_id=5))
        book.submit(limit(2, Side.ASK, 100.00, 10, agent_id=6))
        result = book.submit(market(3, Side.BID, 10, agent_id=5))
        # own order skipped and cancelled; the other agent's order fills
        assert [f.maker_order_id for f in result.fills] == [2]
        assert [o.order_id for o in book.self_trade_cancels] == [1]
        assert book.order(1) is None


class TestRandomizedOracle:
    """Smaller cousin of the acceptance criterion; fast enough for every run."""

    @pytest.mark.parametrize("seed", range(25))
    def test_lockstep_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        run = run_lockstep(rng, n_ops=200)
        assert run["fills"] == run["ref_fills"]
        assert real_state(run["book"]) == run["ref"].state()

    @pytest.mark.parametrize("seed", range(10))
    def test_conservation_and_uncrossed(self, seed):
        rng = np.random.default_rng(1000 + seed)
        run = run_lockstep(rng, n_ops=300)
        filled = 2 * sum(q for *_rest, q in run["fills"])
        resting = run["book"].resting_quantity()
        assert run["submitted"] == filled + resting + run["cancelled"]
        bid, ask = run["book"].best_bid(), run["book"].best_ask()
        if bid is not None and ask is not None:
            assert bid < ask

    def test_uncrossed_after_every_operation(self):
        rng = np.random.default_rng(4242)
        book = OrderBook()
        from book_ops import apply_to_real, random_operations

        for op in random_operations(rng, 400):
            apply_to_real([op], book)
            bid, ask = book.best_bid(), book.best_ask()
            if bid is not None and ask is not None:
                assert bid < ask


def fresh_snapshot(book, k):
    """The snapshot recomputed from the full side levels, without the cache."""
    bids = tuple((p, q) for p, q, _ in book.side_levels(Side.BID)[:k])
    asks = tuple((p, q) for p, q, _ in book.side_levels(Side.ASK)[:k])
    return BookSnapshot(bids, asks, book.last_trade_price)


class TestSnapshotReuse:
    def two_sided(self, **kw):
        book = OrderBook(**kw)
        book.submit(limit(1, Side.BID, 99.99, 10, agent_id=1))
        book.submit(limit(2, Side.ASK, 100.01, 10, agent_id=2))
        book.submit(limit(3, Side.ASK, 100.02, 30, agent_id=5))
        return book

    def assert_renewed(self, book, before):
        after = book.snapshot(2)
        assert after is not before
        assert after == fresh_snapshot(book, 2)
        assert book.snapshot(2) is after
        return after

    def test_same_object_until_a_change(self):
        book = self.two_sided()
        snap = book.snapshot(2)
        assert book.snapshot(2) is snap
        assert book.snapshot(1) is not snap and book.snapshot(1) is book.snapshot(1)
        assert book.order(1) is not None and book.best_bid() == 99_9900
        assert book.snapshot(2) is snap

    def test_resting_submit_renews(self):
        book = self.two_sided()
        snap = book.snapshot(2)
        book.submit(limit(4, Side.BID, 100.00, 7))
        assert self.assert_renewed(book, snap).bids == ((100_0000, 7), (99_9900, 10))

    def test_crossing_submit_renews_last_trade(self):
        book = self.two_sided()
        snap = book.snapshot(2)
        book.submit(market(4, Side.BID, 15))
        after = self.assert_renewed(book, snap)
        assert after.last_trade_price == 100_0200
        assert after.asks == ((100_0200, 25),)

    def test_self_trade_prevented_cancel_renews(self):
        book = OrderBook(allow_self_trade=False)
        book.submit(limit(1, Side.BID, 99.99, 10, agent_id=1))
        book.submit(limit(2, Side.ASK, 100.01, 10, agent_id=5))
        snap = book.snapshot(2)
        # the only effect of this order is the cancel of agent 5's own ask
        result = book.submit(market(3, Side.BID, 10, agent_id=5))
        assert result == ([], None) and [o.order_id for o in book.self_trade_cancels] == [2]
        assert self.assert_renewed(book, snap).asks == ()

    def test_cancel_and_reduce_renew(self):
        book = self.two_sided()
        snap = book.snapshot(2)
        book.reduce(3, 5)
        snap = self.assert_renewed(book, snap)
        assert snap.asks == ((100_0100, 10), (100_0200, 25))
        book.cancel(2)
        assert self.assert_renewed(book, snap).asks == ((100_0200, 25),)

    def test_cancel_of_unknown_id_keeps_the_snapshot(self):
        book = self.two_sided()
        snap = book.snapshot(2)
        assert book.cancel(99) == 0
        with pytest.raises(OrderNotFoundError):
            book.reduce(99, 1)
        assert book.snapshot(2) is snap

    @pytest.mark.parametrize("change", [
        lambda book: book.submit(limit(4, Side.ASK, 100.03, 8)),  # a new deeper level
        lambda book: book.submit(limit(4, Side.BID, 99.98, 8)),
        lambda book: book.submit(limit(4, Side.ASK, 100.02, 8)),  # joins the second level
        lambda book: book.reduce(3, 5),
        lambda book: book.cancel(3),
    ], ids=["new_deeper_ask", "new_deeper_bid", "join_a_deeper_level", "reduce_deeper",
            "cancel_deeper"])
    def test_change_below_the_top_k_returns_the_same_object(self, change):
        book = self.two_sided()
        snap = book.snapshot(1)
        change(book)
        assert book.snapshot(1) is snap
        assert snap == fresh_snapshot(book, 1)

    def test_change_on_one_side_keeps_the_other_sides_tuple(self):
        book = self.two_sided()
        snap = book.snapshot(2)
        book.submit(limit(4, Side.BID, 100.00, 7))
        after = self.assert_renewed(book, snap)
        assert after.bids != snap.bids and after.asks is snap.asks
        book.reduce(2, 4)
        renewed = self.assert_renewed(book, after)
        assert renewed.asks != after.asks and renewed.bids is after.bids

    def test_a_new_last_trade_alone_renews(self):
        # the trade's gap at the best ask is refilled before the next look,
        # so only the last trade price tells the two snapshots apart
        book = self.two_sided()
        snap = book.snapshot(2)
        book.submit(market(4, Side.BID, 4))
        book.submit(limit(5, Side.ASK, 100.01, 4))
        after = self.assert_renewed(book, snap)
        assert after.last_trade_price == 100_0100 and snap.last_trade_price is None
        assert after.bids is snap.bids and after.asks is snap.asks

    OPS = st.lists(st.tuples(st.sampled_from(["limit", "market", "cancel", "reduce"]),
                             st.sampled_from([Side.BID, Side.ASK]), st.integers(-2, 2),
                             st.integers(1, 3), st.integers(1, 40), st.booleans()),
                   max_size=60)

    @settings(max_examples=150, deadline=None)
    @given(OPS)
    def test_reused_exactly_when_the_value_is_unchanged(self, ops):
        # a look may skip operations, so several can fall between two snapshots
        book = OrderBook()
        previous = {k: book.snapshot(k) for k in (1, 2, 3)}
        for order_id, (op, side, offset, quantity, target, look) in enumerate(ops, start=1):
            if op == "limit":
                book.submit(Order(order_id, 0, side, 100 + offset, quantity,
                                  OrderKind.LIMIT, order_id))
            elif op == "market":
                book.submit(Order(order_id, 0, side, 0, quantity, OrderKind.MARKET, order_id))
            elif op == "cancel":
                book.cancel(target)
            elif book.order(target) is not None:
                book.reduce(target, quantity)
            if not look and order_id < len(ops):
                continue
            for k in (1, 2, 3):
                snap, last = book.snapshot(k), previous[k]
                assert snap == fresh_snapshot(book, k)
                assert (snap is last) == (snap == last)
                assert (snap.bids is last.bids) == (snap.bids == last.bids)
                assert (snap.asks is last.asks) == (snap.asks == last.asks)
                previous[k] = snap


class TestLazyRemoval:
    PRICE = 100_0000

    def deep_level(self, n):
        book = OrderBook()
        for i in range(1, n + 1):
            book.submit(Order(i, 0, Side.ASK, self.PRICE, 10, OrderKind.LIMIT, i))
        return book

    def test_submit_cancel_churn_keeps_the_queue_bounded(self):
        book = self.deep_level(100)
        longest = 0
        for i in range(101, 10_101):
            book.submit(Order(i, 0, Side.ASK, self.PRICE, 10, OrderKind.LIMIT, i))
            assert book.cancel(i) == 10
            longest = max(longest, len(book._levels[Side.ASK][self.PRICE].queue))
        assert longest <= 2 * 101
        assert book.side_levels(Side.ASK) == [(self.PRICE, 1_000, 100)]
        assert [o.order_id for o in book.level_orders(Side.ASK, self.PRICE)] == \
            list(range(1, 101))

    def test_matching_skips_removed_orders_at_the_head(self):
        book = self.deep_level(10)
        for order_id in (1, 2, 4):
            book.cancel(order_id)
        book.reduce(3, 10)  # reduced to nothing: removed as well
        result = book.submit(market(50, Side.BID, 15, placed_at=20))
        assert [(f.maker_order_id, f.quantity) for f in result.fills] == [(5, 10), (6, 5)]
        assert [(o.order_id, o.quantity) for o in book.level_orders(Side.ASK, self.PRICE)] == \
            [(6, 5), (7, 10), (8, 10), (9, 10), (10, 10)]
        assert book.side_levels(Side.ASK) == [(self.PRICE, 45, 5)]

    def test_a_reused_id_is_not_mistaken_for_the_removed_order(self):
        book = self.deep_level(3)
        book.cancel(1)
        book.submit(Order(1, 0, Side.ASK, self.PRICE, 4, OrderKind.LIMIT, 9))
        result = book.submit(market(50, Side.BID, 30, placed_at=10))
        assert [(f.maker_order_id, f.quantity) for f in result.fills] == [(2, 10), (3, 10), (1, 4)]
        assert book.side_levels(Side.ASK) == []
        assert book.level_orders(Side.ASK, self.PRICE) == []
