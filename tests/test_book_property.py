"""Stateful property test: Hypothesis drives OrderBook and the naive
reference matcher in lockstep through limits, markets, cancels and reduces,
with shared timestamps, ids that arrive out of order and ids that were never
issued or are already gone."""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from lobsim.book import Order, OrderBook, OrderKind, OrderNotFoundError, Side

from book_ops import real_state
from reference_matcher import ASK, BID, ReferenceBook

MID = 100
SIDES = st.sampled_from([Side.BID, Side.ASK])
UNKNOWN_IDS = st.integers(10_000, 10_005)  # never issued
_SIDE_NAME = {Side.BID: BID, Side.ASK: ASK}


class BookMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.book = OrderBook()
        self.ref = ReferenceBook()
        self.now = 0
        self.issued: set[int] = set()
        self.low = self.high = 5_000  # ids go up or down, so equal timestamps tie-break by id
        self.fills: list = []  # the last step's fills, as (taker, maker, price, quantity)
        self.ref_fills: list = []
        self.last_trade = None  # price of the reference's latest fill

    def _submit(self, below, side, price, quantity, kind) -> None:
        if below:  # a fresh id below or above every id issued so far
            self.low = order_id = self.low - 1
        else:
            self.high = order_id = self.high + 1
        self.issued.add(order_id)
        result = self.book.submit(Order(order_id, 0, side, price, quantity, kind, self.now))
        self.fills = [(f.taker_order_id, f.maker_order_id, f.price_ticks, f.quantity)
                      for f in result.fills]
        self.ref_fills, _ = self.ref.submit(order_id, _SIDE_NAME[side], price, quantity,
                                            kind is OrderKind.MARKET, self.now)
        if self.ref_fills:
            self.last_trade = self.ref_fills[-1][2]

    def _target(self, data) -> int:
        """An issued id, live or gone, or one never issued."""
        issued = st.sampled_from(sorted(self.issued)) if self.issued else st.nothing()
        return data.draw(st.one_of(issued, UNKNOWN_IDS))

    @rule(dt=st.integers(0, 2))
    def advance(self, dt):
        self.now += dt
        self.fills = self.ref_fills = []

    @rule(below=st.booleans(), side=SIDES, offset=st.integers(-4, 4),
          quantity=st.integers(1, 60))
    def limit(self, below, side, offset, quantity):
        self._submit(below, side, MID + offset, quantity, OrderKind.LIMIT)

    @rule(below=st.booleans(), side=SIDES, quantity=st.integers(1, 150))
    def market(self, below, side, quantity):
        self._submit(below, side, 0, quantity, OrderKind.MARKET)

    @rule(data=st.data())
    def cancel(self, data):
        order_id = self._target(data)
        assert self.book.cancel(order_id) == self.ref.cancel(order_id)
        self.fills = self.ref_fills = []

    @rule(data=st.data(), by=st.integers(1, 80))
    def reduce(self, data, by):
        order_id = self._target(data)
        expected = self.ref.reduce(order_id, by)  # None for an id not resting
        try:
            remaining = self.book.reduce(order_id, by)
        except OrderNotFoundError:
            remaining = None
        assert remaining == expected
        self.fills = self.ref_fills = []

    @invariant()
    def same_fills(self):
        assert self.fills == self.ref_fills

    @invariant()
    def same_state(self):
        state = self.ref.state()
        assert real_state(self.book) == state
        for side, name in _SIDE_NAME.items():  # level totals and counts agree too
            assert self.book.side_levels(side) == [
                (price, sum(q for _, q in queue), len(queue)) for price, queue in state[name]]

    @invariant()
    def never_crossed(self):
        bid, ask = self.book.best_bid(), self.book.best_ask()
        assert bid is None or ask is None or bid < ask

    @invariant()
    def snapshot_is_the_top_of_side_levels(self):
        bids = [(p, q) for p, q, _ in self.book.side_levels(Side.BID)]
        asks = [(p, q) for p, q, _ in self.book.side_levels(Side.ASK)]
        for k in range(1, max(len(bids), len(asks)) + 2):
            snap = self.book.snapshot(k)
            assert snap.bids == tuple(bids[:k])
            assert snap.asks == tuple(asks[:k])
            assert snap.last_trade_price == self.last_trade


TestBookMachine = BookMachine.TestCase
TestBookMachine.settings = settings(max_examples=60, stateful_step_count=40)
