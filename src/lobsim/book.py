"""Price-time-priority limit order book.

Prices are integer ticks (default tick = $0.0001, so LOBSTER dollar prices
map losslessly).  Each side is an ordered map price -> FIFO level; matching
walks best price first and fills at maker prices.  Unfilled market-order
remainders are cancelled, never converted to limit orders.

Single-owner mutable structure: all access is serialized through the
exchange agent on the kernel thread.  Snapshots are immutable value copies;
the book hands out the same one while the top-k value it shows is unchanged.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

from .kernel import SimTime


class Side(Enum):
    BID = "BID"
    ASK = "ASK"

    # identity singletons, Enum's _name_ hash varies per process anyway, no set of Sides is iterated
    __hash__ = object.__hash__

    @property
    def opposite(self) -> "Side":
        return Side.ASK if self is Side.BID else Side.BID

    @property
    def sign(self) -> int:
        """+1 for BID, -1 for ASK (LOBSTER direction convention)."""
        return 1 if self is Side.BID else -1


class OrderKind(Enum):
    LIMIT = "LIMIT"
    MARKET = "MARKET"


class BookError(Exception):
    pass


class InvalidOrderError(BookError):
    pass


class DuplicateOrderIdError(BookError):
    pass


class OrderNotFoundError(BookError):
    pass


@dataclass(eq=False, slots=True)
class Order:
    """A resting or incoming order.  Orders compare by identity: a queue
    entry is live only while the book's id map holds that very object."""

    order_id: int
    agent_id: int
    side: Side
    price_ticks: int  # ignored for MARKET orders
    quantity: int
    kind: OrderKind = OrderKind.LIMIT
    placed_at: SimTime = 0

    def validate(self) -> None:
        if self.quantity <= 0:
            raise InvalidOrderError(f"order {self.order_id}: quantity must be positive")
        if self.kind is OrderKind.LIMIT and self.price_ticks <= 0:
            raise InvalidOrderError(f"order {self.order_id}: limit order needs a positive price")


@dataclass(frozen=True, slots=True)
class Fill:
    taker_order_id: int
    maker_order_id: int
    price_ticks: int
    quantity: int
    maker_agent_id: int


class SubmitResult(NamedTuple):
    fills: list
    resting: Optional[Order]


@dataclass(frozen=True, slots=True)
class BookSnapshot:
    """Top-k depth per side; bids best-first (descending price), asks
    best-first (ascending)."""

    bids: tuple
    asks: tuple
    last_trade_price: Optional[int] = None

    @property
    def best_bid(self) -> Optional[tuple]:
        return self.bids[0] if self.bids else None

    @property
    def best_ask(self) -> Optional[tuple]:
        return self.asks[0] if self.asks else None

    @property
    def mid_price(self) -> Optional[float]:
        if self.bids and self.asks:
            return (self.bids[0][0] + self.asks[0][0]) / 2.0
        return None

    @property
    def spread_ticks(self) -> Optional[int]:
        if self.bids and self.asks:
            return self.asks[0][0] - self.bids[0][0]
        return None

    def summary(self) -> str:
        bid = f"{self.bids[0][1]}x{self.bids[0][0]}" if self.bids else "-"
        ask = f"{self.asks[0][1]}x{self.asks[0][0]}" if self.asks else "-"
        return f"bid {bid} / ask {ask}"


@dataclass(slots=True)
class PriceLevel:
    """One price's FIFO queue.  Removing an order from the middle only takes
    it off `total_quantity` and `count`; its entry stays in `queue`, dead,
    until matching pops it from the head or the book compacts the level.
    `count` is the number of live orders."""

    queue: deque = field(default_factory=deque)
    total_quantity: int = 0
    count: int = 0

    def insert(self, order: Order) -> None:
        # Keep the queue ordered by (placed_at, order_id).  Arrivals come in
        # non-decreasing time, so almost always this is a plain append.
        key = (order.placed_at, order.order_id)
        pos = len(self.queue)
        while pos > 0:
            prev = self.queue[pos - 1]
            if (prev.placed_at, prev.order_id) <= key:
                break
            pos -= 1
        if pos == len(self.queue):
            self.queue.append(order)
        else:
            self.queue.insert(pos, order)
        self.total_quantity += order.quantity
        self.count += 1


class OrderBook:
    def __init__(self, allow_self_trade: bool = True):
        self.allow_self_trade = allow_self_trade
        self._levels: dict[Side, dict[int, PriceLevel]] = {Side.BID: {}, Side.ASK: {}}
        self._prices: dict[Side, list[int]] = {Side.BID: [], Side.ASK: []}  # ascending
        self._orders: dict[int, Order] = {}
        self.last_trade_price: Optional[int] = None
        # resting orders cancelled by self-trade prevention during the most
        # recent submit; only populated when allow_self_trade is False
        self.self_trade_cancels: list[Order] = []
        # the current snapshot per depth; every change to the book clears it
        self._snapshots: dict[int, BookSnapshot] = {}
        # the last snapshot made per depth, which a rebuild reuses if equal
        self._last_snapshots: dict[int, BookSnapshot] = {}

    # -- queries ------------------------------------------------------------

    def best_bid(self) -> Optional[int]:
        prices = self._prices[Side.BID]
        return prices[-1] if prices else None

    def best_ask(self) -> Optional[int]:
        prices = self._prices[Side.ASK]
        return prices[0] if prices else None

    def order(self, order_id: int) -> Optional[Order]:
        return self._orders.get(order_id)

    def side_levels(self, side: Side) -> list:
        """All levels of one side, best price first: (price, total, count)."""
        prices = self._prices[side]
        ordered = reversed(prices) if side is Side.BID else iter(prices)
        levels = self._levels[side]
        return [(p, levels[p].total_quantity, levels[p].count) for p in ordered]

    def level_orders(self, side: Side, price: int) -> list:
        """The live orders resting at `price`, in time priority."""
        level = self._levels[side].get(price)
        if level is None:
            return []
        orders = self._orders
        return [o for o in level.queue if orders.get(o.order_id) is o]

    def resting_quantity(self) -> int:
        return sum(level.total_quantity for side in self._levels.values() for level in side.values())

    def snapshot(self, k: int = 3) -> BookSnapshot:
        """Top-k depth.  While its value is unchanged, every call with the
        same k returns the same (immutable) object, across changes to the
        book below the top k too; a rebuild whose one side is unchanged
        keeps that side's tuple."""
        snapshot = self._snapshots.get(k)
        if snapshot is not None:
            return snapshot
        if k < 1:
            raise ValueError("depth k must be >= 1")
        # read only the k best prices; the book may hold thousands of levels
        levels = self._levels[Side.BID]
        bids = tuple([(p, levels[p].total_quantity) for p in self._prices[Side.BID][:-k - 1:-1]])
        levels = self._levels[Side.ASK]
        asks = tuple([(p, levels[p].total_quantity) for p in self._prices[Side.ASK][:k]])
        last = self._last_snapshots.get(k)
        if last is not None:
            bids = last.bids if bids == last.bids else bids
            asks = last.asks if asks == last.asks else asks
            if bids is last.bids and asks is last.asks \
                    and self.last_trade_price == last.last_trade_price:
                self._snapshots[k] = last
                return last
        snapshot = BookSnapshot(bids, asks, self.last_trade_price)
        self._snapshots[k] = self._last_snapshots[k] = snapshot
        return snapshot

    def depth_csv(self) -> str:
        lines = ["side,price_ticks,total_quantity,order_count"]
        for side in (Side.BID, Side.ASK):
            for price, total, count in self.side_levels(side):
                lines.append(f"{side.name},{price},{total},{count}")
        return "\n".join(lines) + "\n"

    # -- mutations ----------------------------------------------------------

    def submit(self, order: Order) -> SubmitResult:
        """Match `order`; a limit remainder rests as `order` itself, its
        quantity cut to the remainder, and the book owns it from then on."""
        order.validate()
        if order.order_id in self._orders:
            raise DuplicateOrderIdError(f"order id {order.order_id} is already resting")
        self._snapshots.clear()
        self.self_trade_cancels = []
        fills: list[Fill] = []
        remaining = order.quantity
        opposite = order.side.opposite
        prices = self._prices[opposite]
        levels = self._levels[opposite]
        orders = self._orders
        while remaining > 0 and prices:
            best = prices[-1] if opposite is Side.BID else prices[0]
            if order.kind is OrderKind.LIMIT:
                crosses = best >= order.price_ticks if opposite is Side.BID else best <= order.price_ticks
                if not crosses:
                    break
            level = levels[best]
            queue = level.queue
            while remaining > 0 and level.count:
                maker = queue[0]
                if orders.get(maker.order_id) is not maker:  # removed earlier
                    queue.popleft()
                    continue
                if not self.allow_self_trade and maker.agent_id == order.agent_id:
                    queue.popleft()
                    level.total_quantity -= maker.quantity
                    level.count -= 1
                    del orders[maker.order_id]
                    self.self_trade_cancels.append(maker)
                    continue
                take = min(remaining, maker.quantity)
                fills.append(Fill(order.order_id, maker.order_id, best, take, maker.agent_id))
                maker.quantity -= take
                level.total_quantity -= take
                remaining -= take
                if maker.quantity == 0:
                    queue.popleft()
                    level.count -= 1
                    del orders[maker.order_id]
            if not level.count:
                del levels[best]
                prices.pop(-1 if opposite is Side.BID else 0)
        if fills:
            self.last_trade_price = fills[-1].price_ticks
        if remaining > 0 and order.kind is OrderKind.LIMIT:
            order.quantity = remaining
            self._rest(order)
            return SubmitResult(fills, order)
        return SubmitResult(fills, None)

    def cancel(self, order_id: int) -> int:
        """Remove a resting order entirely; returns the quantity removed,
        0 when the id is unknown or already gone."""
        order = self._orders.pop(order_id, None)
        if order is None:
            return 0
        self._snapshots.clear()
        self._unlink(order)
        return order.quantity

    def reduce(self, order_id: int, by: int) -> int:
        """Shrink a resting order in place, keeping its queue position.
        Returns the remaining quantity (0 means removed)."""
        if by <= 0:
            raise InvalidOrderError("reduce amount must be positive")
        order = self._orders.get(order_id)
        if order is None:
            raise OrderNotFoundError(f"order {order_id} is not resting")
        self._snapshots.clear()
        removed = min(by, order.quantity)
        order.quantity -= removed
        self._levels[order.side][order.price_ticks].total_quantity -= removed
        if order.quantity == 0:
            del self._orders[order_id]
            self._unlink(order)
        return order.quantity

    def _rest(self, order: Order) -> None:
        levels = self._levels[order.side]
        level = levels.get(order.price_ticks)
        if level is None:
            level = levels[order.price_ticks] = PriceLevel()
            insort(self._prices[order.side], order.price_ticks)
        level.insert(order)
        self._orders[order.order_id] = order

    def _unlink(self, order: Order) -> None:
        """Take `order`, already dropped from `_orders`, off its level in
        O(1).  A level whose queue holds more than twice its live orders is
        rebuilt from them, so the queues stay O(resting orders)."""
        levels = self._levels[order.side]
        level = levels[order.price_ticks]
        level.total_quantity -= order.quantity
        level.count -= 1
        if not level.count:
            del levels[order.price_ticks]
            self._prices[order.side].remove(order.price_ticks)
        elif len(level.queue) > 2 * level.count:
            level.queue = deque(self.level_orders(order.side, order.price_ticks))
