"""Price-time-priority limit order book.

Prices are integer ticks (default tick = $0.0001, so LOBSTER dollar prices
map losslessly).  Each side is an ordered map price -> FIFO level; matching
walks best price first and fills at maker prices.  Unfilled market-order
remainders are cancelled, never converted to limit orders.

Single-owner mutable structure: all access is serialized through the
exchange agent on the kernel thread.  Snapshots are immutable value copies;
the book hands out the same one while the top-k value it shows is unchanged.

The hot paths read the enum members through the module aliases BID, ASK,
LIMIT and MARKET.  On CPython 3.11.7 a read of `Side.BID` goes through the
enum metaclass and took 178 ns, against 29 ns for a plain class attribute
and 6 ns for a module global (shared 2-vCPU VM); the order path made about
12 such reads per limit order.
"""

from __future__ import annotations

from bisect import insort
from collections import OrderedDict
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


class OrderKind(Enum):
    LIMIT = "LIMIT"
    MARKET = "MARKET"


# the members themselves, read as globals (see the module docstring)
BID, ASK = Side.BID, Side.ASK
LIMIT, MARKET = OrderKind.LIMIT, OrderKind.MARKET


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
    """A resting or incoming order.  Orders compare by identity; a resting
    order is the book's own object, whose quantity it cuts as the order
    fills or is reduced."""

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
        if self.kind is LIMIT and self.price_ticks <= 0:
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
    best-first (ascending).  Also the exchange's answer to a market-data
    query, sent as it is, so it carries that message's log tag."""

    tag = "market_data_reply"

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
    """One price's resting orders, keyed by order id in time priority
    (placed_at, then order id), and their total quantity.  Every entry is
    live: a cancel, a reduce to zero or a full fill deletes it in O(1).  A
    plain dict would not do: finding its first key steps over every slot
    that deletions at the head left behind."""

    orders: OrderedDict = field(default_factory=OrderedDict)
    total_quantity: int = 0

    def insert(self, order: Order) -> None:
        # Arrivals come in non-decreasing time, so almost always this is a
        # plain append; otherwise the later orders move behind this one.
        orders = self.orders
        self.total_quantity += order.quantity
        if not orders or next(reversed(orders.values())).placed_at < order.placed_at:
            orders[order.order_id] = order
            return
        key = (order.placed_at, order.order_id)
        later = []
        for prev in reversed(orders.values()):
            if (prev.placed_at, prev.order_id) <= key:
                break
            later.append(prev.order_id)
        orders[order.order_id] = order
        for order_id in reversed(later):
            orders.move_to_end(order_id)


class OrderBook:
    def __init__(self, allow_self_trade: bool = True):
        self.allow_self_trade = allow_self_trade
        self._levels: dict[Side, dict[int, PriceLevel]] = {BID: {}, ASK: {}}
        self._prices: dict[Side, list[int]] = {BID: [], ASK: []}  # ascending
        self._orders: dict[int, Order] = {}
        self.last_trade_price: Optional[int] = None
        # resting orders cancelled by self-trade prevention during the most
        # recent submit; only populated, and reset, when allow_self_trade is False
        self.self_trade_cancels: list[Order] = []
        # the current snapshot per depth; every change to the book clears it
        self._snapshots: dict[int, BookSnapshot] = {}
        # the last snapshot made per depth, which a rebuild reuses if equal
        self._last_snapshots: dict[int, BookSnapshot] = {}

    # -- queries ------------------------------------------------------------

    def best_bid(self) -> Optional[int]:
        prices = self._prices[BID]
        return prices[-1] if prices else None

    def best_ask(self) -> Optional[int]:
        prices = self._prices[ASK]
        return prices[0] if prices else None

    def order(self, order_id: int) -> Optional[Order]:
        return self._orders.get(order_id)

    def side_levels(self, side: Side) -> list:
        """All levels of one side, best price first: (price, total, count)."""
        prices = self._prices[side]
        ordered = reversed(prices) if side is BID else iter(prices)
        levels = self._levels[side]
        return [(p, levels[p].total_quantity, len(levels[p].orders)) for p in ordered]

    def level_orders(self, side: Side, price: int) -> list:
        """The orders resting at `price`, in time priority."""
        level = self._levels[side].get(price)
        return [] if level is None else list(level.orders.values())

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
        levels = self._levels[BID]
        bids = tuple([(p, levels[p].total_quantity) for p in self._prices[BID][:-k - 1:-1]])
        levels = self._levels[ASK]
        asks = tuple([(p, levels[p].total_quantity) for p in self._prices[ASK][:k]])
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
        for side in (BID, ASK):
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
        prevent = not self.allow_self_trade
        if prevent:
            self.self_trade_cancels = []
        fills: list[Fill] = []
        remaining = order.quantity
        # a buy takes the asks from the lowest up, a sell the bids from the top down
        buying = order.side is BID
        opposite = ASK if buying else BID
        prices = self._prices[opposite]
        levels = self._levels[opposite]
        head = 0 if buying else -1
        limit = order.kind is LIMIT
        price = order.price_ticks
        orders = self._orders
        while remaining > 0 and prices:
            best = prices[head]
            if limit and (best > price if buying else best < price):
                break
            level = levels[best]
            resting = level.orders
            while remaining > 0 and resting:
                maker = next(iter(resting.values()))
                if prevent and maker.agent_id == order.agent_id:
                    resting.popitem(last=False)
                    level.total_quantity -= maker.quantity
                    del orders[maker.order_id]
                    self.self_trade_cancels.append(maker)
                    continue
                take = min(remaining, maker.quantity)
                fills.append(Fill(order.order_id, maker.order_id, best, take, maker.agent_id))
                maker.quantity -= take
                level.total_quantity -= take
                remaining -= take
                if maker.quantity == 0:
                    resting.popitem(last=False)
                    del orders[maker.order_id]
            if not resting:
                del levels[best]
                prices.pop(head)
        if fills:
            self.last_trade_price = fills[-1].price_ticks
        if remaining > 0 and limit:
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
        O(1), and drop the level once it holds no order."""
        levels = self._levels[order.side]
        level = levels[order.price_ticks]
        level.total_quantity -= order.quantity
        del level.orders[order.order_id]
        if not level.orders:
            del levels[order.price_ticks]
            self._prices[order.side].remove(order.price_ticks)
