"""Payload types exchanged between trading agents and the exchange.

The exchange answers a MarketDataQuery with the book's `book.BookSnapshot`
as the payload; the reply has no type of its own.

Order ids are assigned by the sender.  Trading agents draw from a per-agent
namespace (see agents.base.TradingAgent.next_order_id) so replayed
historical ids and simulated ids never collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .book import Side

# The exchange's kernel id: every roster registers the exchange first.
EXCHANGE_ID = 0


@dataclass(frozen=True, slots=True)
class LimitOrder:
    tag = "limit_order"

    order_id: int
    side: Side
    quantity: int
    price: int  # integer ticks

    def summary(self) -> str:
        return f"#{self.order_id} {self.side.name} {self.quantity}@{self.price}"

    def detail(self) -> dict:
        return {"order_id": self.order_id, "side": self.side.name,
                "quantity": self.quantity, "price": self.price}


@dataclass(frozen=True, slots=True)
class MarketOrder:
    tag = "market_order"

    order_id: int
    side: Side
    quantity: int

    def summary(self) -> str:
        return f"#{self.order_id} {self.side.name} {self.quantity}@MKT"

    def detail(self) -> dict:
        return {"order_id": self.order_id, "side": self.side.name, "quantity": self.quantity}


@dataclass(frozen=True, slots=True)
class CancelOrder:
    """Full delete when quantity is None, otherwise reduce by `quantity`."""

    tag = "cancel_order"

    order_id: int
    quantity: Optional[int] = None

    def summary(self) -> str:
        amount = "all" if self.quantity is None else str(self.quantity)
        return f"#{self.order_id} -{amount}"

    def detail(self) -> dict:
        return {"order_id": self.order_id, "quantity": self.quantity}


@dataclass(frozen=True, slots=True)
class OrderAccepted:
    tag = "order_accepted"

    order_id: int

    def summary(self) -> str:
        return f"#{self.order_id}"


@dataclass(frozen=True, slots=True)
class OrderExecuted:
    tag = "order_executed"

    order_id: int
    quantity: int
    price: int

    def summary(self) -> str:
        return f"#{self.order_id} {self.quantity}@{self.price}"

    def detail(self) -> dict:
        return {"order_id": self.order_id, "quantity": self.quantity, "price": self.price}


@dataclass(frozen=True, slots=True)
class OrderCancelled:
    """Quantity removed from the book (or rejected), with the reason.

    Also serves as the rejection notice: reason "rejected:<detail>" with
    the full requested quantity.
    """

    tag = "order_cancelled"

    order_id: int
    quantity: int
    reason: str = "cancelled"

    def summary(self) -> str:
        return f"#{self.order_id} {self.quantity} ({self.reason})"


@dataclass(frozen=True, slots=True)
class MarketDataQuery:
    tag = "market_data_query"

    depth: int = 3

    def summary(self) -> str:
        return f"depth={self.depth}"
