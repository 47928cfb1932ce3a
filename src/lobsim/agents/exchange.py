"""The exchange: owns the book, matches orders, answers market-data queries.

Every order the exchange rests carries its sender's id as `agent_id`, so
every resting order's owner is a registered agent.  That field is the one
record of ownership: fills, cancels and self-trade notices are routed by it.

Notification protocol, in emission order per inbound message:
  * each fill -> OrderExecuted to the taker's owner and to the maker's owner
  * a resting remainder -> OrderAccepted to the sender
  * an unfilled market remainder -> OrderCancelled(reason "unfilled")
  * CancelOrder -> OrderCancelled ack with the removed quantity
    (reason "not_found" with quantity 0 when the id is not resting;
    "rejected:not_owner" when another agent's order rests under the id)
  * malformed or duplicate orders -> OrderCancelled(reason "rejected:...")
  * MarketDataQuery -> MarketDataReply with a depth-k snapshot; while the
    snapshot's value is unchanged every query of that depth gets the same
    reply object
"""

from __future__ import annotations

from typing import Optional

from ..book import BookError, Order, OrderBook, OrderKind
from ..kernel import Agent, SimTime
from ..messages import (
    CancelOrder,
    LimitOrder,
    MarketDataQuery,
    MarketDataReply,
    MarketOrder,
    OrderAccepted,
    OrderCancelled,
    OrderExecuted,
)


class ExchangeAgent(Agent):
    def __init__(self, allow_self_trade: bool = True, name: str = "exchange"):
        super().__init__(name)
        self.book = OrderBook(allow_self_trade=allow_self_trade)
        # the last reply sent; resent while the book returns the same snapshot
        self._reply: Optional[MarketDataReply] = None

    def on_message(self, now: SimTime, sender_id: int, payload) -> None:
        # queries are most of the traffic, so they are tested first
        if isinstance(payload, MarketDataQuery):
            snapshot = self.book.snapshot(payload.depth)
            reply = self._reply
            if reply is None or reply.snapshot is not snapshot:
                reply = self._reply = MarketDataReply(snapshot)
            self.kernel.send(self.agent_id, sender_id, reply)
            return
        if isinstance(payload, LimitOrder):
            self._handle_order(now, sender_id, payload, OrderKind.LIMIT)
        elif isinstance(payload, MarketOrder):
            self._handle_order(now, sender_id, payload, OrderKind.MARKET)
        elif isinstance(payload, CancelOrder):
            self._handle_cancel(sender_id, payload)
        else:
            self._send(sender_id, OrderCancelled(-1, 0, "rejected:unsupported_payload"))

    def _handle_order(self, now: SimTime, sender_id: int, payload, kind: OrderKind) -> None:
        price = payload.price if kind is OrderKind.LIMIT else 0
        order = Order(payload.order_id, sender_id, payload.side, price,
                      payload.quantity, kind, now)
        try:
            fills, resting = self.book.submit(order)
        except BookError as exc:
            self._send(sender_id, OrderCancelled(payload.order_id, payload.quantity,
                                                 f"rejected:{exc}"))
            return
        for cancelled in self.book.self_trade_cancels:
            self._send(cancelled.agent_id,
                       OrderCancelled(cancelled.order_id, cancelled.quantity,
                                      "self_trade_prevented"))
        self._notify_fills(sender_id, fills)
        if resting is not None:
            self._send(sender_id, OrderAccepted(payload.order_id))
        elif kind is OrderKind.MARKET:
            unfilled = payload.quantity - sum(f.quantity for f in fills)
            if unfilled > 0:
                self._send(sender_id, OrderCancelled(payload.order_id, unfilled, "unfilled"))

    def _notify_fills(self, taker_owner: int, fills) -> None:
        for fill in fills:
            self._send(taker_owner,
                       OrderExecuted(fill.taker_order_id, fill.quantity, fill.price_ticks))
            self._send(fill.maker_agent_id,
                       OrderExecuted(fill.maker_order_id, fill.quantity, fill.price_ticks))

    def _handle_cancel(self, sender_id: int, payload: CancelOrder) -> None:
        order = self.book.order(payload.order_id)
        if order is None:
            self._send(sender_id, OrderCancelled(payload.order_id, 0, "not_found"))
        elif order.agent_id != sender_id:
            self._send(sender_id, OrderCancelled(payload.order_id, 0, "rejected:not_owner"))
        elif payload.quantity is None:
            removed = self.book.cancel(payload.order_id)
            self._send(sender_id, OrderCancelled(payload.order_id, removed, "cancelled"))
        else:
            before = order.quantity
            try:
                remaining = self.book.reduce(payload.order_id, payload.quantity)
            except BookError as exc:
                self._send(sender_id, OrderCancelled(payload.order_id, 0, f"rejected:{exc}"))
                return
            self._send(sender_id, OrderCancelled(payload.order_id, before - remaining,
                                                 "reduced"))

    def _send(self, recipient_id: int, payload) -> None:
        self.kernel.send(self.agent_id, recipient_id, payload)

    def state_summary(self) -> dict:
        return {
            "resting_quantity": self.book.resting_quantity(),
            "best_bid": self.book.best_bid(),
            "best_ask": self.book.best_ask(),
            "last_trade_price": self.book.last_trade_price,
        }
