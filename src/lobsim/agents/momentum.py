"""Momentum trader: polls the mid-price and joins the touch when the short
moving average pulls away from the long one."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

from ..book import Side
from ..kernel import NANOS_PER_SECOND, SimTime
from ..messages import MarketDataReply, OrderCancelled, OrderExecuted
from .base import TradingAgent


@dataclass
class MomentumConfig:
    short_window: int = 20
    long_window: int = 50
    order_size: int = 10
    poll_interval: SimTime = NANOS_PER_SECOND

    def validate(self) -> None:
        if not 0 < self.short_window < self.long_window:
            raise ValueError("need 0 < short_window < long_window")
        if self.order_size <= 0:
            raise ValueError("order_size must be positive")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")


def momentum_decide(mid_history: Sequence[float], short_window: int = 20,
                    long_window: int = 50) -> Optional[Side]:
    """BID when the short-window mean exceeds the long-window mean, ASK when
    below, None on a tie or insufficient history.  Only the trailing
    long_window observations matter."""
    n = len(mid_history)
    if n < long_window:
        return None
    short_mean = sum(islice(mid_history, n - short_window, None)) / short_window
    long_mean = sum(islice(mid_history, n - long_window, None)) / long_window
    if short_mean > long_mean:
        return Side.BID
    if short_mean < long_mean:
        return Side.ASK
    return None


class MomentumAgent(TradingAgent):
    """Polls every poll_interval, keeps a mid-price history, and maintains at
    most one resting limit order at its own side's best price."""

    def __init__(self, config: MomentumConfig, poll_offset: SimTime = 0,
                 name: str = "momentum"):
        config.validate()
        super().__init__(name)
        self.config = config
        self.poll_offset = poll_offset
        self.mids: deque = deque(maxlen=config.long_window)
        self.open_order_id: Optional[int] = None
        self.orders_placed = 0
        self.filled_quantity = 0

    def on_start(self, kernel) -> None:
        self.kernel.schedule_wakeup(self.agent_id, kernel.config.start_time + self.poll_offset)

    def on_wakeup(self, now: SimTime) -> None:
        self.query_market_data(depth=1)
        next_poll = now + self.config.poll_interval
        if next_poll <= self.kernel.config.stop_time:
            self.kernel.schedule_wakeup(self.agent_id, next_poll)

    def on_message(self, now: SimTime, sender_id: int, payload) -> None:
        if isinstance(payload, MarketDataReply):
            self._on_quote(payload)
        elif isinstance(payload, OrderExecuted):
            # the exchange sends an agent only its own executions, those
            # racing a cancel included
            self.filled_quantity += payload.quantity
        elif isinstance(payload, OrderCancelled):
            if payload.order_id == self.open_order_id:
                self.open_order_id = None

    def _on_quote(self, payload: MarketDataReply) -> None:
        snapshot = payload.snapshot
        mid = snapshot.mid_price
        if mid is None:
            return
        self.mids.append(mid)
        side = momentum_decide(self.mids, self.config.short_window, self.config.long_window)
        if side is None:
            return
        touch = snapshot.best_bid if side is Side.BID else snapshot.best_ask
        if touch is None:
            return
        if self.open_order_id is not None:
            self.send_cancel(self.open_order_id)
        self.open_order_id = self.send_limit(side, self.config.order_size, touch[0])
        self.orders_placed += 1

    def state_summary(self) -> dict:
        return {"orders_placed": self.orders_placed, "filled_quantity": self.filled_quantity}
