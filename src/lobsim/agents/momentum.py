"""Momentum trader: polls the mid-price and joins the touch when the short
moving average pulls away from the long one.

The trader keeps a window of doubled mids (best bid + best ask, in ticks)
with the running sums of its last `short_window` and `long_window` entries,
and compares `short_sum * long_window` with `long_sum * short_window`, which
orders the two moving averages exactly.  That equals comparing the float
means of the mids while `long_sum * short_window * long_window < 2**52`
(every mid below about 2**35 ticks at the default windows): there the float
sums of these positive half-integers are exact, and two unequal means differ
by more than the rounding of both quotients.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..book import ASK, BID, BookSnapshot
from ..kernel import NANOS_PER_SECOND, SimTime
from ..messages import OrderCancelled, OrderExecuted
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
        if self.long_window > sys.maxsize:
            raise ValueError(f"long_window must be at most {sys.maxsize}, the longest deque")
        if self.order_size <= 0:
            raise ValueError("order_size must be positive")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")


class MomentumAgent(TradingAgent):
    """Polls every poll_interval, keeps the last long_window doubled mids
    with their running sums, and maintains at most one resting limit order
    at its own side's best price."""

    def __init__(self, config: MomentumConfig, poll_offset: SimTime = 0,
                 name: str = "momentum"):
        config.validate()
        super().__init__(name)
        self.config = config
        self.poll_offset = poll_offset
        self.doubled_mids: deque = deque(maxlen=config.long_window)
        self.short_sum = 0
        self.long_sum = 0
        self.open_order_id: Optional[int] = None
        self.orders_placed = 0
        self.filled_quantity = 0

    def on_start(self, kernel) -> None:
        self.kernel.schedule_wakeup(self.agent_id, kernel.config.start_time + self.poll_offset)

    def on_wakeup(self, now: SimTime) -> None:
        self.query_market_data(1)
        next_poll = now + self.config.poll_interval
        kernel = self.kernel
        if next_poll <= kernel.config.stop_time:
            kernel.schedule_wakeup(self.agent_id, next_poll)

    def on_message(self, now: SimTime, sender_id: int, payload) -> None:
        # snapshots are most of the traffic; an exact type test costs less than isinstance
        if type(payload) is BookSnapshot or isinstance(payload, BookSnapshot):
            self._on_quote(payload)
        elif isinstance(payload, OrderExecuted):
            # the exchange sends an agent only its own executions, those
            # racing a cancel included
            self.filled_quantity += payload.quantity
        elif isinstance(payload, OrderCancelled):
            if payload.order_id == self.open_order_id:
                self.open_order_id = None

    def _on_quote(self, snapshot: BookSnapshot) -> None:
        bids, asks = snapshot.bids, snapshot.asks
        if not (bids and asks):
            return
        config = self.config
        short_window, long_window = config.short_window, config.long_window
        doubled = bids[0][0] + asks[0][0]
        window = self.doubled_mids
        held = len(window)
        short_sum = self.short_sum + doubled
        if held >= short_window:
            short_sum -= window[-short_window]
        long_sum = self.long_sum + doubled
        if held == long_window:
            long_sum -= window[0]
        window.append(doubled)
        self.short_sum, self.long_sum = short_sum, long_sum
        if held + 1 < long_window:
            return
        lead = short_sum * long_window - long_sum * short_window
        if lead == 0:
            return
        side = BID if lead > 0 else ASK
        touch = bids[0] if side is BID else asks[0]
        if self.open_order_id is not None:
            self.send_cancel(self.open_order_id)
        self.open_order_id = self.send_limit(side, config.order_size, touch[0])
        self.orders_placed += 1

    def state_summary(self) -> dict:
        return {"orders_placed": self.orders_placed, "filled_quantity": self.filled_quantity}
