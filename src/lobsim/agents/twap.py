"""TWAP benchmark: the parent order split evenly across period boundaries
and sent as market orders.

The agent runs the same query-then-act period loop as the learning agent
(market-data query at each boundary, child order on the reply) so paired
comparisons see identical timing.
"""

from __future__ import annotations

from ..book import BookSnapshot
from ..kernel import SimTime
from ..messages import OrderExecuted
from ..rl import ActionSpace, EpisodeResult, PLACEMENT_MARKET
from .base import TradingAgent
from .ddql import DDQLConfig


class TWAPExecutionAgent(TradingAgent):
    """Trades the parent order of a DDQLConfig, reading only its side,
    quantity, session start, period and period count.

    Period i starts at session_start + i * period and sends base + (i <
    remainder) shares, base and remainder being the parent quantity's
    quotient and remainder by the period count, so the sizes sum to the
    parent and the remainder goes to the earliest periods."""

    def __init__(self, config: DDQLConfig, name: str = "twap"):
        config.validate()
        super().__init__(name)
        self.config = config
        self._base, self._remainder = divmod(config.parent_quantity, config.num_periods)
        # every period is the same action: the TWAP child at multiplier 1.0
        self.action = ActionSpace().encode(1.0, PLACEMENT_MARKET)
        self._notional = 0  # sum of quantity * price over every fill, in ticks
        self.result = EpisodeResult(episode=0, parent_quantity=config.parent_quantity)

    def on_start(self, kernel) -> None:
        self.kernel.schedule_wakeup(self.agent_id, self.config.session_start)

    def on_wakeup(self, now: SimTime) -> None:
        # one query per period, and so one reply, which acts
        self.query_market_data(depth=1)

    def on_message(self, now: SimTime, sender_id: int, payload) -> None:
        if isinstance(payload, BookSnapshot):
            self._act(payload)
        elif isinstance(payload, OrderExecuted):
            self._notional += payload.quantity * payload.price
            self.result.filled_quantity += payload.quantity

    def _act(self, snapshot: BookSnapshot) -> None:
        mid = snapshot.mid_price
        if self.result.arrival_price is None and mid is not None:
            self.result.arrival_price = mid
        config = self.config
        trace = self.result.action_trace
        i = len(trace)
        quantity = self._base + (i < self._remainder)
        if quantity > 0:
            self.send_market(config.side, quantity)
        trace.append(self.action)
        if i + 1 < config.num_periods:
            self.kernel.schedule_wakeup(self.agent_id,
                                        config.session_start + (i + 1) * config.period)

    def on_stop(self) -> None:
        if self.result.filled_quantity > 0:
            self.result.fill_vwap = self._notional / self.result.filled_quantity

    def state_summary(self) -> dict:
        return {
            "filled_quantity": self.result.filled_quantity,
            "fill_vwap": self.result.fill_vwap,
            "arrival_price": self.result.arrival_price,
        }
