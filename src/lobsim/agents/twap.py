"""TWAP benchmark: the parent order split evenly across period boundaries
and sent as market orders.

The agent runs the same query-then-act period loop as the learning agent
(market-data query at each boundary, child order on the reply) so paired
comparisons see identical timing.
"""

from __future__ import annotations

from ..kernel import SimTime
from ..messages import MarketDataReply, OrderExecuted
from ..rl import ActionSpace, EpisodeResult, PLACEMENT_MARKET
from .base import TradingAgent
from .ddql import DDQLConfig


def twap_schedule(config: DDQLConfig) -> list:
    """(time, quantity) per period boundary; quantities sum to the parent
    quantity, remainder shares going to the earliest periods."""
    config.validate()
    periods = config.num_periods
    base, remainder = divmod(config.parent_quantity, periods)
    return [
        (config.session_start + i * config.period, base + (1 if i < remainder else 0))
        for i in range(periods)
    ]


class TWAPExecutionAgent(TradingAgent):
    """Trades the parent order of a DDQLConfig, reading only its side,
    quantity, session start, period, period count and action grid."""

    def __init__(self, config: DDQLConfig, name: str = "twap"):
        super().__init__(name)
        self.config = config
        self.schedule = twap_schedule(config)
        # every period is the same action: the TWAP child at multiplier 1.0
        self.action = ActionSpace(config.multipliers).encode(1.0, PLACEMENT_MARKET)
        self._notional = 0  # sum of quantity * price over every fill, in ticks
        self.result = EpisodeResult(episode=0, parent_quantity=config.parent_quantity)

    def on_start(self, kernel) -> None:
        self.kernel.schedule_wakeup(self.agent_id, self.schedule[0][0])

    def on_wakeup(self, now: SimTime) -> None:
        # one query per period, and so one reply, which acts
        self.query_market_data(depth=1)

    def on_message(self, now: SimTime, sender_id: int, payload) -> None:
        if isinstance(payload, MarketDataReply):
            self._act(payload)
        elif isinstance(payload, OrderExecuted):
            self._notional += payload.quantity * payload.price
            self.result.filled_quantity += payload.quantity

    def _act(self, payload: MarketDataReply) -> None:
        mid = payload.snapshot.mid_price
        if self.result.arrival_price is None and mid is not None:
            self.result.arrival_price = mid
        trace = self.result.action_trace
        quantity = self.schedule[len(trace)][1]
        if quantity > 0:
            self.send_market(self.config.side, quantity)
        trace.append(self.action)
        if len(trace) < len(self.schedule):
            self.kernel.schedule_wakeup(self.agent_id, self.schedule[len(trace)][0])

    def on_stop(self) -> None:
        if self.result.filled_quantity > 0:
            self.result.fill_vwap = self._notional / self.result.filled_quantity

    def state_summary(self) -> dict:
        return {
            "filled_quantity": self.result.filled_quantity,
            "fill_vwap": self.result.fill_vwap,
            "arrival_price": self.result.arrival_price,
        }
