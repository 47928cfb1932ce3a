"""Shared plumbing for agents that talk to the exchange."""

from __future__ import annotations

from ..book import Side
from ..kernel import Agent
from ..messages import EXCHANGE_ID, CancelOrder, LimitOrder, MarketDataQuery, MarketOrder

# Each agent's order ids live in a disjoint band so they can never collide
# with replayed historical ids (which are far smaller in practice).
ORDER_ID_BAND = 10**12


class TradingAgent(Agent):
    """An agent that submits orders to the exchange at EXCHANGE_ID."""

    def __init__(self, name: str = ""):
        super().__init__(name)
        self._order_seq = 0
        self._queries: dict[int, MarketDataQuery] = {}  # one frozen query per depth

    def next_order_id(self) -> int:
        self._order_seq += 1
        return (self.agent_id + 1) * ORDER_ID_BAND + self._order_seq

    def send_limit(self, side: Side, quantity: int, price_ticks: int) -> int:
        order_id = self.next_order_id()
        self.kernel.send(self.agent_id, EXCHANGE_ID,
                         LimitOrder(order_id, side, quantity, price_ticks))
        return order_id

    def send_market(self, side: Side, quantity: int) -> int:
        order_id = self.next_order_id()
        self.kernel.send(self.agent_id, EXCHANGE_ID,
                         MarketOrder(order_id, side, quantity))
        return order_id

    def send_cancel(self, order_id: int) -> None:
        self.kernel.send(self.agent_id, EXCHANGE_ID, CancelOrder(order_id))

    def query_market_data(self, depth: int = 3) -> None:
        query = self._queries.get(depth)
        if query is None:
            query = self._queries[depth] = MarketDataQuery(depth)
        self.kernel.send(self.agent_id, EXCHANGE_ID, query)
