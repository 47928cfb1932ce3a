"""Replays a historical or synthetic LOBSTER flow into the exchange, walking
its columns with a cursor.

Event mapping:
  type 1 -> LimitOrder under the event's own order id
  type 2 -> partial CancelOrder (reduce by the event size)
  type 3 -> full CancelOrder
  type 4 -> a market order for the executed size on the side opposite the
            resting order, which reproduces the trade without force-filling
  types 5 and 7 -> skipped, counted
Events stamped at or before the kernel start time are submitted in one
burst at start (fast-forward warmup).

The agent reads a flow that may still be growing.  In an episode, a forked
helper makes the synthetic day (`lobster.stream_synthetic`) and the rows it
has sent so far are in the columns.  `on_wakeup` waits on the helper, with
`flow.pull()`, only when its cursor reaches the end of those rows.
`on_stop` waits for the rest of the day and so reaps the helper: the day is
whole afterwards, for `events_total` and for a second run on the same day.
"""

from __future__ import annotations

from typing import Iterable

from ..book import ASK, BID
from ..kernel import SimTime
from ..lobster import EventType, FlowColumns, LobsterEvent
from ..messages import EXCHANGE_ID, CancelOrder, LimitOrder, MarketOrder
from .base import TradingAgent

# the event types as plain ints, read once: `EventType.NEW_LIMIT` is an enum
# class-attribute lookup, which would be paid on every row
NEW_LIMIT, PARTIAL_CANCEL, DELETE, EXECUTE_VISIBLE = map(int, (
    EventType.NEW_LIMIT, EventType.PARTIAL_CANCEL, EventType.DELETE, EventType.EXECUTE_VISIBLE))


class MarketReplayAgent(TradingAgent):
    def __init__(self, events: Iterable[LobsterEvent], name: str = "replay"):
        super().__init__(name)
        self.flow = FlowColumns.of(events)
        self._cursor = 0
        self.submitted = 0
        self.skipped: dict[str, int] = {}
        self.type4_market_orders = 0

    def on_start(self, kernel) -> None:
        self.kernel.schedule_wakeup(self.agent_id, kernel.config.start_time)

    def on_wakeup(self, now: SimTime) -> None:
        flow = self.flow
        times = flow.time
        cursor = self._cursor
        while True:
            end = len(times)
            while cursor < end and times[cursor] <= now:
                self._submit(cursor)
                cursor += 1
            if cursor < end or not flow.pull():
                break
        self._cursor = cursor
        if cursor < end and times[cursor] <= self.kernel.config.stop_time:
            self.kernel.schedule_wakeup(self.agent_id, times[cursor])

    def on_stop(self) -> None:
        self.flow.finish()

    def _submit(self, row: int) -> None:
        flow = self.flow
        event_type = flow.type[row]
        side = BID if flow.direction[row] == 1 else ASK
        if event_type == NEW_LIMIT:
            payload = LimitOrder(flow.id[row], side, flow.size[row], flow.price[row])
        elif event_type == PARTIAL_CANCEL:
            payload = CancelOrder(flow.id[row], flow.size[row])
        elif event_type == DELETE:
            payload = CancelOrder(flow.id[row])
        elif event_type == EXECUTE_VISIBLE:
            # the aggressor of a visible execution sits opposite the resting
            # order the event describes
            payload = MarketOrder(self.next_order_id(), side.opposite, flow.size[row])
            self.type4_market_orders += 1
        else:
            key = EventType(event_type).name.lower()
            self.skipped[key] = self.skipped.get(key, 0) + 1
            return
        self.kernel.send(self.agent_id, EXCHANGE_ID, payload)
        self.submitted += 1

    def state_summary(self) -> dict:
        return {
            "submitted": self.submitted,
            "skipped": dict(sorted(self.skipped.items())),
            "type4_market_orders": self.type4_market_orders,
            "events_total": len(self.flow),
        }
