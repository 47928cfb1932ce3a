"""The synthetic flow generator as it was written over a full `OrderBook`
shadow, kept verbatim as the oracle for `lobsim.lobster.generate_synthetic`.

Slow on purpose: every placement goes through the real book, whose levels
grow to thousands of orders.  The columnar generator must draw the same
random numbers in the same order and so emit the same events.
"""

import math
from typing import Iterator

import numpy as np

from lobsim.book import Order, OrderBook, OrderKind, Side
from lobsim.kernel import NANOS_PER_SECOND
from lobsim.lobster import EventType, LobsterEvent, SyntheticFlowConfig


def reference_synthetic(config: SyntheticFlowConfig) -> Iterator[LobsterEvent]:
    """Seeded synthetic LOBSTER stream.

    A shadow book tracks resting synthetic orders so placements reference
    the live opposite best and cancellations target real resting orders.
    A cancel event with an empty shadow book degrades to a new limit order.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    shadow = OrderBook()
    alive: list[int] = []
    alive_pos: dict[int, int] = {}
    next_id = 1
    merged_rate = 2.0 * config.arrival_rate_per_side
    t_seconds = 0.0
    session_seconds = (config.session_end_ns - config.session_start_ns) / NANOS_PER_SECOND

    def drop(order_id: int) -> None:
        pos = alive_pos.pop(order_id)
        last = alive.pop()
        if pos < len(alive):
            alive[pos] = last
            alive_pos[last] = pos

    while True:
        t_seconds += rng.exponential(1.0 / merged_rate)
        if t_seconds > session_seconds:
            return
        time_ns = config.session_start_ns + int(round(t_seconds * NANOS_PER_SECOND))
        if alive and rng.random() < config.cancel_probability:
            target_id = alive[int(rng.integers(len(alive)))]
            target = shadow.order(target_id)
            if target.quantity > 1 and rng.random() < 0.5:
                cut = int(rng.integers(1, target.quantity))
                shadow.reduce(target_id, cut)
                yield LobsterEvent(time_ns, EventType.PARTIAL_CANCEL, target_id,
                                   cut, target.price_ticks,
                                   1 if target.side is Side.BID else -1)
            else:
                removed = shadow.cancel(target_id)
                drop(target_id)
                yield LobsterEvent(time_ns, EventType.DELETE, target_id,
                                   removed, target.price_ticks,
                                   1 if target.side is Side.BID else -1)
            continue
        side = Side.BID if rng.random() < 0.5 else Side.ASK
        size = max(1, math.ceil(rng.gamma(config.size_gamma_shape, config.size_gamma_scale)))
        offset = int(rng.geometric(config.placement_geometric_p))
        if side is Side.BID:
            reference = shadow.best_ask()
            if reference is None:
                reference = config.initial_mid_ticks + 1
            price = max(1, reference - offset)
        else:
            reference = shadow.best_bid()
            if reference is None:
                reference = config.initial_mid_ticks - 1
            price = reference + offset
        order = Order(next_id, -1, side, price, size, OrderKind.LIMIT, time_ns)
        result = shadow.submit(order)
        assert not result.fills, "synthetic placement must not cross"
        alive_pos[next_id] = len(alive)
        alive.append(next_id)
        yield LobsterEvent(time_ns, EventType.NEW_LIMIT, next_id, size, price,
                           1 if side is Side.BID else -1)
        next_id += 1

