"""LOBSTER message files, flow columns, and synthetic flow.

A message file is headerless CSV with six columns:
time_seconds, event_type, order_id, size, price, direction
where price is dollars x 10,000 (= integer ticks at the default tick size)
and direction is +1 for buy orders, -1 for sell.

In memory a flow is `FlowColumns`, the same six fields as int64 columns
with time in nanoseconds; a `LobsterEvent` is one row of it.

Synthetic flow substitutes for proprietary exchange data: a merged Poisson
event stream whose per-side arrivals, gamma order sizes, and geometric
price offsets are all recoverable by the realism metrics.
"""

from __future__ import annotations

import json
import math
import warnings
from array import array
from bisect import insort
from dataclasses import asdict, dataclass, field
from enum import IntEnum
from functools import partial
from typing import Iterable, Iterator, Optional

import numpy as np

from .book import Side
from .kernel import NANOS_PER_SECOND, SimTime, time_from_str


class EventType(IntEnum):
    NEW_LIMIT = 1
    PARTIAL_CANCEL = 2
    DELETE = 3
    EXECUTE_VISIBLE = 4
    EXECUTE_HIDDEN = 5
    HALT = 7


class LobsterParseError(Exception):
    def __init__(self, line_number: int, reason: str, path=None):
        where = f"line {line_number}" if path is None else f"{path}: line {line_number}"
        super().__init__(f"{where}: {reason}")
        self.line_number = line_number
        self.reason = reason


@dataclass(frozen=True, slots=True)
class LobsterEvent:
    time_ns: SimTime
    event_type: EventType
    order_id: int
    size: int
    price: int
    direction: int  # +1 buy, -1 sell

    @property
    def side(self) -> Side:
        return Side.BID if self.direction == 1 else Side.ASK

    def validate(self) -> Optional[str]:
        """Returns a reason string when a field violates the format, else None."""
        if self.time_ns < 0:
            return "negative time"
        if self.event_type in (EventType.NEW_LIMIT, EventType.PARTIAL_CANCEL, EventType.DELETE,
                               EventType.EXECUTE_VISIBLE, EventType.EXECUTE_HIDDEN) and self.size <= 0:
            return f"size must be positive for event type {int(self.event_type)}"
        if self.event_type in (EventType.NEW_LIMIT, EventType.PARTIAL_CANCEL, EventType.DELETE,
                               EventType.EXECUTE_VISIBLE) and self.price <= 0:
            return f"price must be positive for event type {int(self.event_type)}"
        if self.direction not in (1, -1):
            return f"direction must be +1 or -1, got {self.direction}"
        return None


@dataclass(repr=False)
class FlowColumns:
    """An order flow as six int64 columns, one row per event.  A column
    indexes to Python ints and `np.frombuffer(column, np.int64)` views it
    without a copy; iterating the flow yields its rows as `LobsterEvent`s."""

    time: array = field(default_factory=partial(array, "q"))  # ns after midnight
    type: array = field(default_factory=partial(array, "q"))  # EventType value
    id: array = field(default_factory=partial(array, "q"))
    size: array = field(default_factory=partial(array, "q"))
    price: array = field(default_factory=partial(array, "q"))
    direction: array = field(default_factory=partial(array, "q"))  # +1 buy, -1 sell

    @classmethod
    def of(cls, events: Iterable[LobsterEvent]) -> FlowColumns:
        """`events` itself when it is a FlowColumns, else a columnar copy."""
        if isinstance(events, cls):
            return events
        rows = [(e.time_ns, e.event_type, e.order_id, e.size, e.price, e.direction)
                for e in events]
        return cls(*(array("q", column) for column in zip(*rows)))

    def columns(self) -> tuple:
        return self.time, self.type, self.id, self.size, self.price, self.direction

    def __len__(self) -> int:
        return len(self.time)

    def __iter__(self) -> Iterator[LobsterEvent]:
        for time_ns, event_type, *rest in zip(*self.columns()):
            yield LobsterEvent(time_ns, EventType(event_type), *rest)


def parse_time_seconds(text: str) -> SimTime:
    """Decimal seconds after midnight -> integer nanoseconds, exactly."""
    text = text.strip()
    if "." in text:
        whole, frac = text.split(".", 1)
        if len(frac) > 9:
            frac = frac[:9]
        nanos = int(frac.ljust(9, "0")) if frac else 0
    else:
        whole, nanos = text, 0
    return int(whole) * NANOS_PER_SECOND + nanos


def parse_line(line: str, line_number: int) -> LobsterEvent:
    parts = line.strip().split(",")
    if len(parts) != 6:
        raise LobsterParseError(line_number, f"expected 6 columns, got {len(parts)}")
    try:
        time_ns = parse_time_seconds(parts[0])
        raw_type = int(parts[1])
        event = LobsterEvent(
            time_ns=time_ns,
            event_type=EventType(raw_type),
            order_id=int(parts[2]),
            size=int(parts[3]),
            price=int(parts[4]),
            direction=int(parts[5]),
        )
    except LobsterParseError:
        raise
    except ValueError as exc:
        raise LobsterParseError(line_number, str(exc)) from exc
    reason = event.validate()
    if reason is not None:
        raise LobsterParseError(line_number, reason)
    return event


def parse_message_file(path) -> Iterator[LobsterEvent]:
    """Yield events in file order.  Malformed rows, and bytes that are not
    UTF-8, raise LobsterParseError with the path and the 1-based line
    number; a time going backwards only warns."""
    last_time = None
    with open(path, "rb") as fh:
        for line_number, raw in enumerate(fh, start=1):
            try:
                line = raw.decode()
            except UnicodeDecodeError as exc:
                raise LobsterParseError(line_number, f"not UTF-8 text (byte {exc.start + 1})",
                                        path) from None
            if not line.strip():
                continue
            try:
                event = parse_line(line, line_number)
            except LobsterParseError as exc:
                raise LobsterParseError(line_number, exc.reason, path) from None
            if last_time is not None and event.time_ns < last_time:
                warnings.warn(
                    f"line {line_number}: time goes backwards "
                    f"({event.time_ns} < {last_time}); event kept",
                    stacklevel=2,
                )
            last_time = event.time_ns
            yield event


def write_message_file(events: Iterable[LobsterEvent], path) -> int:
    """Writes a flow as canonical CSV, time in seconds with exactly nine
    fractional digits; returns the number of rows."""
    flow = FlowColumns.of(events)
    with open(path, "w") as fh:
        for time_ns, event_type, order_id, size, price, direction in zip(*flow.columns()):
            sec, nanos = divmod(time_ns, NANOS_PER_SECOND)
            fh.write(f"{sec}.{nanos:09d},{event_type},{order_id},{size},{price},{direction}\n")
    return len(flow)


@dataclass
class SyntheticFlowConfig:
    """Parameters of the synthetic order-flow generator.

    Arrivals per side are Poisson(arrival_rate_per_side); the merged stream
    is Poisson at twice that with sides drawn uniformly.  Sizes are
    gamma(shape, scale) rounded up.  New limit prices sit a geometric number
    of ticks (>= 1) away from the opposite best, so generated flow never
    crosses the book.
    """

    arrival_rate_per_side: float = 1.0
    size_gamma_shape: float = 2.0
    size_gamma_scale: float = 50.0
    placement_geometric_p: float = 0.5
    cancel_probability: float = 0.2
    initial_mid_ticks: int = 1_000_000
    session_start_ns: SimTime = time_from_str("09:30:00")
    session_end_ns: SimTime = time_from_str("16:00:00")
    seed: int = 0

    def validate(self) -> None:
        # nan fails every comparison; an infinite rate would stop the clock
        if not 0 < self.arrival_rate_per_side < math.inf:
            raise ValueError("arrival_rate_per_side must be positive and finite")
        if not (0 < self.size_gamma_shape < math.inf and 0 < self.size_gamma_scale < math.inf):
            raise ValueError("size_gamma_shape and size_gamma_scale must be positive and finite")
        # an offset draw stays below about 45 / p ticks, so the floor keeps
        # every price far inside the int64 price column
        if not 1e-9 <= self.placement_geometric_p <= 1:
            raise ValueError("placement_geometric_p must be in [1e-9, 1]")
        if not 0 <= self.cancel_probability < 1:
            raise ValueError("cancel_probability must be in [0, 1)")
        if self.initial_mid_ticks <= 1:
            raise ValueError("initial_mid_ticks must exceed one tick")
        if self.session_start_ns >= self.session_end_ns:
            raise ValueError("session start must precede end")


def generate_synthetic(config: SyntheticFlowConfig) -> FlowColumns:
    """Seeded synthetic LOBSTER flow, as columns.

    A cancel picks a live order uniformly and cuts or deletes it; with no
    live order a new limit order is placed instead, behind the opposite
    best, so the flow never crosses.  The shadow keeps only what the draws
    read: id -> [direction, price, quantity, slot in `live`], live orders
    per price, and each side's prices in ascending order."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    exponential, random, integers = rng.exponential, rng.random, rng.integers
    flow = FlowColumns()
    add_time, add_type, add_id, add_size, add_price, add_direction = (
        column.append for column in flow.columns())
    orders: dict[int, list] = {}
    live: list[int] = []  # the ids a cancel draw indexes
    level_orders: dict[int, int] = {}  # one key space: the sides never share a price
    bids, asks = [], []
    next_id = 1
    gap_scale = 1.0 / (2.0 * config.arrival_rate_per_side)
    t_seconds = 0.0
    session_seconds = (config.session_end_ns - config.session_start_ns) / NANOS_PER_SECOND
    while True:
        t_seconds += exponential(gap_scale)
        if t_seconds > session_seconds:
            return flow
        add_time(config.session_start_ns + int(round(t_seconds * NANOS_PER_SECOND)))
        if live and random() < config.cancel_probability:
            order_id = live[int(integers(len(live)))]
            direction, price, quantity, slot = entry = orders[order_id]
            if quantity > 1 and random() < 0.5:
                size = int(integers(1, quantity))
                entry[2] = quantity - size
                add_type(EventType.PARTIAL_CANCEL)
            else:
                size = quantity
                live[slot] = last = live[-1]  # swap-remove, the last id moving into the slot
                orders[last][3] = slot
                live.pop()
                del orders[order_id]
                level_orders[price] -= 1
                if not level_orders[price]:
                    del level_orders[price]
                    (bids if direction == 1 else asks).remove(price)
                add_type(EventType.DELETE)
        else:
            direction = 1 if random() < 0.5 else -1
            size = max(1, math.ceil(rng.gamma(config.size_gamma_shape, config.size_gamma_scale)))
            offset = int(rng.geometric(config.placement_geometric_p))
            if direction == 1:
                price = max(1, (asks[0] if asks else config.initial_mid_ticks + 1) - offset)
            else:
                price = (bids[-1] if bids else config.initial_mid_ticks - 1) + offset
            order_id = next_id
            next_id += 1
            orders[order_id] = [direction, price, size, len(live)]
            live.append(order_id)
            level_orders[price] = level_orders.get(price, 0) + 1
            if level_orders[price] == 1:
                insort(bids if direction == 1 else asks, price)
            assert not (bids and asks and bids[-1] >= asks[0]), "placement crossed the book"
            add_type(EventType.NEW_LIMIT)
        add_id(order_id)
        add_size(size)
        add_price(price)
        add_direction(direction)


def generate_to_file(config: SyntheticFlowConfig, path) -> dict:
    """Write a synthetic stream plus a metadata sidecar (<path>.meta.json);
    returns the sidecar contents."""
    flow = generate_synthetic(config)
    write_message_file(flow, path)
    counts = {kind.name.lower(): flow.type.count(kind) for kind in EventType}
    sidecar = {
        "config": asdict(config),
        "event_counts": {name: n for name, n in sorted(counts.items()) if n},
        "total_events": len(flow),
        "merged_rate_per_second": 2.0 * config.arrival_rate_per_side,
    }
    sidecar_path = str(path) + ".meta.json"
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar
