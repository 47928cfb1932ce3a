"""LOBSTER message-file parsing, canonical serialization, and synthetic flow.

A message file is headerless CSV with six columns:
time_seconds, event_type, order_id, size, price, direction
where price is dollars x 10,000 (= integer ticks at the default tick size)
and direction is +1 for buy orders, -1 for sell.

Synthetic flow substitutes for proprietary exchange data: a merged Poisson
event stream whose per-side arrivals, gamma order sizes, and geometric
price offsets are all recoverable by the realism metrics.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from enum import IntEnum
from typing import Iterable, Iterator, Optional

import numpy as np

from .book import Order, OrderBook, OrderKind, Side
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

    def to_csv_row(self) -> str:
        """Canonical formatting: seconds with exactly nine fractional digits."""
        sec, nanos = divmod(self.time_ns, NANOS_PER_SECOND)
        return f"{sec}.{nanos:09d},{int(self.event_type)},{self.order_id},{self.size},{self.price},{self.direction}"


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
    count = 0
    with open(path, "w") as fh:
        for event in events:
            fh.write(event.to_csv_row())
            fh.write("\n")
            count += 1
    return count


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
        if not 0 < self.placement_geometric_p <= 1:
            raise ValueError("placement_geometric_p must be in (0, 1]")
        if not 0 <= self.cancel_probability < 1:
            raise ValueError("cancel_probability must be in [0, 1)")
        if self.initial_mid_ticks <= 1:
            raise ValueError("initial_mid_ticks must exceed one tick")
        if self.session_start_ns >= self.session_end_ns:
            raise ValueError("session start must precede end")


def generate_synthetic(config: SyntheticFlowConfig) -> Iterator[LobsterEvent]:
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
                                   cut, target.price_ticks, target.side.sign)
            else:
                removed = shadow.cancel(target_id)
                drop(target_id)
                yield LobsterEvent(time_ns, EventType.DELETE, target_id,
                                   removed, target.price_ticks, target.side.sign)
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
        yield LobsterEvent(time_ns, EventType.NEW_LIMIT, next_id, size, price, side.sign)
        next_id += 1


def generate_to_file(config: SyntheticFlowConfig, path) -> dict:
    """Write a synthetic stream plus a metadata sidecar (<path>.meta.json);
    returns the sidecar contents."""
    counts: dict[str, int] = {}
    total = 0

    def counting(stream):
        nonlocal total
        for event in stream:
            key = event.event_type.name.lower()
            counts[key] = counts.get(key, 0) + 1
            total += 1
            yield event

    write_message_file(counting(generate_synthetic(config)), path)
    sidecar = {
        "config": asdict(config),
        "event_counts": dict(sorted(counts.items())),
        "total_events": total,
        "merged_rate_per_second": 2.0 * config.arrival_rate_per_side,
    }
    sidecar_path = str(path) + ".meta.json"
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar
