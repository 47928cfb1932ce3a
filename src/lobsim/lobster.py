"""LOBSTER message files, flow columns, and synthetic flow.

A message file is headerless CSV with six columns:
time_seconds, event_type, order_id, size, price, direction
where price is dollars x 10,000 (= integer ticks at the default tick size)
and direction is +1 for buy orders, -1 for sell.

A file is read straight into `FlowColumns`, the one in-memory form of a
flow: the same six fields as int64 columns, time in nanoseconds.  A
`LobsterEvent` is the row type that iterating the columns yields.

Synthetic flow substitutes for proprietary exchange data: a merged Poisson
event stream whose per-side arrivals, gamma order sizes, and geometric
price offsets are all recoverable by the realism metrics.  `stream_synthetic`
makes a day in a forked helper while its reader replays the rows already
made (see `StreamedFlow`).
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import tempfile
import warnings
from array import array
from bisect import insort
from dataclasses import asdict, dataclass, field
from enum import IntEnum
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

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

    # A FlowColumns holds its whole flow; a StreamedFlow is still being made.
    def pull(self) -> bool:
        """Waits for more rows; True when some came, False at the flow's end."""
        return False

    def finish(self) -> None:
        """Waits for the rest of the flow."""

    def close(self) -> None:
        """Stops whatever is still making the flow."""


# The grammar of a message-file row, column by column: ASCII digits, with
# whitespace allowed around each field.  The time is unsigned seconds with
# an optional fraction, of which the first nine digits count.
_INTEGER = rb"(-?[0-9]+)"
_GRAMMAR = {"time": rb"([0-9]+)(?:\.([0-9]*))?", "type": _INTEGER, "order_id": _INTEGER,
            "size": _INTEGER, "price": _INTEGER, "direction": rb"(-?1)"}
_FIELDS = {name: re.compile(rb"\s*%b\s*" % grammar) for name, grammar in _GRAMMAR.items()}
_ROW = re.compile(b",".join(pattern.pattern for pattern in _FIELDS.values()))
_EVENT_TYPES = frozenset(EventType)


def _row_fault(line: bytes) -> Optional[str]:
    """Why `line` does not fit the row grammar; None when it is blank."""
    try:
        if not line.decode().strip():
            return None
    except UnicodeDecodeError as exc:
        return f"not UTF-8 text (byte {exc.start + 1})"
    fields = line.split(b",")
    if len(fields) != len(_FIELDS):
        return f"expected {len(_FIELDS)} columns, got {len(fields)}"
    for (name, pattern), text in zip(_FIELDS.items(), fields):
        if not pattern.fullmatch(text):
            return f"malformed {name} field {text.strip().decode()!r}"


def _value_fault(event_type: int, size: int, price: int) -> Optional[str]:
    """Why a row that fits the grammar breaks the format, else None."""
    if event_type not in _EVENT_TYPES:
        return f"type {event_type} is not a LOBSTER event type"
    if size <= 0 and event_type != EventType.HALT:
        return f"size must be positive for event type {event_type}"
    if price <= 0 and event_type <= EventType.EXECUTE_VISIBLE:
        return f"price must be positive for event type {event_type}"


def parse_message_file(path) -> FlowColumns:
    """The file's rows as columns, in file order.  A row that breaks the
    grammar or the format, or bytes that are not UTF-8, raise
    LobsterParseError with the path and the 1-based line number; a time
    going backwards only warns."""
    flow = FlowColumns()
    appends = [column.append for column in flow.columns()]
    last_time = 0
    with open(path, "rb") as fh:
        for line_number, line in enumerate(fh, start=1):
            match = _ROW.fullmatch(line)
            if match is None:
                reason = _row_fault(line)
                if reason is None:
                    continue
                raise LobsterParseError(line_number, reason, path)
            whole, fraction, *fields = match.groups()
            time_ns = int(whole) * NANOS_PER_SECOND
            if fraction:
                time_ns += int(fraction[:9].ljust(9, b"0"))
            event_type, order_id, size, price, direction = map(int, fields)
            reason = _value_fault(event_type, size, price)
            if reason is not None:
                raise LobsterParseError(line_number, reason, path)
            if time_ns < last_time:
                warnings.warn(f"line {line_number}: time goes backwards "
                              f"({time_ns} < {last_time}); event kept", stacklevel=2)
            last_time = time_ns
            row = (time_ns, event_type, order_id, size, price, direction)
            for name, append, value in zip(_FIELDS, appends, row):
                try:
                    append(value)
                except OverflowError:
                    raise LobsterParseError(line_number, f"{name} is outside the int64 range",
                                            path) from None
    return flow


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
        # a gamma(k, theta) draw exceeds theta * (2k + 100) with probability
        # below 1e-34 (Chernoff), so every size fits the int64 size column
        largest = self.size_gamma_scale * (2 * self.size_gamma_shape + 100)
        if not largest < 2**63:
            raise ValueError("size_gamma_scale * (2 * size_gamma_shape + 100) must stay below "
                             f"2**63, so that every size fits int64, got {largest:.3g}")
        # an offset draw stays below about 45 / p ticks (4.5e10 at the
        # floor), and a mid below 2**62 leaves about 4.6e18 ticks for its
        # walk, so every price stays inside the int64 price column
        if not 1e-9 <= self.placement_geometric_p <= 1:
            raise ValueError("placement_geometric_p must be in [1e-9, 1]")
        if not 0 <= self.cancel_probability < 1:
            raise ValueError("cancel_probability must be in [0, 1)")
        if not 1 < self.initial_mid_ticks < 2**62:
            raise ValueError("initial_mid_ticks must exceed one tick and stay below 2**62")
        if self.session_start_ns >= self.session_end_ns:
            raise ValueError("session start must precede end")
        # the generator holds every event in memory; a default day draws ~47k
        seconds = (self.session_end_ns - self.session_start_ns) / NANOS_PER_SECOND
        expected = 2 * self.arrival_rate_per_side * seconds
        if expected > 10**8:
            raise ValueError(f"arrival_rate_per_side: expects {expected:.2g} events over "
                             "the session, more than the 1e8 allowed")


def generate_synthetic(config: SyntheticFlowConfig,
                       on_chunk: Optional[Callable[[FlowColumns], None]] = None) -> FlowColumns:
    """Seeded synthetic LOBSTER flow, as columns.  `on_chunk(flow)`, when
    given, is called each time CHUNK_ROWS more rows have been made.

    A cancel picks a live order uniformly and cuts or deletes it; with no
    live order a new limit order is placed instead, behind the opposite
    best, so the flow never crosses.  The shadow keeps only what the draws
    read: id -> [direction, price, quantity, slot in `live`], live orders
    per price, and each side's prices in ascending order."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    exponential, random, integers = rng.exponential, rng.random, rng.integers
    gamma, geometric = rng.gamma, rng.geometric
    # everything the loop reads that stays the same, read once: config
    # fields and enum members are attribute lookups on every event
    shape, scale = config.size_gamma_shape, config.size_gamma_scale
    placement_p, cancel_probability = config.placement_geometric_p, config.cancel_probability
    start_ns, mid = config.session_start_ns, config.initial_mid_ticks
    new_limit, partial_cancel, delete = map(int, (
        EventType.NEW_LIMIT, EventType.PARTIAL_CANCEL, EventType.DELETE))
    flow = FlowColumns()
    add_time, add_type, add_id, add_size, add_price, add_direction = (
        column.append for column in flow.columns())
    orders: dict[int, list] = {}
    live: list[int] = []  # the ids a cancel draw indexes
    level_orders: dict[int, int] = {}  # one key space: the sides never share a price
    bids, asks = [], []
    next_id = 1
    gap_scale = 1.0 / (2.0 * config.arrival_rate_per_side)
    rows, chunk_end = 0, CHUNK_ROWS if on_chunk is not None else -1
    t_seconds = 0.0
    session_seconds = (config.session_end_ns - start_ns) / NANOS_PER_SECOND
    while True:
        t_seconds += exponential(gap_scale)
        if t_seconds > session_seconds:
            return flow
        add_time(start_ns + int(round(t_seconds * NANOS_PER_SECOND)))
        if live and random() < cancel_probability:
            order_id = live[int(integers(len(live)))]
            direction, price, quantity, slot = entry = orders[order_id]
            if quantity > 1 and random() < 0.5:
                size = int(integers(1, quantity))
                entry[2] = quantity - size
                add_type(partial_cancel)
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
                add_type(delete)
        else:
            direction = 1 if random() < 0.5 else -1
            size = max(1, math.ceil(gamma(shape, scale)))
            offset = int(geometric(placement_p))
            if direction == 1:
                price = max(1, (asks[0] if asks else mid + 1) - offset)
            else:
                price = (bids[-1] if bids else mid - 1) + offset
            order_id = next_id
            next_id += 1
            orders[order_id] = [direction, price, size, len(live)]
            live.append(order_id)
            level_orders[price] = level_orders.get(price, 0) + 1
            if level_orders[price] == 1:
                insort(bids if direction == 1 else asks, price)
            assert not (bids and asks and bids[-1] >= asks[0]), "placement crossed the book"
            add_type(new_limit)
        add_id(order_id)
        add_size(size)
        add_price(price)
        add_direction(direction)
        rows += 1
        if rows == chunk_end:
            on_chunk(flow)
            chunk_end += CHUNK_ROWS


# A synthetic day streamed from a forked helper.  Every CHUNK_ROWS rows the
# helper appends the new rows of the six columns, one column after another,
# to an unlinked temporary file, then writes the chunk's row count as 8
# bytes to a pipe; a zero count ends the day, and a negative count -n is
# followed by an n-byte reason for a failure.  Each count, with its reason,
# goes in one write of at most PIPE_BUF bytes, so a read of a count returns
# all of it or, once the helper is gone, nothing.  The helper never waits
# on its reader while the pipe has room: 64 KiB on Linux holds 8,192
# counts, 16.7M rows, and a default day is about 47k.
CHUNK_ROWS = 2048
_COUNT_BYTES = 8


class FlowHelperError(Exception):
    """The helper making a synthetic day failed, or was lost, before the
    day's end; no row after the last chunk is known."""


def stream_synthetic(config: SyntheticFlowConfig) -> FlowColumns:
    """`generate_synthetic(config)`, made by a forked helper.  Returns once
    the first chunk or the end of the day is in; the rows arrive as the
    reader calls `pull`, and `finish` waits for the rest.  A host without
    `os.fork` makes the whole day in this process."""
    config.validate()  # a bad config fails here, as generate_synthetic's would
    if not hasattr(os, "fork"):
        return generate_synthetic(config)
    data, path = tempfile.mkstemp(prefix="lobsim-day-")
    os.unlink(path)
    counts_in, counts_out = os.pipe()
    pid = os.fork()
    if pid == 0:
        _make_day(config, data, counts_out)  # exits the helper
    os.close(counts_out)
    flow = StreamedFlow(pid, counts_in, data)
    try:
        flow.pull()
    except BaseException:
        flow.close()
        raise
    return flow


def _make_day(config: SyntheticFlowConfig, data: int, counts: int) -> None:
    """The helper's whole life: make the day, streaming its chunks, then
    leave with os._exit, so nothing of the parent's (exit handlers,
    buffered output, a test runner's frames) runs here.  The collector is
    off: the helper makes no garbage worth a pass, and a pass would walk
    the heap it shares with the parent, and so copy its pages.  The parent
    may have idle BLAS threads, which fork does not copy; the helper calls
    only a random generator it makes itself, so it takes no lock they hold."""
    status = 1
    try:
        gc.disable()
        out = open(data, "wb", closefd=False)
        sent = 0

        def send(flow: FlowColumns) -> None:
            nonlocal sent
            for column in flow.columns():
                column[sent:].tofile(out)
            out.flush()
            os.write(counts, (len(flow) - sent).to_bytes(_COUNT_BYTES, "little", signed=True))
            sent = len(flow)

        flow = generate_synthetic(config, on_chunk=send)
        if len(flow) > sent:
            send(flow)
        os.write(counts, bytes(_COUNT_BYTES))
        status = 0
    except BaseException as exc:
        reason = f"{type(exc).__name__}: {exc}".encode()[:1024]
        try:
            os.write(counts, (-len(reason)).to_bytes(_COUNT_BYTES, "little", signed=True)
                     + reason)
        except OSError:  # the reader is gone
            pass
    finally:
        os._exit(status)


class StreamedFlow(FlowColumns):
    """The columns of a day that a forked helper is making.  `pull` waits
    on the helper's pipe for the next chunk and appends it; at the end of
    the day it reaps the helper.  If the helper fails or is lost, `pull`
    reaps it and raises FlowHelperError, and so does every later `pull`:
    a cut day never reads as a whole one.  `close` kills and reaps a helper
    that is still running, and leaves the day cut."""

    def __init__(self, pid: int, counts: int, data: int):
        super().__init__()
        self._pid, self._counts, self._data = pid, counts, data
        self._offset = 0
        self._error: Optional[FlowHelperError] = None

    def pull(self) -> bool:
        if self._error is not None:
            raise self._error
        if self._pid is None:
            return False
        head = os.read(self._counts, _COUNT_BYTES)
        if not head:  # the pipe closed before the end of the day
            status = self._reap()
            self._fail(f"killed by signal {-status}" if status < 0 else f"exit status {status}")
        rows = int.from_bytes(head, "little", signed=True)
        if rows < 0:
            reason = os.read(self._counts, -rows).decode(errors="replace")
            self._reap()
            self._fail(reason)
        if rows == 0:
            self._reap()
            return False
        size = rows * 8
        block = os.pread(self._data, 6 * size, self._offset)
        if len(block) != 6 * size:
            self.close()
            self._fail(f"a chunk of {rows} rows ends at byte {len(block)}")
        self._offset += 6 * size
        view = memoryview(block)
        for i, column in enumerate(self.columns()):
            column.frombytes(view[i * size:(i + 1) * size])
        return True

    def finish(self) -> None:
        while self.pull():
            pass

    def close(self) -> None:
        if self._pid is not None:
            import signal  # here: `import lobsim.cli` loads no signal module

            os.kill(self._pid, signal.SIGKILL)
            self._reap()
            self._error = FlowHelperError(f"the day was stopped after {len(self)} rows")

    def _reap(self) -> int:
        """Closes the pipe and the file and waits for the helper; returns
        its exit code, negative for the signal that ended it."""
        pid, self._pid = self._pid, None
        os.close(self._counts)
        os.close(self._data)
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def _fail(self, reason: str) -> None:
        self._error = FlowHelperError(f"the synthetic-flow helper failed after {len(self)} "
                                      f"rows: {reason}")
        raise self._error


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
