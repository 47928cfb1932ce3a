"""The LOBSTER message-file reader as it was written a row at a time, kept
verbatim as the oracle for `lobsim.lobster.parse_message_file`.

It builds one event per row through `parse_line`, with `int()` on each
field, and each event checks itself with `validate`.  On any row both accept,
`FlowColumns.of` of its events must equal the columnar parser's result.
"""

import warnings
from dataclasses import dataclass
from typing import Iterator, Optional

from lobsim.kernel import NANOS_PER_SECOND, SimTime
from lobsim.lobster import EventType, LobsterParseError


@dataclass(frozen=True, slots=True)
class LobsterEvent:
    time_ns: SimTime
    event_type: EventType
    order_id: int
    size: int
    price: int
    direction: int  # +1 buy, -1 sell

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
