"""Deterministic discrete-event simulation kernel.

Agents exchange timestamped messages through a single-threaded event loop.
Time is an integer count of nanoseconds since midnight of the simulated
trading day.  Delivery order is a total order: events pop sorted by
(deliver_at, insertion sequence), so ties at equal timestamps resolve FIFO
by insertion.  Runs with identical configuration and seed are bit-identical.

The log keeps each delivery's time in an int64 column, its sender and
recipient in int16 columns and its payload object in a list beside them,
about 20 bytes a delivery, and formats nothing while the loop runs, so
payloads must be immutable values (see LogRecord).  The int16 ids cap a
kernel at MAX_AGENTS (32,767) agents.
"""

from __future__ import annotations

import gc
import json
import re
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count, repeat
from typing import Any, NamedTuple, Optional

import numpy as np

SimTime = int  # nanoseconds since midnight

NANOS_PER_SECOND = 1_000_000_000
NANOS_PER_MINUTE = 60 * NANOS_PER_SECOND
NANOS_PER_HOUR = 60 * NANOS_PER_MINUTE

# agent ids are logged in int16 columns; the 32,768th agent is refused
MAX_AGENTS = 32_767


_CLOCK = re.compile(r"([0-9]+):([0-9]+):([0-9]+)(?:\.([0-9]+))?")


def time_from_str(text: str) -> SimTime:
    """Parse "HH:MM:SS" or "HH:MM:SS.fraction" into nanoseconds since
    midnight.  Each field is unsigned decimal digits, minutes and seconds
    are below 60, and a fraction finer than a nanosecond is cut off."""
    match = _CLOCK.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"expected HH:MM:SS[.fraction] in decimal digits, got {text!r}")
    hours, minutes, secs = (int(field) for field in match.group(1, 2, 3))
    if minutes >= 60 or secs >= 60:
        raise ValueError(f"minutes and seconds must be below 60, got {text!r}")
    frac_nanos = int((match.group(4) or "").ljust(9, "0")[:9])
    return hours * NANOS_PER_HOUR + minutes * NANOS_PER_MINUTE + secs * NANOS_PER_SECOND + frac_nanos


def time_to_str(t: SimTime) -> str:
    """Format nanoseconds since midnight as "HH:MM:SS.fffffffff"."""
    seconds, nanos = divmod(t, NANOS_PER_SECOND)
    minutes, sec = divmod(seconds, 60)
    hours, mins = divmod(minutes, 60)
    return f"{hours:02d}:{mins:02d}:{sec:02d}.{nanos:09d}"


def seconds(x: float) -> SimTime:
    return int(round(x * NANOS_PER_SECOND))


class KernelError(Exception):
    """Base error for kernel misuse."""


class SchedulingError(KernelError):
    """Raised when a wakeup is requested in the simulated past."""


class UnknownRecipientError(KernelError):
    """Raised to the sender when a message targets an unregistered agent."""


class AgentFault(KernelError):
    """Wraps an exception escaping an agent callback; identifies the agent."""

    def __init__(self, agent_id: int, agent_name: str, cause: BaseException):
        super().__init__(f"agent {agent_id} ({agent_name}) failed: {cause!r}")
        self.agent_id = agent_id
        self.agent_name = agent_name
        self.__cause__ = cause


@dataclass(frozen=True)
class Wakeup:
    """Kernel-generated payload delivered by schedule_wakeup."""

    def summary(self) -> str:
        return ""


_WAKEUP = Wakeup()


@dataclass
class KernelConfig:
    start_time: SimTime
    stop_time: SimTime
    latency_nanos: int = 0
    computation_delay_nanos: int = 0
    rng_seed: int = 0

    def validate(self) -> None:
        if self.start_time >= self.stop_time:
            raise ValueError("start_time must precede stop_time")
        if self.latency_nanos < 0 or self.computation_delay_nanos < 0:
            raise ValueError("latency and computation delay must be non-negative")


class LogRecord(NamedTuple):
    """One delivery: when, from whom, to whom, and the payload itself.  The
    record holds the payload object, not a copy, and a sender may send one
    object many times, so payloads must be immutable values (frozen
    dataclasses, tuples, strings).  `tag`, `summary` and `detail` are
    derived from the payload when they are read."""

    time: SimTime
    sender_id: int
    recipient_id: int
    payload: Any

    @property
    def tag(self) -> str:
        """The payload's `tag`, else its lowercased type name."""
        payload = self.payload
        return payload.tag if hasattr(payload, "tag") else type(payload).__name__.lower()

    @property
    def summary(self) -> str:
        payload = self.payload
        return payload.summary() if hasattr(payload, "summary") else str(payload)

    @property
    def detail(self) -> Optional[dict]:
        payload = self.payload
        return payload.detail() if hasattr(payload, "detail") else None

    def to_json(self) -> str:
        body = {
            "time": self.time,
            "sender": self.sender_id,
            "recipient": self.recipient_id,
            "tag": self.tag,
            "summary": self.summary,
        }
        detail = self.detail
        if detail is not None:
            body["detail"] = detail
        return json.dumps(body, sort_keys=True)


def _as_records(columns) -> Iterator[LogRecord]:
    # tuple.__new__ is a C call; LogRecord's generated __new__ and _make are
    # Python-level and take about 60 % longer to read a paper episode's log
    return map(tuple.__new__, repeat(LogRecord), zip(*columns))


class LogRecords(Sequence):
    """Read-only view of a SimulationLog's deliveries as LogRecords, each
    built from the columns when it is read."""

    def __init__(self, log: "SimulationLog"):
        self._columns = (log.times, log.senders, log.recipients, log.payloads)

    def __len__(self) -> int:
        return len(self._columns[3])

    def __getitem__(self, index):
        rows = [column[index] for column in self._columns]
        if isinstance(index, slice):
            return list(_as_records(rows))
        return LogRecord(*rows)

    def __iter__(self) -> Iterator[LogRecord]:
        return _as_records(self._columns)


class SimulationLog:
    """Record of every delivered message plus final agent states.  Delivery
    times are an int64 column, senders and recipients int16 columns (agent
    ids are below MAX_AGENTS, 32,767) and the payloads a list beside them,
    so a delivery costs about 20 bytes and adds no object but its payload;
    `records` reads them back as LogRecords."""

    def __init__(self) -> None:
        self.times = array("q")
        self.senders = array("h")
        self.recipients = array("h")
        self.payloads: list = []
        self.final_states: dict[int, dict] = {}

    @property
    def records(self) -> LogRecords:
        return LogRecords(self)

    def append(self, record: LogRecord) -> None:
        time, sender_id, recipient_id, payload = record
        self.times.append(time)
        self.senders.append(sender_id)
        self.recipients.append(recipient_id)
        self.payloads.append(payload)

    def __len__(self) -> int:
        return len(self.payloads)

    def to_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(record.to_json())
                fh.write("\n")
            fh.write(json.dumps({"final_states": self.final_states}, sort_keys=True))
            fh.write("\n")


class Agent:
    """Base class for kernel-resident agents.

    The kernel assigns `agent_id` at registration and a seeded numpy
    Generator (`rng`) before on_start; `kernel` is set until the run ends.
    Callbacks run on the kernel thread; agents must not retain references to
    kernel internals across callbacks.
    """

    def __init__(self, name: str = ""):
        self.agent_id: int = -1
        self.name = name or type(self).__name__
        self.kernel: Optional["Kernel"] = None
        self.rng: Optional[np.random.Generator] = None

    def on_start(self, kernel: "Kernel") -> None:
        """Called once at start_time, before any event is delivered."""

    def on_wakeup(self, now: SimTime) -> None:
        """Called when a Wakeup scheduled by this agent is delivered."""

    def on_message(self, now: SimTime, sender_id: int, payload: Any) -> None:
        """Called when a message from another agent is delivered."""

    def on_stop(self) -> None:
        """Called once after the event loop terminates."""

    def state_summary(self) -> dict:
        return {}


class Kernel:
    """Single-threaded event loop delivering messages between agents."""

    def __init__(self, config: KernelConfig):
        config.validate()
        self.config = config
        self.agents: list[Agent] = []
        self.now: SimTime = config.start_time
        # (deliver_at, insertion sequence, sender_id, recipient_id, payload)
        self._queue: list[tuple] = []
        self._sequence = count()
        self._running = False

    def register(self, agent: Agent) -> int:
        if self._running:
            raise KernelError("cannot register agents while running")
        if len(self.agents) >= MAX_AGENTS:
            raise KernelError(f"a kernel holds at most {MAX_AGENTS} agents")
        agent.agent_id = len(self.agents)
        self.agents.append(agent)
        return agent.agent_id

    def schedule_wakeup(self, agent_id: int, at: SimTime) -> None:
        if at < self.now:
            raise SchedulingError(f"wakeup at {at} is in the past (now={self.now})")
        if not 0 <= agent_id < len(self.agents):
            raise KernelError(f"unregistered agent {agent_id}")
        heappush(self._queue, (at, next(self._sequence), agent_id, agent_id, _WAKEUP))

    def send(self, sender_id: int, recipient_id: int, payload: Any) -> SimTime:
        """Enqueue `payload` for delivery after the computation delay and
        the latency; returns the delivery time."""
        n = len(self.agents)
        if not (0 <= sender_id < n and 0 <= recipient_id < n):
            if not 0 <= sender_id < n:
                raise KernelError(f"unregistered agent {sender_id}")
            raise UnknownRecipientError(f"unknown recipient {recipient_id}")
        config = self.config
        deliver_at = self.now + config.computation_delay_nanos + config.latency_nanos
        heappush(self._queue, (deliver_at, next(self._sequence), sender_id, recipient_id, payload))
        return deliver_at

    def run(self) -> SimulationLog:
        """Deliver events in (deliver_at, insertion) order until the queue
        drains or stop_time passes; returns the full delivery log.

        The cyclic garbage collector is paused for the run.  The log adds no
        tracked object per delivery, but the payloads it keeps alive are
        tracked, so every full pass would walk a heap growing with the log
        although a run makes no cyclic garbage.  Reference counting still
        frees every acyclic object at once; a cycle an agent makes is
        collected after the run.  The collector is enabled again on every exit, an
        AgentFault included, if it was enabled on entry.  Every exit also
        clears each agent's `kernel`, so no cycle keeps a finished run alive."""
        log = SimulationLog()
        log_time, log_sender = log.times.append, log.senders.append
        log_recipient, log_payload = log.recipients.append, log.payloads.append
        queue, agents, stop = self._queue, self.agents, self.config.stop_time
        self.now = self.config.start_time
        self._running = True
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for agent in self.agents:
                self._invoke(agent, agent.on_start, self)
            while queue:
                event = heappop(queue)
                deliver_at, _, sender_id, recipient_id, payload = event
                if deliver_at > stop:
                    heappush(queue, event)
                    break
                self.now = deliver_at
                log_time(deliver_at)
                log_sender(sender_id)
                log_recipient(recipient_id)
                log_payload(payload)
                recipient = agents[recipient_id]
                try:
                    if isinstance(payload, Wakeup):
                        recipient.on_wakeup(deliver_at)
                    else:
                        recipient.on_message(deliver_at, sender_id, payload)
                except KernelError:
                    raise
                except Exception as exc:  # abort with the offending agent identified
                    raise AgentFault(recipient.agent_id, recipient.name, exc) from exc
            for agent in self.agents:
                self._invoke(agent, agent.on_stop)
                log.final_states[agent.agent_id] = agent.state_summary()
        finally:
            self._running = False
            for agent in agents:
                agent.kernel = None
            if gc_was_enabled:
                gc.enable()
        return log

    def _invoke(self, agent: Agent, callback, *args) -> None:
        try:
            callback(*args)
        except KernelError:
            raise
        except Exception as exc:  # abort with the offending agent identified
            raise AgentFault(agent.agent_id, agent.name, exc) from exc


def build_kernel(config: KernelConfig, agents: list[Agent]) -> Kernel:
    """Register `agents` in order and hand each a child RNG derived from the
    config seed, so identical (config, roster) pairs replay identically."""
    kernel = Kernel(config)
    seed_seq = np.random.SeedSequence(config.rng_seed)
    children = seed_seq.spawn(len(agents)) if agents else []
    for agent, child in zip(agents, children):
        kernel.register(agent)
        agent.kernel = kernel
        agent.rng = np.random.default_rng(child)
    return kernel


def run_simulation(config: KernelConfig, agents: list[Agent]) -> SimulationLog:
    return build_kernel(config, agents).run()
