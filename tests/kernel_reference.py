"""The kernel's event loop as it was written with one binary heap for
wakeups and messages alike, kept verbatim as the ordering oracle for
`lobsim.kernel.Kernel`, which delivers messages from a FIFO beside a
wakeup heap.

`HeapKernel` overrides `Kernel`'s `__init__`, `schedule_wakeup`, `send`
and `run` with the old bodies: every event is pushed as (deliver_at, insertion sequence,
sender_id, recipient_id, payload) onto `_queue` and popped in that order.
On any roster both kernels must deliver the same events at the same times
in the same order, and raise the same errors.
"""

import gc
from heapq import heappop, heappush
from itertools import count
from typing import Any

import numpy as np

from lobsim.kernel import (
    _WAKEUP,
    AgentFault,
    Kernel,
    KernelConfig,
    KernelError,
    SchedulingError,
    SimTime,
    SimulationLog,
    UnknownRecipientError,
    Wakeup,
)


class HeapKernel(Kernel):
    """Single-heap event loop."""

    def __init__(self, config: KernelConfig):
        config.validate()
        self.config = config
        self.agents = []
        self.now: SimTime = config.start_time
        # (deliver_at, insertion sequence, sender_id, recipient_id, payload)
        self._queue: list[tuple] = []
        self._sequence = count()
        self._running = False

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


def build_heap_kernel(config: KernelConfig, agents: list) -> HeapKernel:
    """`lobsim.kernel.build_kernel` with a HeapKernel."""
    kernel = HeapKernel(config)
    seed_seq = np.random.SeedSequence(config.rng_seed)
    children = seed_seq.spawn(len(agents)) if agents else []
    for agent, child in zip(agents, children):
        kernel.register(agent)
        agent.kernel = kernel
        agent.rng = np.random.default_rng(child)
    return kernel
