"""Scripted-agent harness for kernel delivery-order checks.

A roster of ScriptAgents schedules wakeups from a fixed script and fires
point-to-point pings at each wakeup.  Because every send happens inside
on_wakeup, each ping's delivery time is wakeup_time + computation_delay +
latency, so the full delivery sequence can be predicted with plain stable
sorts instead of a second event queue.  That prediction is the oracle the
tests compare the kernel's log against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from lobsim import Agent, KernelConfig, build_kernel

# script entry: (wakeup_time, [(recipient_index, marker), ...])
Script = list


@dataclass(frozen=True)
class Ping:
    marker: int
    tag = "ping"

    def summary(self) -> str:
        return str(self.marker)


class ScriptAgent(Agent):
    """Schedules its script's wakeups up front and sends the associated
    pings when each one fires.  Records everything it observes."""

    def __init__(self, script: Script, name: str = ""):
        super().__init__(name=name)
        self.script = script
        self.seen: list[tuple[int, str, int]] = []  # (now, kind, marker)
        self._pending: dict[int, deque] = {}

    def on_start(self, kernel) -> None:
        for at, sends in self.script:
            kernel.schedule_wakeup(self.agent_id, at)
            self._pending.setdefault(at, deque()).append(sends)

    def on_wakeup(self, now: int) -> None:
        self.seen.append((now, "wakeup", -1))
        for recipient, marker in self._pending[now].popleft():
            self.kernel.send(self.agent_id, recipient, Ping(marker))

    def on_message(self, now: int, sender_id: int, payload) -> None:
        self.seen.append((now, "ping", payload.marker))


def expected_log(scripts: list[Script], config: KernelConfig):
    """Predict the kernel's delivery log for a ScriptAgent roster.

    Wakeups enqueue during on_start in (roster, script) order; pings enqueue
    when their wakeup is delivered, so their insertion order follows the
    wakeup delivery order.  Sorting by (time, insertion) therefore
    reproduces the kernel's total order without touching a heap.
    Returns [(time, sender, recipient, tag, marker)] with marker -1 for
    wakeups.
    """
    wakeups = []  # (time, seq, agent, sends)
    seq = 0
    for agent_idx, script in enumerate(scripts):
        for at, sends in script:
            wakeups.append((at, seq, agent_idx, sends))
            seq += 1
    delivered_wakeups = sorted(
        (w for w in wakeups if w[0] <= config.stop_time), key=lambda w: (w[0], w[1])
    )

    pings = []  # (deliver_at, seq, sender, recipient, marker)
    for at, _, agent_idx, sends in delivered_wakeups:
        for recipient, marker in sends:
            deliver_at = at + config.computation_delay_nanos + config.latency_nanos
            pings.append((deliver_at, seq, agent_idx, recipient, marker))
            seq += 1

    events = [(at, s, agent, agent, "wakeup", -1) for at, s, agent, _ in delivered_wakeups]
    events += [
        (at, s, sender, recipient, "ping", marker)
        for at, s, sender, recipient, marker in pings
        if at <= config.stop_time
    ]
    events.sort(key=lambda e: (e[0], e[1]))
    return [(at, sender, recipient, tag, marker) for at, _, sender, recipient, tag, marker in events]


def flatten(rec) -> tuple:
    """One LogRecord in the expected_log tuple shape."""
    marker = int(rec.summary) if rec.tag == "ping" else -1
    return (rec.time, rec.sender_id, rec.recipient_id, rec.tag, marker)


def observed_log(log):
    """Flatten a SimulationLog into the expected_log tuple shape."""
    return [flatten(rec) for rec in log.records]


def random_scripts(rng, n_agents: int, config: KernelConfig) -> list[Script]:
    """Draw a roster of scripts with deliberate time collisions and a few
    wakeups past stop_time to exercise tie-breaks and the horizon cut."""
    span = config.stop_time - config.start_time
    # coarse grid so distinct draws frequently collide
    times = config.start_time + rng.integers(0, max(span // 50, 1), size=64) * 50
    marker = 0
    scripts: list[Script] = []
    for _ in range(n_agents):
        script: Script = []
        for _ in range(int(rng.integers(0, 5))):
            if rng.random() < 0.08:
                at = config.stop_time + int(rng.integers(1, 1000))
            else:
                at = int(times[rng.integers(0, len(times))])
            sends = []
            for _ in range(int(rng.integers(0, 4))):
                sends.append((int(rng.integers(0, n_agents)), marker))
                marker += 1
            script.append((at, sends))
        scripts.append(script)
    return scripts


def run_scripts(scripts: list[Script], config: KernelConfig):
    agents = [ScriptAgent(script) for script in scripts]
    log = build_kernel(config, agents).run()
    return log, agents


def check_schedule(scripts: list[Script], config: KernelConfig) -> None:
    """Assert delivery order, causality, and horizon bounds for one roster."""
    log, agents = run_scripts(scripts, config)
    got = observed_log(log)
    want = expected_log(scripts, config)
    assert got == want
    for agent in agents:
        times = [t for t, _, _ in agent.seen]
        assert times == sorted(times)
    for rec in log.records:
        assert config.start_time <= rec.time <= config.stop_time
