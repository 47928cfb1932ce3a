"""Layer micro-benchmarks at fixed, stated sizes.

They run after the traced job, untraced, on inputs made from the workload
seed, so every workload reports them and their numbers compare across
workloads:

- book: the exchange's inbound op stream recorded from the traced job,
  replayed into a bare OrderBook; `snapshot(3)` on the resulting book;
- kernel: null dispatch, one agent waking itself 50k times;
- lobster: the default 09:30-16:00 synthetic day (about 47k events),
  generated, written and parsed;
- rl, mlp, agents.ddql: the default (6, 64, 64, 24) network, batch 32, and a
  full 10k-row replay buffer and its checkpoint;
- metrics: the realism fits on that same 47k-event day.

The toy size shrinks the day to 40 minutes, the buffer to 1k rows and the
null dispatch to 5k deliveries.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from lobsim import (
    Agent,
    BookSnapshot,
    DDQLConfig,
    KernelConfig,
    LearnerState,
    Order,
    OrderBook,
    Side,
    SyntheticFlowConfig,
    build_kernel,
    featurize,
    forward,
    generate_synthetic,
    parse_message_file,
    schedule_orders,
    time_from_str,
    train_step,
    write_message_file,
)
from lobsim.agents import compute_target, select_action
from lobsim.book import BookError
from lobsim.metrics import (
    FlowSeries,
    fit_gamma,
    fit_weibull,
    interarrival_fit,
    intraday_profile,
    windowed_volume,
)
from lobsim.rl import Experience, ReplayBuffer, StateVector

BATCH = 32
SIZES = {  # day end, buffer rows, null-dispatch deliveries
    "full": ("16:00:00", 10_000, 50_000),
    "toy": ("10:10:00", 1_000, 5_000),
}


def per_call_us(fn, calls: int, reps: int = 5) -> float:
    """Median over `reps` batches of the mean time of one call, in µs."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times) * 1e6


def median_s(fn, reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -- book ------------------------------------------------------------------------


def replay_ops(ops: list, allow_self_trade: bool, expected_depth: str) -> dict:
    """Replays recorded exchange book calls into a fresh book.  Orders are
    built before the clock starts; the replayed book must end exactly where
    the exchange's did."""
    calls = []
    for op in ops:
        if op[0] == "submit":
            calls.append(("submit", Order(*op[1:])))
        else:
            calls.append(op)
    book = OrderBook(allow_self_trade=allow_self_trade)
    submit, cancel, reduce, snapshot = book.submit, book.cancel, book.reduce, book.snapshot
    start = time.perf_counter()
    for call in calls:
        kind = call[0]
        try:
            if kind == "submit":
                submit(call[1])
            elif kind == "snapshot":
                snapshot(call[1])
            elif kind == "cancel":
                cancel(call[1])
            else:
                reduce(call[1], call[2])
        except BookError:
            pass  # the exchange turns these into rejections
    elapsed = time.perf_counter() - start
    problems = [] if book.depth_csv() == expected_depth else [
        "op stream replay ended on a different book than the exchange"]
    metrics = {
        "book.op_stream_ops_per_s": len(calls) / elapsed if elapsed > 0 else 0.0,
        "book.snapshot3_us": per_call_us(lambda: book.snapshot(3), 2_000),
    }
    return {"metrics": metrics, "problems": problems}


# -- kernel ----------------------------------------------------------------------


class _Pinger(Agent):
    def __init__(self, deliveries: int):
        super().__init__("pinger")
        self.left = deliveries

    def on_start(self, kernel) -> None:
        kernel.schedule_wakeup(self.agent_id, kernel.config.start_time)

    def on_wakeup(self, now) -> None:
        self.left -= 1
        if self.left > 0:
            self.kernel.schedule_wakeup(self.agent_id, now + 1)


def null_dispatch_per_s(seed: int, deliveries: int) -> float:
    def once():
        config = KernelConfig(start_time=0, stop_time=10 * deliveries, rng_seed=seed)
        log = build_kernel(config, [_Pinger(deliveries)]).run()
        if len(log) != deliveries:
            raise RuntimeError(f"null dispatch delivered {len(log)} of {deliveries}")
    return deliveries / median_s(once)


# -- lobster and metrics --------------------------------------------------------------


def lobster_and_metrics(seed: int, work: Path, day_end: str) -> dict:
    flow_config = SyntheticFlowConfig(session_start_ns=time_from_str("09:30:00"),
                                      session_end_ns=time_from_str(day_end), seed=seed)
    start = time.perf_counter()
    events = list(generate_synthetic(flow_config))
    generate_s = time.perf_counter() - start
    path = work / "micro_day.csv"
    write_s = median_s(lambda: write_message_file(events, path))
    parse_s = median_s(lambda: list(parse_message_file(path)))
    path.unlink()
    flow = FlowSeries.from_events(events)
    volume = windowed_volume(flow, 60.0)
    gaps = interarrival_fit(flow).gaps_seconds
    nonzero = [v for v in volume.samples if v > 0]
    positive = [g for g in gaps if g > 0]
    n = len(events)
    return {
        "lobster.generate_events_per_s": n / generate_s,
        "lobster.write_events_per_s": n / write_s,
        "lobster.parse_events_per_s": n / parse_s,
        "metrics.fit_gamma_ms": median_s(lambda: fit_gamma(nonzero)) * 1e3,
        "metrics.fit_weibull_ms": median_s(lambda: fit_weibull(positive)) * 1e3,
        "metrics.windowed_volume_ms": median_s(lambda: windowed_volume(flow, 60.0)) * 1e3,
        "metrics.interarrival_fit_ms": median_s(lambda: interarrival_fit(flow)) * 1e3,
        "metrics.intraday_profile_ms": median_s(lambda: intraday_profile(flow, 15.0)) * 1e3,
    }


# -- learner ---------------------------------------------------------------------------


def _random_state(rng) -> StateVector:
    return StateVector(*(float(v) for v in rng.uniform(-1.0, 1.0, 6)))


def learner(seed: int, work: Path, rows: int) -> dict:
    rng = np.random.default_rng(seed)
    config = DDQLConfig(max_experience=rows)  # (6, 64, 64, 24) network, batch 32
    state = LearnerState(config, seed)
    experiences = [Experience(_random_state(rng), int(rng.integers(24)), float(rng.random()),
                              _random_state(rng), bool(rng.random() < 0.01))
                   for _ in range(rows)]
    for e in experiences:
        state.buffer.push(e)
    batch = state.buffer.sample(BATCH, rng)
    x1 = batch[0].state.to_array()
    x32 = np.stack([e.state.to_array() for e in batch])
    actions = np.array([e.action for e in batch], dtype=np.int64)
    targets = compute_target(batch, config.gamma, state.eval_params, state.target_params)
    snapshot = BookSnapshot(bids=((999_990, 300), (999_980, 200), (999_970, 100)),
                            asks=((1_000_010, 250), (1_000_020, 150), (1_000_030, 50)))
    mids = [1_000_000.0 + i for i in range(50)]
    action = state.action_space.decode(14)

    fresh = ReplayBuffer(rows, 200)
    pushes = iter(experiences * 10)
    ckpt = work / "micro.ckpt"
    save_s = median_s(lambda: state.save(ckpt))
    load_s = median_s(lambda: LearnerState.load(ckpt, config, seed))
    metrics = {
        "rl.featurize_us": per_call_us(
            lambda: featurize(100, 660, 1_000, 6_600, snapshot, mids), 2_000),
        "rl.schedule_orders_us": per_call_us(
            lambda: schedule_orders(action, 5_000, 10.0, snapshot, Side.BID), 2_000),
        "rl.buffer_push_us": per_call_us(lambda: fresh.push(next(pushes)), rows),
        "rl.buffer_sample_us": per_call_us(lambda: state.buffer.sample(BATCH, rng), 500),
        "mlp.forward_b1_us": per_call_us(lambda: forward(state.eval_params, x1), 2_000),
        "mlp.forward_b32_us": per_call_us(lambda: forward(state.eval_params, x32), 1_000),
        "mlp.train_step_us": per_call_us(
            lambda: train_step(state.eval_params, state.optstate, (x32, actions, targets),
                               state.rng), 300),
        "agents.ddql.select_action_us": per_call_us(
            lambda: select_action(batch[0].state, 0.0, rng, state.eval_params), 2_000),
        "agents.ddql.compute_target_us": per_call_us(
            lambda: compute_target(batch, config.gamma, state.eval_params,
                                   state.target_params), 300),
        "agents.ddql.train_once_us": per_call_us(lambda: state.train_once(batch), 300),
        "agents.ddql.save_ms": save_s * 1e3,
        "agents.ddql.load_ms": load_s * 1e3,
        "agents.ddql.checkpoint_bytes": ckpt.stat().st_size,
    }
    ckpt.unlink()
    return metrics


def run_all(seed: int, size: str, work: Path, ops: list, allow_self_trade: bool,
            expected_depth: str) -> dict:
    day_end, rows, deliveries = SIZES[size]
    book = replay_ops(ops, allow_self_trade, expected_depth)
    metrics = dict(book["metrics"])
    metrics["kernel.null_dispatch_per_s"] = null_dispatch_per_s(seed, deliveries)
    metrics.update(lobster_and_metrics(seed, work, day_end))
    metrics.update(learner(seed, work, rows))
    return {"metrics": metrics, "problems": book["problems"]}
