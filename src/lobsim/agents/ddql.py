"""Double deep Q-learning execution agent.

One observation per period boundary: the agent cancels its stale child
orders, requests a snapshot, and acts on the reply.  Message FIFO ordering
guarantees the cancel acknowledgements and any racing fills arrive before
that reply, so inventory accounting inside the step is exact.

Two networks: the evaluation network is trained every train_every periods
and (by default) also picks greedy actions; the target network only scores
the evaluation network's argmax when building targets and is overwritten
from the evaluation network every target_sync_every trainings.  The
act_with_target_net flag switches greedy action selection to the target
network for the alternative literal reading of the training loop.

At the session end any residual inventory goes out as a single market
order whose fills fold into the final period's reward.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..book import OrderKind, Side
from ..kernel import SimTime, seconds, time_from_str
from ..messages import MarketDataReply, OrderAccepted, OrderCancelled, OrderExecuted
from ..mlp import (
    CheckpointError,
    MLPParams,
    Mode,
    copy_params,
    forward,
    init_params,
    init_rmsprop,
    params_from_bytes,
    params_to_bytes,
    train_step,
)
from ..rl import (
    ACTION,
    EXPERIENCE_WIDTH,
    MULTIPLIERS,
    NEXT_STATE,
    REWARD,
    STATE,
    TERMINAL,
    ActionSpace,
    Batch,
    EpisodeResult,
    Experience,
    FillRecord,
    ReplayBuffer,
    RewardParams,
    StateVector,
    compute_reward,
    featurize,
    schedule_orders,
)
from .base import TradingAgent

CHECKPOINT_MAGIC = b"DDQC"
CHECKPOINT_VERSION = 1


@dataclass
class DDQLConfig:
    episodes: int = 9
    num_periods: int = 660
    period: SimTime = seconds(30)
    session_start: SimTime = time_from_str("10:00:00")
    session_end: SimTime = time_from_str("15:30:00")
    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_min: float = 0.05
    epsilon_decay: float = 0.9
    train_every: int = 5
    target_sync_every: int = 5
    batch_size: int = 32
    min_experience: int = 200
    max_experience: int = 10_000
    side: Side = Side.BID
    parent_quantity: int = 6600
    hidden_sizes: tuple = (64, 64)
    dropout_rate: float = 0.2
    learning_rate: float = 0.01
    reward_scale: float = 1.0
    act_with_target_net: bool = False
    multipliers: tuple = MULTIPLIERS

    def validate(self) -> None:
        if self.session_end - self.session_start != self.num_periods * self.period:
            raise ValueError("session length must equal num_periods * period")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        for eps in (self.epsilon_start, self.epsilon_min):
            if not 0.0 <= eps <= 1.0:
                raise ValueError("epsilon bounds must lie in [0, 1]")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must lie in (0, 1]")
        if self.parent_quantity <= 0 or self.num_periods <= 0:
            raise ValueError("parent_quantity and num_periods must be positive")
        if self.train_every <= 0 or self.target_sync_every <= 0:
            raise ValueError("training cadences must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0 < self.min_experience <= self.max_experience:
            raise ValueError("need 0 < min_experience <= max_experience")
        if any(size <= 0 for size in self.hidden_sizes):
            raise ValueError("hidden_sizes must all be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 < self.reward_scale < math.inf:
            raise ValueError("reward_scale must be positive and finite")
        if 1.0 not in self.multipliers:
            raise ValueError("multipliers must include 1.0, the TWAP action")

    @property
    def twap_child_quantity(self) -> float:
        return self.parent_quantity / self.num_periods

    def epsilon_for_episode(self, episode_index: int) -> float:
        return max(self.epsilon_min, self.epsilon_start * self.epsilon_decay**episode_index)

    @property
    def layer_sizes(self) -> list:
        return [6, *self.hidden_sizes, len(self.multipliers) * 4]


def select_action(state: StateVector, epsilon: float, rng: np.random.Generator,
                  params: MLPParams, num_actions: int = 24) -> int:
    """epsilon-greedy action index; greedy ties break to the lowest index."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(num_actions))
    q_values = forward(params, state.to_array(), Mode.EVAL)
    return int(np.argmax(q_values))


def compute_target(batch: Batch, gamma: float, eval_params: MLPParams,
                   target_params: MLPParams) -> np.ndarray:
    """Decoupled targets: the evaluation network chooses the next action,
    the target network scores it.  Terminal rows are bare rewards."""
    rows = batch.rows
    next_states = np.ascontiguousarray(rows[:, NEXT_STATE])
    greedy = np.argmax(forward(eval_params, next_states, Mode.EVAL), axis=1)
    next_q = forward(target_params, next_states, Mode.EVAL)[np.arange(len(rows)), greedy]
    return rows[:, REWARD] + gamma * next_q * (rows[:, TERMINAL] == 0.0)


class LearnerState:
    """Everything that persists across episodes in one training run:
    both networks, optimizer state, replay buffer, exploration rng, and
    the episode/train/sync counters."""

    def __init__(self, config: DDQLConfig, seed: int):
        self.config = config
        init_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self.eval_params = init_params(config.layer_sizes, config.dropout_rate, init_rng)
        self.target_params = copy_params(self.eval_params)
        self.optstate = init_rmsprop(self.eval_params, config.learning_rate)
        self.buffer = ReplayBuffer(config.max_experience, config.min_experience)
        self.action_space = ActionSpace(config.multipliers)
        self.epsilon = config.epsilon_start
        self.episode_index = 0
        self.train_count = 0
        self.sync_count = 0

    def train_once(self, batch: Batch) -> float:
        targets = compute_target(batch, self.config.gamma, self.eval_params,
                                 self.target_params)
        inputs = np.ascontiguousarray(batch.rows[:, STATE])
        actions = batch.rows[:, ACTION].astype(np.int64)
        loss = train_step(self.eval_params, self.optstate,
                          (inputs, actions, targets), self.rng)
        self.train_count += 1
        if self.train_count % self.config.target_sync_every == 0:
            self.target_params = copy_params(self.eval_params)
            self.sync_count += 1
        return loss

    # -- checkpointing -------------------------------------------------------
    # Layout (little-endian): magic, u32 version, u32 header length, JSON
    # header (counters, epsilon, rng state), then length-prefixed blobs for
    # the two networks, the RMSprop tensors, and the packed replay buffer.

    def save(self, path) -> None:
        """Writes the checkpoint to a temporary file beside `path` and
        renames it over `path`, so an interrupted save leaves the previous
        file whole."""
        header = {
            "epsilon": self.epsilon,
            "episode_index": self.episode_index,
            "train_count": self.train_count,
            "sync_count": self.sync_count,
            "rng_state": self.rng.bit_generator.state,
        }
        header_bytes = json.dumps(header, sort_keys=True).encode()
        chunks = [
            CHECKPOINT_MAGIC,
            struct.pack("<I", CHECKPOINT_VERSION),
            struct.pack("<I", len(header_bytes)),
            header_bytes,
        ]
        for blob in (params_to_bytes(self.eval_params), params_to_bytes(self.target_params)):
            chunks.append(struct.pack("<Q", len(blob)))
            chunks.append(blob)
        opt_arrays = self.optstate.square_avg_w + self.optstate.square_avg_b
        chunks.append(struct.pack("<I", len(opt_arrays)))
        for array in opt_arrays:
            raw = np.ascontiguousarray(array, dtype="<f8").tobytes()
            chunks.append(struct.pack("<Q", len(raw)))
            chunks.append(raw)
        rows = self.buffer.oldest_first()
        chunks.append(struct.pack("<Q", len(rows)))
        chunks.append(rows.astype("<f8", copy=False).tobytes())
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=os.path.basename(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(b"".join(chunks))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path, config: DDQLConfig, seed: int = 0) -> "LearnerState":
        """Raises CheckpointError naming `path` for any file that is not a
        whole checkpoint of this config's network shape."""
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            return cls._from_bytes(data, config, seed)
        except OSError as exc:
            raise CheckpointError(f"{path}: {exc.strerror}") from None
        except CheckpointError as exc:
            raise CheckpointError(f"{path}: {exc}") from None

    @classmethod
    def _from_bytes(cls, data: bytes, config: DDQLConfig, seed: int) -> "LearnerState":
        if data[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic {data[:4]!r}")
        offset = 4

        def take(size: int, part: str) -> int:
            """Start of the next `size` bytes, which must all be there."""
            nonlocal offset
            if offset + size > len(data):
                raise CheckpointError(f"truncated checkpoint ({part})")
            start, offset = offset, offset + size
            return start

        def unpack(fmt: str, part: str) -> int:
            return struct.unpack_from(fmt, data, take(struct.calcsize(fmt), part))[0]

        version = unpack("<I", "header")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        header_len = unpack("<I", "header")
        start = take(header_len, "header")
        try:
            header = json.loads(data[start:offset])
            counters = [header[k] for k in ("epsilon", "episode_index", "train_count",
                                             "sync_count", "rng_state")]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"bad checkpoint header ({exc})") from None
        state = cls(config, seed)
        blobs = []
        for _ in range(2):
            blob_len = unpack("<Q", "weights")
            start = take(blob_len, "weights")
            blobs.append(data[start:offset])
        state.eval_params = params_from_bytes(blobs[0], config.layer_sizes)
        state.target_params = params_from_bytes(blobs[1], config.layer_sizes)
        state.optstate = init_rmsprop(state.eval_params, config.learning_rate)
        slots = state.optstate.square_avg_w + state.optstate.square_avg_b
        if unpack("<I", "optimizer") != len(slots):
            raise CheckpointError("optimizer state does not match the network")
        for slot in slots:
            raw_len = unpack("<Q", "optimizer")
            if raw_len != slot.size * 8:
                raise CheckpointError("optimizer state does not match the network")
            slot[...] = np.frombuffer(data, dtype="<f8", count=slot.size,
                                      offset=take(raw_len, "optimizer")).reshape(slot.shape)
        n_experiences = unpack("<Q", "buffer")
        packed = np.frombuffer(
            data, dtype="<f8", count=n_experiences * EXPERIENCE_WIDTH,
            offset=take(n_experiences * EXPERIENCE_WIDTH * 8, "buffer"),
        ).reshape(n_experiences, EXPERIENCE_WIDTH)
        if offset != len(data):
            raise CheckpointError("trailing bytes in checkpoint")
        state.buffer.restore(packed)
        (state.epsilon, state.episode_index, state.train_count, state.sync_count,
         rng_state) = counters
        state.rng = np.random.default_rng()
        try:
            state.rng.bit_generator.state = rng_state
        except (ValueError, TypeError, KeyError) as exc:
            raise CheckpointError(f"bad checkpoint rng state ({exc})") from None
        return state


class DDQLExecutionAgent(TradingAgent):
    """Kernel-resident executor for one episode, driven by a LearnerState."""

    _PERIOD, _TERMINAL_SNAPSHOT, _TERMINAL_FILL, _DONE = range(4)

    def __init__(self, config: DDQLConfig, learner: LearnerState,
                 epsilon: Optional[float] = None, train_enabled: bool = True,
                 exchange_id: int = 0, name: str = "ddql"):
        config.validate()
        super().__init__(exchange_id, name)
        self.config = config
        self.learner = learner
        self.epsilon = learner.epsilon if epsilon is None else epsilon
        self.train_enabled = train_enabled
        self._phase = self._PERIOD
        self._period = 0
        self._filled = 0
        self._open_orders: dict[int, int] = {}
        self._period_fills: list[FillRecord] = []
        self._all_fills: list[FillRecord] = []
        self._mids: list[float] = []
        self._prev_state: Optional[StateVector] = None
        self._prev_action: Optional[int] = None
        self._reward_params: Optional[RewardParams] = None
        self._syncs_at_start = learner.sync_count
        self.result = EpisodeResult(episode=learner.episode_index,
                                    parent_quantity=config.parent_quantity,
                                    final_epsilon=self.epsilon, partial=True)

    # -- kernel callbacks ----------------------------------------------------

    def on_start(self, kernel) -> None:
        self.kernel.schedule_wakeup(self.agent_id, self.config.session_start)

    def on_wakeup(self, now: SimTime) -> None:
        for order_id in list(self._open_orders):
            self.send_cancel(order_id)
        self.query_market_data(depth=3)

    def on_message(self, now: SimTime, sender_id: int, payload) -> None:
        if isinstance(payload, OrderExecuted):
            fill = FillRecord(payload.quantity, payload.price)
            self._filled += payload.quantity
            self._period_fills.append(fill)
            self._all_fills.append(fill)
            remaining = self._open_orders.get(payload.order_id)
            if remaining is not None:
                remaining -= payload.quantity
                if remaining > 0:
                    self._open_orders[payload.order_id] = remaining
                else:
                    del self._open_orders[payload.order_id]
        elif isinstance(payload, OrderCancelled):
            self._open_orders.pop(payload.order_id, None)
        elif isinstance(payload, OrderAccepted):
            pass  # open quantity was tracked at send time
        elif isinstance(payload, MarketDataReply):
            self._step(payload.snapshot)

    # -- the period step ------------------------------------------------------

    def _step(self, snapshot) -> None:
        if self._phase == self._PERIOD:
            self._period_step(snapshot)
        elif self._phase == self._TERMINAL_SNAPSHOT:
            residual = self.config.parent_quantity - self._filled
            if residual > 0:
                self.send_market(self.config.side, residual)
                self.query_market_data(depth=3)
                self._phase = self._TERMINAL_FILL
            else:
                self._finish(snapshot)
        elif self._phase == self._TERMINAL_FILL:
            self._finish(snapshot)

    def _period_step(self, snapshot) -> None:
        config = self.config
        learner = self.learner
        i = self._period
        state = featurize(i, config.num_periods, self._filled,
                          config.parent_quantity, snapshot, self._mids)
        if i == 0:
            mid = snapshot.mid_price
            arrival = mid if mid is not None else float(config.parent_quantity)
            self._reward_params = RewardParams(config.reward_scale,
                                               config.parent_quantity, arrival)
            self.result.arrival_price = arrival
        else:
            self._store_reward(state, terminal=False)
        if self.train_enabled and i % config.train_every == 0 and learner.buffer.ready:
            batch = learner.buffer.sample(config.batch_size, learner.rng)
            loss = learner.train_once(batch)
            self.result.losses.append(loss)
            self.result.train_steps += 1
        acting = learner.target_params if config.act_with_target_net else learner.eval_params
        action_index = select_action(state, self.epsilon, learner.rng, acting,
                                     len(learner.action_space))
        open_quantity = sum(self._open_orders.values())
        remaining = config.parent_quantity - self._filled - open_quantity
        children = schedule_orders(learner.action_space.decode(action_index), remaining,
                                   config.twap_child_quantity, snapshot, config.side)
        for child in children:
            if child.kind is OrderKind.MARKET:
                self.send_market(child.side, child.quantity)
            else:
                order_id = self.send_limit(child.side, child.quantity, child.price_ticks)
                self._open_orders[order_id] = child.quantity
        mid = snapshot.mid_price
        if mid is None and self._mids:
            mid = self._mids[-1]
        if mid is not None:
            self._mids.append(mid)
        self._prev_state = state
        self._prev_action = action_index
        self.result.action_trace.append(action_index)
        self._period += 1
        if self._period < config.num_periods:
            self.kernel.schedule_wakeup(
                self.agent_id, config.session_start + self._period * config.period)
        else:
            self._phase = self._TERMINAL_SNAPSHOT
            self.kernel.schedule_wakeup(self.agent_id, config.session_end)

    def _store_reward(self, next_state: StateVector, terminal: bool) -> None:
        reward = compute_reward(self._period_fills, self._reward_params)
        self.result.total_reward += reward
        self.learner.buffer.push(Experience(self._prev_state, self._prev_action,
                                            reward, next_state, terminal))
        self._period_fills = []

    def _finish(self, snapshot) -> None:
        config = self.config
        terminal_state = featurize(config.num_periods, config.num_periods, self._filled,
                                   config.parent_quantity, snapshot, self._mids)
        if self._prev_state is not None:
            self._store_reward(terminal_state, terminal=True)
        self._phase = self._DONE
        self.result.partial = False

    def on_stop(self) -> None:
        self.result.filled_quantity = self._filled
        self.result.final_epsilon = self.epsilon
        self.result.target_syncs = self.learner.sync_count - self._syncs_at_start
        total = sum(f.quantity for f in self._all_fills)
        if total > 0:
            self.result.fill_vwap = (
                sum(f.quantity * f.price_ticks for f in self._all_fills) / total
            )

    def state_summary(self) -> dict:
        return {
            "filled_quantity": self.result.filled_quantity,
            "periods_completed": self._period,
            "train_steps": self.result.train_steps,
            "partial": self.result.partial,
        }
