"""Double deep Q-learning execution agent.

One observation per period boundary: the agent cancels its stale child
orders, requests a snapshot, and acts on the reply.  Message FIFO ordering
guarantees the cancel acknowledgements and any racing fills arrive before
that reply, so no child order is open when the step sizes the next ones and
inventory accounting inside the step is exact.

Two networks: the evaluation network is trained every train_every periods
and also picks greedy actions; the target network only scores the
evaluation network's argmax when building targets and is overwritten from
the evaluation network every target_sync_every trainings.

At the session end any residual inventory goes out as a single market
order whose fills fold into the final period's reward.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..book import BookSnapshot, OrderKind, Side
from ..kernel import SimTime, seconds, time_from_str
from ..messages import OrderCancelled, OrderExecuted
from ..mlp import (
    ByteReader,
    CheckpointError,
    MLPParams,
    copy_params,
    forward,
    init_params,
    init_rmsprop,
    parameter_count,
    params_from_bytes,
    params_to_bytes,
    train_step,
)
from ..rl import (
    ACTION,
    EXPERIENCE_WIDTH,
    NEXT_STATE,
    NUM_ACTIONS,
    REWARD,
    STATE,
    TERMINAL,
    ActionSpace,
    Batch,
    EpisodeResult,
    Experience,
    ReplayBuffer,
    StateVector,
    compute_reward,
    featurize,
    schedule_orders,
)
from .base import TradingAgent

CHECKPOINT_MAGIC = b"DDQC"
CHECKPOINT_VERSION = 1

# At 8 bytes a float64 parameter a network this size takes 80 MB, and the
# learner holds four copies (the two networks, the RMSprop averages and the
# gradient), plus three more while a step runs.
MAX_NETWORK_PARAMETERS = 10**7


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

    def validate(self) -> None:
        if self.episodes < 1:
            raise ValueError("episodes must be at least 1")
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
        parameters = parameter_count(self.layer_sizes)
        if parameters > MAX_NETWORK_PARAMETERS:
            raise ValueError(f"hidden_sizes: the network would have {parameters:,} parameters, "
                             f"more than the {MAX_NETWORK_PARAMETERS:,} allowed")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")

    @property
    def twap_child_quantity(self) -> float:
        return self.parent_quantity / self.num_periods

    def epsilon_for_episode(self, episode_index: int) -> float:
        return max(self.epsilon_min, self.epsilon_start * self.epsilon_decay**episode_index)

    @property
    def layer_sizes(self) -> list:
        return [6, *self.hidden_sizes, NUM_ACTIONS]


def select_action(state: StateVector, epsilon: float, rng: np.random.Generator,
                  params: MLPParams) -> int:
    """epsilon-greedy action index; greedy ties break to the lowest index."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(NUM_ACTIONS))
    return int(np.argmax(forward(params, state.to_array())))


def compute_target(batch: Batch, gamma: float, eval_params: MLPParams,
                   target_params: MLPParams) -> np.ndarray:
    """Decoupled targets: the evaluation network chooses the next action,
    the target network scores it.  Terminal rows are bare rewards."""
    rows = batch.rows
    next_states = np.ascontiguousarray(rows[:, NEXT_STATE])
    greedy = np.argmax(forward(eval_params, next_states), axis=1)
    next_q = forward(target_params, next_states)[np.arange(len(rows)), greedy]
    return rows[:, REWARD] + gamma * next_q * (rows[:, TERMINAL] == 0.0)


def replace_file(path, data: bytes) -> None:
    """Writes `data` to a temporary file beside `path` and renames it over
    `path`, so that a stop leaves either the old file or the new one whole."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=os.path.basename(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):  # gone if the stop came after the rename
            os.unlink(tmp)
        raise


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
        self.action_space = ActionSpace()
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

    def to_bytes(self) -> bytes:
        """The checkpoint; raises NumericalError for non-finite parameters."""
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
        return b"".join(chunks)

    def save(self, path) -> None:
        replace_file(path, self.to_bytes())

    @classmethod
    def load(cls, path, config: DDQLConfig, seed: int = 0) -> "LearnerState":
        """Raises CheckpointError naming `path` for any file that is not a
        whole checkpoint of this config's network shape and dropout rate."""
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
        reader = ByteReader(data)
        reader.take(4, "header")
        (version,) = reader.unpack("<I", "header")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (header_len,) = reader.unpack("<I", "header")
        try:
            header = json.loads(reader.blob(header_len, "header"))
            counters = [header[k] for k in ("epsilon", "episode_index", "train_count",
                                             "sync_count", "rng_state")]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"bad checkpoint header ({exc})") from None
        state = cls(config, seed)
        blobs = [reader.blob(reader.unpack("<Q", "weights")[0], "weights") for _ in range(2)]
        state.eval_params = params_from_bytes(blobs[0], config.layer_sizes)
        state.target_params = params_from_bytes(blobs[1], config.layer_sizes)
        for params in (state.eval_params, state.target_params):
            if params.dropout_rate != config.dropout_rate:
                raise CheckpointError(f"dropout rate {params.dropout_rate} does not match "
                                      f"the config's {config.dropout_rate}")
        state.optstate = init_rmsprop(state.eval_params, config.learning_rate)
        slots = state.optstate.square_avg_w + state.optstate.square_avg_b
        if reader.unpack("<I", "optimizer")[0] != len(slots):
            raise CheckpointError("optimizer state does not match the network")
        for slot in slots:
            if reader.unpack("<Q", "optimizer")[0] != slot.size * 8:
                raise CheckpointError("optimizer state does not match the network")
            slot[...] = reader.floats(slot.size, "optimizer").reshape(slot.shape)
        (n_experiences,) = reader.unpack("<Q", "buffer")
        packed = reader.floats(n_experiences * EXPERIENCE_WIDTH, "buffer") \
            .reshape(n_experiences, EXPERIENCE_WIDTH)
        reader.finish()
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
    """Kernel-resident executor for one episode, driven by a LearnerState.
    The action trace holds one action per period stepped, so its length is
    the period index and its last entry the previous action."""

    _PERIOD, _TERMINAL_SNAPSHOT, _TERMINAL_FILL = range(3)

    def __init__(self, config: DDQLConfig, learner: LearnerState,
                 epsilon: Optional[float] = None, train_enabled: bool = True,
                 name: str = "ddql"):
        config.validate()
        super().__init__(name)
        self.config = config
        self.learner = learner
        self.epsilon = learner.epsilon if epsilon is None else epsilon
        self.train_enabled = train_enabled
        self._phase = self._PERIOD
        self._open_orders: dict[int, int] = {}
        self._notional = 0  # sum of quantity * price over every fill, in ticks
        self._period_filled = self._period_notional = 0  # this period's fills, for its reward
        self._mids: list[float] = []
        self._prev_state: Optional[StateVector] = None
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
            notional = payload.quantity * payload.price
            self.result.filled_quantity += payload.quantity
            self._notional += notional
            self._period_filled += payload.quantity
            self._period_notional += notional
            remaining = self._open_orders.get(payload.order_id)
            if remaining is not None:
                remaining -= payload.quantity
                if remaining > 0:
                    self._open_orders[payload.order_id] = remaining
                else:
                    del self._open_orders[payload.order_id]
        elif isinstance(payload, OrderCancelled):
            self._open_orders.pop(payload.order_id, None)
        elif isinstance(payload, BookSnapshot):
            self._step(payload)

    # -- the period step ------------------------------------------------------

    def _step(self, snapshot) -> None:
        if self._phase == self._PERIOD:
            self._period_step(snapshot)
        elif self._phase == self._TERMINAL_SNAPSHOT:
            residual = self.config.parent_quantity - self.result.filled_quantity
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
        result = self.result
        i = len(result.action_trace)
        state = featurize(i, config.num_periods, result.filled_quantity,
                          config.parent_quantity, snapshot, self._mids)
        if i == 0:
            mid = snapshot.mid_price
            result.arrival_price = mid if mid is not None else float(config.parent_quantity)
        else:
            self._store_reward(state, terminal=False)
        if self.train_enabled and i % config.train_every == 0 and learner.buffer.ready:
            batch = learner.buffer.sample(config.batch_size, learner.rng)
            loss = learner.train_once(batch)
            result.losses.append(loss)
            result.train_steps += 1
        action_index = select_action(state, self.epsilon, learner.rng, learner.eval_params)
        remaining = config.parent_quantity - result.filled_quantity
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
        result.action_trace.append(action_index)
        if i + 1 < config.num_periods:
            self.kernel.schedule_wakeup(
                self.agent_id, config.session_start + (i + 1) * config.period)
        else:
            self._phase = self._TERMINAL_SNAPSHOT
            self.kernel.schedule_wakeup(self.agent_id, config.session_end)

    def _store_reward(self, next_state: StateVector, terminal: bool) -> None:
        """Stores the transition out of the previous period, rewarded with
        that period's fills."""
        config = self.config
        reward = compute_reward(self._period_filled, self._period_notional,
                                self.result.arrival_price, config.parent_quantity)
        self.result.total_reward += reward
        self.learner.buffer.push(Experience(self._prev_state, self.result.action_trace[-1],
                                            reward, next_state, terminal))
        self._period_filled = self._period_notional = 0

    def _finish(self, snapshot) -> None:
        config = self.config
        terminal_state = featurize(config.num_periods, config.num_periods,
                                   self.result.filled_quantity, config.parent_quantity,
                                   snapshot, self._mids)
        self._store_reward(terminal_state, terminal=True)
        self.result.partial = False

    def on_stop(self) -> None:
        self.result.target_syncs = self.learner.sync_count - self._syncs_at_start
        if self.result.filled_quantity > 0:
            self.result.fill_vwap = self._notional / self.result.filled_quantity

    def state_summary(self) -> dict:
        return {
            "filled_quantity": self.result.filled_quantity,
            "periods_completed": len(self.result.action_trace),
            "train_steps": self.result.train_steps,
            "partial": self.result.partial,
        }
