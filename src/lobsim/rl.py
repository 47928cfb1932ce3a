"""Execution MDP pieces: state features, the 24-action grid, child-order
scheduling, the slippage-based reward, and the FIFO experience buffer.

Periods are indexed 0..T-1 over a fixed session; the parent order of N
shares must be gone by the end.  All prices are integer ticks; features
that divide prices are dimensionless, so tick scaling cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .book import BookSnapshot, OrderKind, Side

MULTIPLIERS = (0.1, 0.5, 1.0, 1.5, 2.0, 2.5)
NUM_PLACEMENTS = 4
PLACEMENT_MARKET = 0
PLACEMENT_TOP = 1
PLACEMENT_SPLIT2 = 2
PLACEMENT_SPLIT3 = 3


def round_half_up(x: float) -> int:
    """round() ties-to-even would under-schedule half-share cases."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True, slots=True)
class StateVector:
    time_remaining: float
    quantity_remaining: float
    spread: float
    volume_imbalance: float
    return_1: float
    return_t: float

    def to_array(self) -> np.ndarray:
        return np.array(
            [self.time_remaining, self.quantity_remaining, self.spread,
             self.volume_imbalance, self.return_1, self.return_t],
            dtype=np.float64,
        )


@dataclass(frozen=True)
class Action:
    multiplier: float
    placement: int


class ActionSpace:
    """Bijection between (multiplier, placement) pairs and indices
    0..len-1, index = num_placements * multiplier_rank + placement."""

    def __init__(self, multipliers: Sequence[float] = MULTIPLIERS):
        self.multipliers = tuple(multipliers)
        self._rank = {m: i for i, m in enumerate(self.multipliers)}

    def __len__(self) -> int:
        return len(self.multipliers) * NUM_PLACEMENTS

    def encode(self, multiplier: float, placement: int) -> int:
        if placement not in range(NUM_PLACEMENTS):
            raise ValueError(f"placement must be 0..3, got {placement}")
        try:
            rank = self._rank[multiplier]
        except KeyError:
            raise ValueError(f"unknown multiplier {multiplier}") from None
        return NUM_PLACEMENTS * rank + placement

    def decode(self, index: int) -> Action:
        if not 0 <= index < len(self):
            raise ValueError(f"action index out of range: {index}")
        rank, placement = divmod(index, NUM_PLACEMENTS)
        return Action(self.multipliers[rank], placement)


def featurize(
    elapsed_periods: int,
    total_periods: int,
    filled_quantity: int,
    parent_quantity: int,
    snapshot: BookSnapshot,
    mid_history: Sequence[float],
) -> StateVector:
    """Build the six-feature state for the current period.

    mid_history carries the mid-prices observed at periods 0..t-1 (empty at
    episode start); the current mid comes from the snapshot.  When the book
    is one-sided or empty, spread and imbalance degrade to 0 and returns
    fall back to the last known mid.
    """
    if total_periods <= 0 or parent_quantity <= 0:
        raise ValueError("total_periods and parent_quantity must be positive")
    t_feat = 2.0 * (total_periods - elapsed_periods) / total_periods - 1.0
    n_feat = 2.0 * (parent_quantity - filled_quantity) / parent_quantity - 1.0
    mid = snapshot.mid_price
    if mid is None:
        spread = 0.0
        imbalance = 0.0
        mid = mid_history[-1] if mid_history else None
    else:
        spread = float(snapshot.spread_ticks)
        q_bid = snapshot.best_bid[1]
        q_ask = snapshot.best_ask[1]
        imbalance = (q_ask - q_bid) / (q_ask + q_bid)
    if mid is None or not mid_history:
        r_one = 0.0
        r_total = 0.0
    else:
        r_one = math.log(mid / mid_history[-1])
        r_total = math.log(mid / mid_history[0])
    return StateVector(t_feat, n_feat, spread, imbalance, r_one, r_total)


@dataclass(frozen=True, slots=True)
class ChildOrder:
    kind: OrderKind
    side: Side
    quantity: int
    price_ticks: int = 0  # unused for MARKET


def schedule_orders(
    action: Action,
    remaining: int,
    twap_child_quantity: int,
    snapshot: BookSnapshot,
    side: Side,
) -> list:
    """Child orders for one period: quantity min(round(a * N_TWAP), remaining)
    spread over the action's placement.

    Split placements use the top own-side levels; when the book has fewer
    levels than the split needs, further prices step one tick away from the
    touch.  An empty book downgrades limit placements to a single market
    order so the period still trades.
    """
    if remaining < 0:
        raise ValueError("remaining inventory cannot be negative")
    total = min(round_half_up(action.multiplier * twap_child_quantity), remaining)
    if total <= 0:
        return []
    if action.placement == PLACEMENT_MARKET:
        return [ChildOrder(OrderKind.MARKET, side, total)]
    prices = _placement_prices(snapshot, side, depth=3)
    if not prices:
        return [ChildOrder(OrderKind.MARKET, side, total)]
    if action.placement == PLACEMENT_TOP:
        quantities = [total]
    elif action.placement == PLACEMENT_SPLIT2:
        first = round_half_up(total * 0.5)
        quantities = [first, total - first]
    else:
        part = round_half_up(total * 0.33)
        quantities = [part, part, total - 2 * part]
    children = []
    for level, quantity in enumerate(quantities):
        if quantity > 0:
            children.append(ChildOrder(OrderKind.LIMIT, side, quantity, prices[level]))
    return children


def _placement_prices(snapshot: BookSnapshot, side: Side, depth: int) -> list:
    """Own-side prices for limit placements, best first, padded one tick
    deeper per missing level.  Falls back to one tick inside the opposite
    best when the own side is empty; empty book gives []."""
    own = snapshot.bids if side is Side.BID else snapshot.asks
    away = -1 if side is Side.BID else 1  # direction of deeper prices
    if own:
        prices = [price for price, _ in own[:depth]]
    else:
        opposite = snapshot.best_ask if side is Side.BID else snapshot.best_bid
        if opposite is None:
            return []
        prices = [opposite[0] + away]
    while len(prices) < depth:
        prices.append(prices[-1] + away)
    return prices


class FillRecord(NamedTuple):
    """Minimal fill view for reward computation."""

    quantity: int
    price_ticks: int


@dataclass
class RewardParams:
    reward_scale: float  # the paper-style scaling constant, > 0
    parent_quantity: int
    arrival_price: float  # mid at episode start, ticks

    def validate(self) -> None:
        if self.reward_scale <= 0:
            raise ValueError("reward_scale must be positive")
        if self.parent_quantity <= 0:
            raise ValueError("parent_quantity must be positive")
        if self.arrival_price <= 0:
            raise ValueError("arrival_price must be positive")


def compute_reward(fills: Sequence, params: RewardParams) -> float:
    """R = (1 - |P_fill - P_arrival| / P_arrival) * scale * N_t / N with
    P_fill the quantity-weighted fill price this period; 0 without fills."""
    params.validate()
    filled = sum(f.quantity for f in fills)
    if filled == 0:
        return 0.0
    notional = sum(f.quantity * f.price_ticks for f in fills)
    fill_price = notional / filled
    slippage = abs(fill_price - params.arrival_price) / params.arrival_price
    return (1.0 - slippage) * params.reward_scale * filled / params.parent_quantity


@dataclass(frozen=True, slots=True)
class Experience:
    state: StateVector
    action: int
    reward: float
    next_state: StateVector
    terminal: bool


# One experience as a float64 row, the replay buffer's and the checkpoint's
# layout: 6 state features, action, reward, 6 next-state features, terminal.
EXPERIENCE_WIDTH = 15
STATE = slice(0, 6)
ACTION = 6
REWARD = 7
NEXT_STATE = slice(8, 14)
TERMINAL = 14

_features = attrgetter(*(f.name for f in fields(StateVector)))


def _experience(row) -> Experience:
    v = row.tolist()
    return Experience(StateVector(*v[STATE]), int(v[ACTION]), v[REWARD],
                      StateVector(*v[NEXT_STATE]), bool(v[TERMINAL]))


class Batch:
    """Experience rows, shape (n, EXPERIENCE_WIDTH).  The learner reads
    their columns; indexing or iterating yields Experience values."""

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int) -> Experience:
        return _experience(self.rows[index])

    def __iter__(self):
        return map(_experience, self.rows)


class BufferNotReadyError(Exception):
    pass


class ReplayBuffer:
    """FIFO experience store: oldest evicted first, uniform sampling
    without replacement once min_experience entries have accumulated.

    Rows live in a ring array: slots fill in order, then each push
    overwrites the oldest slot.  Sampling draws slot numbers, so the rows
    it returns depend on which slot holds which row.  The array grows by
    doubling while it fills, so memory follows the rows stored, not
    max_experience."""

    def __init__(self, max_experience: int = 10_000, min_experience: int = 200):
        if min_experience <= 0 or max_experience < min_experience:
            raise ValueError("need 0 < min_experience <= max_experience")
        self.max_experience = max_experience
        self.min_experience = min_experience
        self.rows = np.zeros((min(max_experience, 1024), EXPERIENCE_WIDTH))
        self._size = 0
        self._next = 0  # slot of the next push; the oldest row once full

    def __len__(self) -> int:
        return self._size

    @property
    def ready(self) -> bool:
        return self._size >= self.min_experience

    def push(self, experience: Experience) -> None:
        if self._next == len(self.rows):
            self._reserve(self._next + 1)
        self.rows[self._next] = (*_features(experience.state), experience.action,
                                 experience.reward, *_features(experience.next_state),
                                 experience.terminal)
        self._next = (self._next + 1) % self.max_experience
        self._size = min(self._size + 1, self.max_experience)

    def oldest_first(self) -> np.ndarray:
        """The stored rows in push order, as a new array."""
        return np.concatenate((self.rows[self._next:self._size], self.rows[:self._next]))

    def restore(self, rows: np.ndarray) -> None:
        """Empties the buffer, then stores `rows` (oldest first) in the
        slots that pushing them one by one would have used."""
        n = len(rows)
        kept = min(n, self.max_experience)
        self._size = 0
        self._reserve(kept)
        self.rows[:kept] = np.roll(rows[n - kept:], n - kept, axis=0)
        self._size = kept
        self._next = n % self.max_experience

    def _reserve(self, count: int) -> None:
        """Room for `count` rows: at least doubles the array, up to
        max_experience, keeping the stored rows in their slots."""
        if count > len(self.rows):
            capacity = min(max(count, 2 * len(self.rows)), self.max_experience)
            grown = np.zeros((capacity, EXPERIENCE_WIDTH))
            grown[:self._size] = self.rows[:self._size]
            self.rows = grown

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        """Uniform sample without replacement; batch sizes beyond the current
        fill are clamped to it."""
        if not self.ready:
            raise BufferNotReadyError(
                f"buffer holds {len(self)} < min_experience {self.min_experience}"
            )
        size = min(batch_size, self._size)
        picks = rng.choice(self._size, size=size, replace=False)
        return Batch(self.rows[picks])


@dataclass
class EpisodeResult:
    """Execution record of one session, comparable across strategies."""

    episode: int
    parent_quantity: int
    total_reward: float = 0.0
    filled_quantity: int = 0
    fill_vwap: Optional[float] = None  # quantity-weighted, ticks
    arrival_price: Optional[float] = None
    action_trace: list = field(default_factory=list)  # action index per period
    final_epsilon: float = 0.0
    losses: list = field(default_factory=list)
    train_steps: int = 0
    target_syncs: int = 0
    partial: bool = False  # session ended before the terminal step completed

    @property
    def slippage(self) -> Optional[float]:
        if self.fill_vwap is None or not self.arrival_price:
            return None
        return abs(self.fill_vwap - self.arrival_price) / self.arrival_price

    @property
    def fill_ratio(self) -> float:
        return self.filled_quantity / self.parent_quantity

    def to_dict(self) -> dict:
        return {
            "episode": self.episode,
            "parent_quantity": self.parent_quantity,
            "total_reward": self.total_reward,
            "filled_quantity": self.filled_quantity,
            "fill_vwap": self.fill_vwap,
            "arrival_price": self.arrival_price,
            "action_trace": list(self.action_trace),
            "final_epsilon": self.final_epsilon,
            "train_steps": self.train_steps,
            "target_syncs": self.target_syncs,
            "partial": self.partial,
            "slippage": self.slippage,
            "fill_ratio": self.fill_ratio,
        }
