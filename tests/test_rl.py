"""Execution MDP: features, action grid, scheduling, reward, replay buffer."""

import math

import numpy as np
import pytest

from lobsim import (
    Action,
    ActionSpace,
    BookSnapshot,
    Experience,
    FillRecord,
    OrderKind,
    ReplayBuffer,
    RewardParams,
    Side,
    StateVector,
    compute_reward,
    featurize,
    schedule_orders,
)
from lobsim.rl import (
    MULTIPLIERS,
    PLACEMENT_MARKET,
    PLACEMENT_SPLIT2,
    PLACEMENT_SPLIT3,
    PLACEMENT_TOP,
    REWARD,
    BufferNotReadyError,
    round_half_up,
)

from replay_reference import ListReplayBuffer, pack


def snap(bids=(), asks=()):
    return BookSnapshot(bids=tuple(bids), asks=tuple(asks))


TWO_SIDED = snap(bids=[(9_990, 100), (9_980, 50)], asks=[(10_010, 300), (10_020, 80)])


class TestRounding:
    @pytest.mark.parametrize("x,expected", [(0.5, 1), (1.5, 2), (2.5, 3), (9.9, 10), (0.49, 0), (3.0, 3)])
    def test_half_up(self, x, expected):
        assert round_half_up(x) == expected


class TestFeaturize:
    def test_episode_start(self):
        state = featurize(0, 10, 0, 600, TWO_SIDED, [])
        assert state.time_remaining == 1.0
        assert state.quantity_remaining == 1.0
        assert state.return_1 == 0.0
        assert state.return_t == 0.0

    def test_midpoint_symmetry(self):
        state = featurize(5, 10, 300, 600, TWO_SIDED, [10_000.0])
        assert state.time_remaining == 0.0
        assert state.quantity_remaining == 0.0

    def test_volume_imbalance_and_flat_returns(self):
        book = snap(bids=[(9_990, 100)], asks=[(10_010, 300)])
        mid = book.mid_price
        state = featurize(3, 10, 0, 600, book, [mid, mid])
        assert state.volume_imbalance == 0.5
        assert state.return_1 == 0.0
        assert state.return_t == 0.0

    def test_log_returns_from_history(self):
        book = snap(bids=[(10_300, 10)], asks=[(10_300, 10)])
        state = featurize(2, 10, 0, 600, book, [10_000.0, 10_200.0])
        assert state.return_1 == pytest.approx(math.log(10_300 / 10_200))
        assert state.return_t == pytest.approx(math.log(10_300 / 10_000))

    def test_spread_in_ticks(self):
        assert featurize(0, 10, 0, 600, TWO_SIDED, []).spread == 20.0

    def test_one_sided_book_degrades(self):
        book = snap(bids=[(9_990, 100)])
        state = featurize(4, 10, 100, 600, book, [10_000.0, 10_050.0])
        assert state.spread == 0.0
        assert state.volume_imbalance == 0.0
        # returns fall back to the last known mid
        assert state.return_1 == 0.0
        assert state.return_t == pytest.approx(math.log(10_050 / 10_000))

    def test_empty_book_no_history_zeroes_returns(self):
        state = featurize(0, 10, 0, 600, snap(), [])
        assert (state.spread, state.volume_imbalance, state.return_1, state.return_t) == (0, 0, 0, 0)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            featurize(0, 0, 0, 600, TWO_SIDED, [])
        with pytest.raises(ValueError):
            featurize(0, 10, 0, 0, TWO_SIDED, [])

    @pytest.mark.parametrize("seed", range(20))
    def test_feature_bounds(self, seed):
        rng = np.random.default_rng(seed)
        total, parent = int(rng.integers(1, 100)), int(rng.integers(1, 5_000))
        elapsed = int(rng.integers(0, total + 1))
        filled = int(rng.integers(0, parent + 1))
        q_bid, q_ask = int(rng.integers(1, 1_000)), int(rng.integers(1, 1_000))
        book = snap(bids=[(9_990, q_bid)], asks=[(10_010, q_ask)])
        state = featurize(elapsed, total, filled, parent, book, [10_000.0])
        assert -1.0 <= state.time_remaining <= 1.0
        assert -1.0 <= state.quantity_remaining <= 1.0
        assert -1.0 <= state.volume_imbalance <= 1.0


class TestActionSpace:
    def test_has_24_actions(self):
        assert len(ActionSpace()) == 24

    def test_encode_formula(self):
        space = ActionSpace()
        assert space.encode(0.1, 0) == 0
        assert space.encode(0.5, 3) == 7
        assert space.encode(2.5, 3) == 23

    def test_bijection_over_grid(self):
        space = ActionSpace()
        for index in range(len(space)):
            action = space.decode(index)
            assert space.encode(action.multiplier, action.placement) == index

    def test_bad_inputs_rejected(self):
        space = ActionSpace()
        with pytest.raises(ValueError):
            space.encode(0.3, 0)
        with pytest.raises(ValueError):
            space.encode(1.0, 4)
        with pytest.raises(ValueError):
            space.decode(24)


class TestScheduleOrders:
    def test_market_action(self):
        children = schedule_orders(Action(1.0, PLACEMENT_MARKET), 600, 10, TWO_SIDED, Side.BID)
        assert [(c.kind, c.quantity) for c in children] == [(OrderKind.MARKET, 10)]

    def test_split3_rounding(self):
        # 2.5 x 12 = 30; round(30 * 0.33) = 10 per level, residual 0
        book = snap(bids=[(9_990, 100), (9_980, 50), (9_970, 25)], asks=[(10_010, 300)])
        children = schedule_orders(Action(2.5, PLACEMENT_SPLIT3), 600, 12, book, Side.BID)
        assert [c.quantity for c in children] == [10, 10, 10]
        assert [c.price_ticks for c in children] == [9_990, 9_980, 9_970]

    def test_missing_levels_pad_one_tick_deeper(self):
        # TWO_SIDED has two bid levels; the third price steps one tick down
        children = schedule_orders(Action(2.5, PLACEMENT_SPLIT3), 600, 12, TWO_SIDED, Side.BID)
        assert [c.price_ticks for c in children] == [9_990, 9_980, 9_979]

    def test_split2_rounding(self):
        children = schedule_orders(Action(0.5, PLACEMENT_SPLIT2), 600, 10, TWO_SIDED, Side.BID)
        assert [c.quantity for c in children] == [3, 2]

    def test_residual_goes_to_deepest_level(self):
        # total 10: parts 3/3, residual 4 on the deepest level
        children = schedule_orders(Action(1.0, PLACEMENT_SPLIT3), 600, 10, TWO_SIDED, Side.BID)
        assert [c.quantity for c in children] == [3, 3, 4]
        assert sum(c.quantity for c in children) == 10

    def test_top_level_limit_rests_at_own_best(self):
        children = schedule_orders(Action(1.0, PLACEMENT_TOP), 600, 10, TWO_SIDED, Side.ASK)
        assert [(c.kind, c.price_ticks, c.quantity) for c in children] == [(OrderKind.LIMIT, 10_010, 10)]

    def test_exhausted_inventory(self):
        assert schedule_orders(Action(0.1, PLACEMENT_MARKET), 0, 10, TWO_SIDED, Side.BID) == []

    def test_remaining_caps_total(self):
        children = schedule_orders(Action(2.5, PLACEMENT_MARKET), 7, 10, TWO_SIDED, Side.BID)
        assert sum(c.quantity for c in children) == 7

    def test_empty_book_downgrades_to_market(self):
        children = schedule_orders(Action(1.0, PLACEMENT_SPLIT3), 600, 10, snap(), Side.BID)
        assert [(c.kind, c.quantity) for c in children] == [(OrderKind.MARKET, 10)]

    def test_own_side_empty_prices_inside_opposite(self):
        book = snap(asks=[(10_010, 50)])
        children = schedule_orders(Action(1.0, PLACEMENT_SPLIT2), 600, 10, book, Side.BID)
        assert [c.price_ticks for c in children] == [10_009, 10_008]

    def test_negative_remaining_rejected(self):
        with pytest.raises(ValueError):
            schedule_orders(Action(1.0, PLACEMENT_MARKET), -1, 10, TWO_SIDED, Side.BID)

    @pytest.mark.parametrize("index", range(24))
    def test_never_exceeds_remaining_full_grid(self, index):
        space = ActionSpace()
        action = space.decode(index)
        rng = np.random.default_rng(index)
        for _ in range(50):
            remaining = int(rng.integers(0, 40))
            twap_child = int(rng.integers(1, 30))
            children = schedule_orders(action, remaining, twap_child, TWO_SIDED, Side.BID)
            total = sum(c.quantity for c in children)
            assert total <= remaining
            assert total == min(round_half_up(action.multiplier * twap_child), remaining)
            assert all(c.quantity > 0 for c in children)


def reward_params(**kw):
    defaults = dict(reward_scale=1.0, parent_quantity=600, arrival_price=100.0)
    defaults.update(kw)
    return RewardParams(**defaults)


class TestReward:
    def test_perfect_execution(self):
        fills = [FillRecord(quantity=600, price_ticks=100)]
        assert compute_reward(fills, reward_params()) == 1.0

    def test_one_percent_slippage_half_fill(self):
        fills = [FillRecord(quantity=300, price_ticks=101)]
        assert compute_reward(fills, reward_params()) == pytest.approx(0.495)

    def test_no_fills(self):
        assert compute_reward([], reward_params()) == 0.0

    def test_vwap_over_multiple_fills(self):
        fills = [FillRecord(100, 100), FillRecord(100, 102)]
        # vwap 101 -> slippage 1%, filled third of parent
        expected = (1 - 0.01) * (200 / 600)
        assert compute_reward(fills, reward_params()) == pytest.approx(expected)

    def test_decreases_with_slippage(self):
        rewards = [
            compute_reward([FillRecord(300, price)], reward_params())
            for price in (100, 101, 102, 105)
        ]
        assert all(a > b for a, b in zip(rewards, rewards[1:]))

    def test_increases_with_quantity(self):
        rewards = [
            compute_reward([FillRecord(qty, 101)], reward_params())
            for qty in (100, 200, 400, 600)
        ]
        assert all(a < b for a, b in zip(rewards, rewards[1:]))

    def test_scale_is_linear(self):
        fills = [FillRecord(300, 101)]
        assert compute_reward(fills, reward_params(reward_scale=2.0)) == pytest.approx(
            2 * compute_reward(fills, reward_params())
        )

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            compute_reward([FillRecord(1, 100)], reward_params(reward_scale=0.0))
        with pytest.raises(ValueError):
            compute_reward([FillRecord(1, 100)], reward_params(arrival_price=0.0))


def experience(tag: float) -> Experience:
    state = StateVector(tag, 0, 0, 0, 0, 0)
    return Experience(state, 0, tag, state, False)


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buffer = ReplayBuffer(max_experience=3, min_experience=1)
        for tag in (1.0, 2.0, 3.0, 4.0):
            buffer.push(experience(tag))
        assert buffer.oldest_first()[:, REWARD].tolist() == [2.0, 3.0, 4.0]
        assert len(buffer) == 3

    def test_not_ready_below_minimum(self):
        buffer = ReplayBuffer(max_experience=10, min_experience=3)
        buffer.push(experience(1.0))
        assert not buffer.ready
        with pytest.raises(BufferNotReadyError):
            buffer.sample(2, np.random.default_rng(0))

    def test_seeded_sampling_is_deterministic(self):
        buffer = ReplayBuffer(max_experience=100, min_experience=5)
        for tag in range(50):
            buffer.push(experience(float(tag)))
        batch_a = buffer.sample(8, np.random.default_rng(7))
        batch_b = buffer.sample(8, np.random.default_rng(7))
        assert [e.reward for e in batch_a] == [e.reward for e in batch_b]

    def test_sampling_without_replacement(self):
        buffer = ReplayBuffer(max_experience=100, min_experience=5)
        for tag in range(20):
            buffer.push(experience(float(tag)))
        batch = buffer.sample(20, np.random.default_rng(1))
        rewards = [e.reward for e in batch]
        assert len(set(rewards)) == len(rewards)

    def test_oversized_batch_clamps(self):
        buffer = ReplayBuffer(max_experience=100, min_experience=3)
        for tag in range(5):
            buffer.push(experience(float(tag)))
        assert len(buffer.sample(32, np.random.default_rng(0))) == 5

    def test_eviction_keeps_fifo_after_many_wraps(self):
        buffer = ReplayBuffer(max_experience=4, min_experience=1)
        for tag in range(11):
            buffer.push(experience(float(tag)))
        assert buffer.oldest_first()[:, REWARD].tolist() == [7.0, 8.0, 9.0, 10.0]

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(max_experience=5, min_experience=10)
        with pytest.raises(ValueError):
            ReplayBuffer(max_experience=5, min_experience=0)


def random_experience(rng) -> Experience:
    return Experience(StateVector(*rng.normal(size=6).tolist()), int(rng.integers(24)),
                      float(rng.normal()), StateVector(*rng.normal(size=6).tolist()),
                      bool(rng.random() < 0.2))


class TestRingAgainstListReference:
    """The ring array against `replay_reference.ListReplayBuffer`, bit for bit."""

    def test_pushes_past_wraparound_and_seeded_samples(self):
        data = np.random.default_rng(21)
        ring = ReplayBuffer(max_experience=7, min_experience=1)
        reference = ListReplayBuffer(7)
        for step in range(40):  # wraps the ring five times
            e = random_experience(data)
            ring.push(e)
            reference.push(e)
            assert len(ring) == len(reference.storage)
            assert ring.oldest_first().tobytes() == pack(reference.as_list()).tobytes()
            size = int(data.integers(1, 10))
            batch = ring.sample(size, np.random.default_rng(step))
            expected = reference.sample(size, np.random.default_rng(step))
            assert batch.rows.tobytes() == pack(expected).tobytes()
            assert list(batch) == expected
            assert batch[len(batch) - 1] == expected[-1]

    def test_growth_keeps_every_row_in_its_slot(self):
        # 5,000 slots start as a smaller array that doubles as it fills
        data = np.random.default_rng(22)
        ring = ReplayBuffer(max_experience=5_000, min_experience=1)
        reference = ListReplayBuffer(5_000)
        for step in range(12_000):
            e = random_experience(data)
            ring.push(e)
            reference.push(e)
            if step % 1_500 == 0 or step in (1_023, 1_024, 4_999, 5_000):
                assert ring.oldest_first().tobytes() == pack(reference.as_list()).tobytes()
                batch = ring.sample(32, np.random.default_rng(step))
                expected = reference.sample(32, np.random.default_rng(step))
                assert batch.rows.tobytes() == pack(expected).tobytes()
        assert len(ring.rows) == 5_000

    def test_large_capacity_costs_only_the_rows_stored(self):
        buffer = ReplayBuffer(max_experience=10**9, min_experience=2)
        data = np.random.default_rng(23)
        for _ in range(3):
            buffer.push(random_experience(data))
        assert len(buffer.sample(2, np.random.default_rng(0))) == 2
        assert buffer.rows.nbytes < 1 << 20
        buffer.restore(pack([random_experience(data) for _ in range(2_000)]))
        assert len(buffer) == 2_000 and buffer.rows.nbytes < 1 << 20

    @pytest.mark.parametrize("rows", [0, 5, 7, 12, 21])
    def test_restore_uses_the_slots_of_one_push_per_row(self, rows):
        data = np.random.default_rng(rows)
        experiences = [random_experience(data) for _ in range(rows)]
        pushed = ReplayBuffer(max_experience=7, min_experience=1)
        for e in experiences:
            pushed.push(e)
        restored = ReplayBuffer(max_experience=7, min_experience=1)
        restored.push(random_experience(data))  # restore replaces what was there
        restored.restore(pack(experiences))
        assert len(restored) == len(pushed)
        assert restored.rows[:len(pushed)].tobytes() == pushed.rows[:len(pushed)].tobytes()
        e = random_experience(data)
        pushed.push(e)
        restored.push(e)
        assert restored.oldest_first().tobytes() == pushed.oldest_first().tobytes()

