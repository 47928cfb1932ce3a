"""The learner step against `learner_reference`, bit for bit: losses,
weights, biases and RMSprop averages, signs of zero included.  Also the two
identities that keep subnormal averages away from a multiply and a square
root, the stuck regime of a dead ReLU unit, and the flat parameter layout
that lets one `theta -= step` reach the network."""

import math

import numpy as np
import pytest

import learner_reference as ref
from lobsim import DDQLConfig, Experience, LearnerState, StateVector, seconds
from lobsim.mlp import (
    MLPParams,
    copy_params,
    init_params,
    init_rmsprop,
    params_from_bytes,
    params_to_bytes,
    rho_fixed_point,
    train_step,
)
from lobsim.rl import ACTION, STATE

ULP = math.ldexp(1.0, -1074)  # the least subnormal
LEAST_NORMAL = 2.2250738585072014e-308


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def assert_same_state(params, opt, net, ref_opt, step):
    for got, want in zip(params.weights + params.biases, net.weights + net.biases):
        assert same_bits(got, want), f"parameters differ after step {step}"
    assert same_bits(opt.square_avg, ref_opt.flat()), f"averages differ after step {step}"


def seeded_averages(size: int, rng) -> np.ndarray:
    """Zeros, 1-5 ulp, subnormals in transit (6 ulp to 2**40 ulp) and
    normal values, shuffled over `size` slots."""
    pool = np.concatenate([
        np.zeros(4),
        np.arange(1, 6) * ULP,
        np.array([6, 7, 11, 100, 2**20, 2**33, 2**40]) * ULP,
        [LEAST_NORMAL, 1e-300, 1e-200, 1e-49, 1e-20, 1e-3, 0.5],
    ])
    return rng.choice(pool, size)


def hard_batch(rng, width: int, outputs: int, size: int = 8):
    """Inputs whose first column is tiny (its weights get gradients near
    1e-160, whose squares are subnormal) and whose second is zero (exact
    zero gradients)."""
    x = rng.normal(size=(size, width))
    x[:, 0] = 1e-160
    x[:, 1] = 0.0
    return x, rng.integers(0, outputs, size=size), rng.normal(size=size)


def kill_unit(params, layer: int, unit: int) -> None:
    """ReLU unit `unit` of hidden layer `layer` never fires again."""
    params.weights[layer][:, unit] = 0.0
    params.biases[layer][unit] = -1.0


class TestAgainstReference:
    @pytest.mark.parametrize("hidden", [(16,), (16, 8)])
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("eps", [1e-8, 1e-300])
    def test_seeded_averages_and_hard_gradients(self, hidden, dropout, rho, eps):
        sizes = (6, *hidden, 24)
        params = init_params(sizes, dropout, np.random.default_rng(1))
        kill_unit(params, 0, 3)
        opt = init_rmsprop(params, learning_rate=0.01, decay=rho, epsilon=eps)
        data = np.random.default_rng(2)
        opt.square_avg[:] = seeded_averages(opt.square_avg.size, data)
        net = ref.ReferenceNet.of(params)
        ref_opt = ref.ReferenceRMSprop(net, 0.01, rho, eps, opt.square_avg)
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        subnormal_steps = 0
        for step in range(300):
            batch = hard_batch(data, 6, 24)
            assert train_step(params, opt, batch, rng) == ref.train_step(net, ref_opt, batch,
                                                                         ref_rng)
            assert_same_state(params, opt, net, ref_opt, step)
            s = opt.square_avg
            subnormal_steps += bool(((s > 0.0) & (s < LEAST_NORMAL)).any())
        # the run passed through the regimes it is meant to cover
        assert (opt.square_avg == 0.0).any() and subnormal_steps > 10

    @pytest.mark.parametrize("hidden, dropout", [((16,), 0.0), ((64, 64), 0.2)])
    def test_fresh_learner(self, hidden, dropout):
        """`LearnerState.train_once`, targets and target syncs included, from
        a fresh learner; the reference draws dropout from a copy of the
        learner's generator taken before each step."""
        config = DDQLConfig(episodes=1, num_periods=4, period=seconds(1), session_start=0,
                            session_end=seconds(4), hidden_sizes=hidden,
                            dropout_rate=dropout, min_experience=32, batch_size=32,
                            target_sync_every=5)
        learner = LearnerState(config, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(200):
            state = StateVector(*rng.uniform(-1, 1, size=6))
            learner.buffer.push(Experience(state, int(rng.integers(24)), float(rng.normal()),
                                           StateVector(*rng.uniform(-1, 1, size=6)),
                                           bool(rng.random() < 0.1)))
        net = ref.ReferenceNet.of(learner.eval_params)
        target = ref.ReferenceNet.of(learner.target_params)
        ref_opt = ref.ReferenceRMSprop(net)
        for step in range(300):
            batch = learner.buffer.sample(config.batch_size, learner.rng)
            ref_rng = np.random.default_rng()
            ref_rng.bit_generator.state = learner.rng.bit_generator.state
            targets = ref.compute_target(batch, config.gamma, net, target)
            want = ref.train_step(net, ref_opt, (np.ascontiguousarray(batch.rows[:, STATE]),
                                                 batch.rows[:, ACTION].astype(np.int64),
                                                 targets), ref_rng)
            if (step + 1) % config.target_sync_every == 0:
                target = ref.ReferenceNet.of(net)
            assert learner.train_once(batch) == want
            assert_same_state(learner.eval_params, learner.optstate, net, ref_opt, step)
            for got, expected in zip(learner.target_params.weights, target.weights):
                assert same_bits(got, expected)


class TestIdentities:
    @pytest.mark.parametrize("rho, ulps", [(0.5, 0), (0.9, 5), (0.99, 49), (0.999, 499)])
    def test_fixed_point_ends_the_run_of_fixed_points(self, rho, ulps):
        assert rho_fixed_point(rho) == ulps * ULP
        for k in range(ulps + 1):
            assert (k * ULP) * rho == k * ULP
        assert ((ulps + 1) * ULP) * rho != (ulps + 1) * ULP

    @staticmethod
    def sqrt_floor(eps: float) -> float:
        return init_rmsprop(init_params((6, 24), 0.0, np.random.default_rng(0)),
                            epsilon=eps).sqrt_floor

    @pytest.mark.parametrize("eps", [1e-8, 1e-300, 1.0, 2.0**-30, 3e-170])
    def test_sqrt_floor_keeps_every_bit(self, eps):
        floor = self.sqrt_floor(eps)
        s = np.concatenate([[0.0], np.arange(1, 8) * ULP, [LEAST_NORMAL, 1e-300, 1e-100],
                            np.nextafter(floor, [0.0, 1.0]) if floor else [],
                            [floor, floor * 4, floor * 16, 1e-16, 1.0, np.inf, np.nan]])
        assert same_bits(np.sqrt(np.maximum(s, floor)) + eps, np.sqrt(s) + eps)

    def test_sqrt_floor_is_normal_at_the_default_epsilon(self):
        assert self.sqrt_floor(1e-8) >= LEAST_NORMAL

    @pytest.mark.parametrize("decay, epsilon", [(1.0, 1e-8), (-0.1, 1e-8), (math.nan, 1e-8),
                                                (0.9, 0.0), (0.9, -1e-8)])
    def test_rmsprop_outside_the_identities_refused(self, decay, epsilon):
        params = init_params((6, 24), 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="RMSprop"):
            init_rmsprop(params, decay=decay, epsilon=epsilon)


class TestStuckRegime:
    def test_dead_unit_averages_settle_at_the_fixed_point(self):
        """A unit that once learned and then died: its averages start at a
        normal 1e-300, fall through the subnormals and stop at 5 ulp, where
        they stay; the reference agrees at every step."""
        params = init_params((6, 4, 24), 0.0, np.random.default_rng(7))
        kill_unit(params, 0, 2)
        opt = init_rmsprop(params)
        marker = copy_params(params)  # the same layout, to find the unit's slots
        marker.theta[:] = 0.0
        marker.weights[0][:, 2] = marker.biases[0][2] = marker.weights[1][2, :] = 1.0
        dead = marker.theta == 1.0
        opt.square_avg[dead] = 1e-300
        net = ref.ReferenceNet.of(params)
        ref_opt = ref.ReferenceRMSprop(net, square_avg=opt.square_avg)
        data = np.random.default_rng(8)
        in_transit = 0
        for step in range(600):
            x = data.normal(size=(8, 6))
            batch = (x, data.integers(0, 24, size=8), data.normal(size=8))
            assert train_step(params, opt, batch) == ref.train_step(net, ref_opt, batch)
            assert_same_state(params, opt, net, ref_opt, step)
            stuck = opt.square_avg[dead]
            in_transit += bool(((stuck > 5 * ULP) & (stuck < LEAST_NORMAL)).any())
        assert dead.sum() == 6 + 1 + 24
        assert (opt.square_avg[dead] == rho_fixed_point(0.9)).all()
        assert in_transit > 100  # they fell through the subnormals on the way


class TestFlatLayout:
    def views_theta(self, params) -> bool:
        return all(t.base is params.theta for t in params.weights + params.biases)

    def test_update_reaches_a_loaded_network_and_a_copy(self):
        params = init_params((6, 8, 24), 0.2, np.random.default_rng(9))
        batch = hard_batch(np.random.default_rng(10), 6, 24)
        for other in (params_from_bytes(params_to_bytes(params)), copy_params(params)):
            assert self.views_theta(other)
            before = [w.copy() for w in other.weights]
            train_step(other, init_rmsprop(other), batch, np.random.default_rng(11))
            assert all(not np.array_equal(a, b) for a, b in zip(before, other.weights))
        original = copy_params(params)
        train_step(original, init_rmsprop(original), batch, np.random.default_rng(11))
        assert same_bits(original.theta, other.theta)

    def test_update_reaches_a_loaded_learner(self, tmp_path):
        config = DDQLConfig(episodes=1, num_periods=4, period=seconds(1), session_start=0,
                            session_end=seconds(4), hidden_sizes=(8,), min_experience=4,
                            batch_size=4)
        learner = LearnerState(config, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(8):
            state = StateVector(*rng.uniform(-1, 1, size=6))
            learner.buffer.push(Experience(state, int(rng.integers(24)), 1.0, state, False))
        learner.save(tmp_path / "learner.ckpt")
        loaded = LearnerState.load(tmp_path / "learner.ckpt", config, seed=2)
        assert self.views_theta(loaded.eval_params) and self.views_theta(loaded.target_params)
        before = loaded.eval_params.weights[0].copy()
        loaded.train_once(loaded.buffer.sample(4, loaded.rng))
        assert not np.array_equal(before, loaded.eval_params.weights[0])

    def test_constructor_views_theta_layer_by_layer(self):
        theta = np.arange(13.0)
        params = MLPParams(theta, [2, 3, 1], 0.0)
        assert params.theta is theta and self.views_theta(params)
        assert params.weights[0].tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        assert params.biases[0].tolist() == [6.0, 7.0, 8.0]
        assert params.weights[1].tolist() == [[9.0], [10.0], [11.0]]
        assert params.biases[1].tolist() == [12.0]

    def test_array_put_in_place_of_a_view_is_refused(self):
        params = init_params((6, 8, 24), 0.0, np.random.default_rng(12))
        params.weights[1] = params.weights[1].copy()
        with pytest.raises(ValueError, match="views of theta"):
            params_to_bytes(params)
