"""Dense Q-network: forward pass, hand-derived gradients, RMSprop, checkpoints."""

import struct

import numpy as np
import pytest

import learner_reference as ref
from lobsim import MLPParams, forward, init_params, train_step
from lobsim.mlp import (
    CheckpointError,
    NumericalError,
    _forward,
    copy_params,
    init_rmsprop,
    parameter_count,
    params_from_bytes,
    params_to_bytes,
)


def zero_net(sizes, dropout=0.0) -> MLPParams:
    return MLPParams(np.zeros(parameter_count(sizes)), sizes, dropout)


def gradients(params: MLPParams, inputs, actions, targets):
    """(loss, grad_w, grad_b) at `params`, read off the optimizer after a
    train step on a copy."""
    trained = copy_params(params)
    opt = init_rmsprop(trained)
    loss = train_step(trained, opt, (inputs, actions, targets))
    return loss, opt.grad_w, opt.grad_b


def random_net(sizes=(6, 8, 24), dropout=0.0, seed=0) -> MLPParams:
    return init_params(sizes, dropout, np.random.default_rng(seed))


def masked_loss(params: MLPParams, inputs, actions, targets) -> float:
    outputs = forward(params, inputs)
    taken = outputs[np.arange(len(actions)), actions]
    return float(np.mean((taken - targets) ** 2))


class TestForward:
    def test_zero_net_outputs_zeros(self):
        params = zero_net([6, 8, 24])
        out = forward(params, np.ones(6))
        assert out.shape == (24,)
        assert np.all(out == 0.0)

    def test_single_linear_layer_identity(self):
        params = zero_net([6, 24])
        params.weights[0][:6, :6] = np.eye(6)
        x = np.arange(6, dtype=np.float64)
        out = forward(params, x)
        assert np.array_equal(out[:6], x)
        assert np.all(out[6:] == 0.0)

    def test_deterministic_under_dropout(self):
        params = random_net(dropout=0.5)
        x = np.random.default_rng(1).normal(size=6)
        assert np.array_equal(forward(params, x), forward(params, x))

    def test_batch_shape(self):
        params = random_net()
        batch = np.random.default_rng(2).normal(size=(5, 6))
        out = forward(params, batch)
        assert out.shape == (5, 24)
        # batched BLAS path may differ from the single-row path by ~1 ulp
        np.testing.assert_allclose(out[3], forward(params, batch[3]), rtol=0, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            forward(random_net(), np.ones(5))

    def test_train_with_dropout_requires_rng(self):
        params = random_net(dropout=0.2)
        with pytest.raises(ValueError, match="dropout needs an rng"):
            train_step(params, init_rmsprop(params), (np.ones((1, 6)), [0], [0.0]))

    def test_relu_kills_negative_preactivations(self):
        params = zero_net([1, 1, 1])
        params.weights[0][0, 0] = 1.0
        params.weights[1][0, 0] = 1.0
        assert forward(params, np.array([-5.0]))[0] == 0.0
        assert forward(params, np.array([3.0]))[0] == 3.0


class TestDropout:
    def test_inverted_dropout_preserves_expectation(self):
        # pass-through net: output = x * mask; mean mask must be ~1
        params = zero_net([1, 1, 1], dropout=0.4)
        params.weights[0][0, 0] = 1.0
        params.weights[1][0, 0] = 1.0
        rng = np.random.default_rng(0)
        n = 10_000
        outs = _forward(params, np.ones((n, 1)), rng)[:, 0]
        keep = 0.6
        sigma_mean = np.sqrt((1 - keep) / keep / n)
        assert abs(outs.mean() - 1.0) <= 3 * sigma_mean
        # realized values are either dropped or scaled by 1/keep
        assert set(np.round(np.unique(outs), 12)) <= {0.0, round(1 / keep, 12)}

    def test_forward_ignores_dropout(self):
        params = random_net(dropout=0.9)
        without = MLPParams(params.theta, params.layer_sizes, 0.0)
        x = np.ones(6)
        assert np.array_equal(forward(params, x), forward(without, x))

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            zero_net([6, 24], dropout=1.0).validate()


class TestGradients:
    def test_single_weight_matches_hand_formula(self):
        # 1-in 1-out linear: loss = (wx + b - y)^2
        params = zero_net([1, 1])
        params.weights[0][0, 0] = 0.7
        params.biases[0][0] = 0.1
        loss, grad_w, grad_b = gradients(params, np.array([[2.0]]), np.array([0]), np.array([1.0]))
        # pred 1.5, err 0.5: dL/dw = 2*err*x = 2.0, dL/db = 2*err = 1.0
        assert loss == pytest.approx(0.25)
        assert grad_w[0][0, 0] == pytest.approx(2.0)
        assert grad_b[0][0] == pytest.approx(1.0)

    def test_gradients_match_central_differences(self):
        params = random_net(seed=3)
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(4, 6))
        actions = rng.integers(0, 24, size=4)
        targets = rng.normal(size=4)
        _, grad_w, grad_b = gradients(params, inputs, actions, targets)
        h = 1e-5

        def check(array, grad):
            flat, gflat = array.ravel(), grad.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = masked_loss(params, inputs, actions, targets)
                flat[i] = keep - h
                down = masked_loss(params, inputs, actions, targets)
                flat[i] = keep
                numeric = (up - down) / (2 * h)
                scale = max(abs(numeric), abs(gflat[i]), 1e-6)
                assert abs(numeric - gflat[i]) / scale <= 1e-4

        for w, gw in zip(params.weights, grad_w):
            check(w, gw)
        for b, gb in zip(params.biases, grad_b):
            check(b, gb)

    def test_gradient_masked_to_taken_action(self):
        # single linear layer: weight columns for untaken actions get no gradient
        params = zero_net([6, 24])
        _, grad_w, _ = gradients(params, np.ones((1, 6)), np.array([7]), np.array([1.0]))
        touched = np.nonzero(np.any(grad_w[0] != 0.0, axis=0))[0]
        assert touched.tolist() == [7]

    def test_nonfinite_loss_aborts_with_diagnostics(self):
        params = zero_net([1, 1])
        params.weights[0][0, 0] = 1e308
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="non-finite"):
            gradients(params, np.array([[1e10]]), np.array([0]), np.array([0.0]))


class TestTrainStep:
    def test_fixed_point_leaves_params_unchanged(self):
        params = random_net(seed=5)
        opt = init_rmsprop(params)
        inputs = np.random.default_rng(6).normal(size=(3, 6))
        actions = np.array([1, 2, 3])
        targets = forward(params, inputs)[np.arange(3), actions]
        before = [w.copy() for w in params.weights]
        loss = train_step(params, opt, (inputs, actions, targets))
        assert loss == 0.0
        for w_before, w_after in zip(before, params.weights):
            assert np.array_equal(w_before, w_after)

    def test_single_step_rmsprop_arithmetic(self):
        # grad 2.0 -> sq_avg 0.4 -> step = 0.01*2/(sqrt(0.4)+1e-8)
        params = zero_net([1, 1])
        params.weights[0][0, 0] = 0.7
        params.biases[0][0] = 0.1
        opt = init_rmsprop(params, learning_rate=0.01)
        train_step(params, opt, (np.array([[2.0]]), np.array([0]), np.array([1.0])))
        expected_w = 0.7 - 0.01 * 2.0 / (np.sqrt(0.1 * 4.0) + 1e-8)
        expected_b = 0.1 - 0.01 * 1.0 / (np.sqrt(0.1 * 1.0) + 1e-8)
        assert params.weights[0][0, 0] == pytest.approx(expected_w, abs=1e-12)
        assert params.biases[0][0] == pytest.approx(expected_b, abs=1e-12)

    def test_loss_decreases_over_repeated_steps(self):
        params = random_net(seed=7)
        opt = init_rmsprop(params, learning_rate=1e-3)
        rng = np.random.default_rng(8)
        batch = (rng.normal(size=(16, 6)), rng.integers(0, 24, size=16), rng.normal(size=16))
        losses = [train_step(params, opt, batch) for _ in range(20)]
        assert losses[-1] < losses[0]

    def test_flat_pass_is_bitwise_the_per_layer_formula(self):
        # The reference keeps one square average per tensor and updates
        # tensor by tensor, as the optimizer did before its state was flat.
        params = random_net((6, 16, 8, 24), dropout=0.3, seed=11)
        reference = ref.ReferenceNet.of(params)
        opt = init_rmsprop(params, learning_rate=0.02)
        ref_opt = ref.ReferenceRMSprop(reference, learning_rate=0.02)
        rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
        data = np.random.default_rng(13)
        for _ in range(6):
            batch = (data.normal(size=(32, 6)), data.integers(0, 24, size=32),
                     data.normal(size=32))
            assert train_step(params, opt, batch, rng) == \
                ref.train_step(reference, ref_opt, batch, ref_rng)
            for got, want in zip(params.weights + params.biases + opt.square_avg_w
                                 + opt.square_avg_b,
                                 reference.weights + reference.biases + ref_opt.square_avg):
                assert got.tobytes() == want.tobytes()

    def test_empty_batch_rejected(self):
        params = random_net()
        opt = init_rmsprop(params)
        with pytest.raises(ValueError):
            train_step(params, opt, (np.empty((0, 6)), np.array([], dtype=int), np.array([])))


class TestCopyParams:
    def test_copy_is_isolated_from_source(self):
        src = random_net(seed=9)
        x = np.random.default_rng(10).normal(size=6)
        snap = copy_params(src)
        before = forward(snap, x).copy()
        src.weights[0] += 1.0
        assert np.array_equal(forward(snap, x), before)
        assert not np.array_equal(forward(src, x), before)

    def test_copy_matches_source_at_copy_time(self):
        src = random_net(seed=11)
        x = np.random.default_rng(12).normal(size=6)
        assert np.array_equal(forward(copy_params(src), x), forward(src, x))

    def test_copy_of_copy(self):
        src = random_net(seed=13)
        twice = copy_params(copy_params(src))
        for a, b in zip(src.weights, twice.weights):
            assert np.array_equal(a, b)


class TestCheckpoints:
    def test_round_trip_bit_exact(self):
        params = random_net(seed=14, dropout=0.2)
        params.biases[0][:] = np.random.default_rng(15).normal(size=8)
        loaded = params_from_bytes(params_to_bytes(params))
        assert loaded.dropout_rate == params.dropout_rate
        assert loaded.layer_sizes == params.layer_sizes
        assert loaded.theta.tobytes() == params.theta.tobytes()
        x = np.random.default_rng(16).normal(size=6)
        assert np.array_equal(forward(loaded, x), forward(params, x))

    def test_blob_is_the_header_then_theta_layer_by_layer(self):
        params = random_net(seed=17)
        params.biases[1][:] = 0.5
        data = params_to_bytes(params)
        assert len(data) == 32 + params.theta.nbytes  # 20 header bytes and 3 sizes
        assert data.endswith(params.theta.astype("<f8").tobytes())
        assert data.endswith(b"".join(t.astype("<f8").tobytes() for t in
                                      (params.weights[0], params.biases[0],
                                       params.weights[1], params.biases[1])))

    def test_save_twice_identical_bytes(self):
        params = random_net(seed=16)
        assert params_to_bytes(params) == params_to_bytes(params)

    def test_expected_sizes_mismatch_rejected(self):
        data = params_to_bytes(random_net(sizes=(6, 8, 24)))
        with pytest.raises(CheckpointError, match="layer sizes"):
            params_from_bytes(data, expected_sizes=[6, 64, 24])

    def test_bad_magic_rejected(self):
        with pytest.raises(CheckpointError, match="magic"):
            params_from_bytes(b"NOPE" + b"\x00" * 64)

    def test_truncated_data_rejected(self):
        data = params_to_bytes(random_net())
        with pytest.raises(CheckpointError, match="truncated"):
            params_from_bytes(data[: len(data) - 16])

    def test_trailing_bytes_rejected(self):
        data = params_to_bytes(random_net())
        with pytest.raises(CheckpointError, match="trailing"):
            params_from_bytes(data + b"\x00")

    @pytest.mark.parametrize("cut", [6, 10, 18, 22])
    def test_blob_cut_inside_the_header_rejected(self, cut):
        # inside the version, the dropout rate, the layer count, the sizes
        data = params_to_bytes(random_net())
        with pytest.raises(CheckpointError, match="truncated"):
            params_from_bytes(data[:cut])

    def test_huge_layer_count_rejected(self):
        data = bytearray(params_to_bytes(random_net()))
        struct.pack_into("<I", data, 16, 10**6)
        with pytest.raises(CheckpointError, match="truncated"):
            params_from_bytes(bytes(data))

    @pytest.mark.parametrize("offset, value", [(8, 1.5), (40, float("nan"))])
    def test_invalid_network_rejected(self, offset, value):
        # a dropout rate outside [0, 1), or a NaN weight after the 32-byte header
        data = bytearray(params_to_bytes(random_net()))
        struct.pack_into("<d", data, offset, value)
        with pytest.raises(CheckpointError, match="bad network"):
            params_from_bytes(bytes(data))


class TestInit:
    def test_shapes_and_zero_biases(self):
        params = init_params([6, 64, 64, 24], 0.2, np.random.default_rng(0))
        assert params.layer_sizes == [6, 64, 64, 24]
        assert all(np.all(b == 0.0) for b in params.biases)

    def test_he_uniform_bounds(self):
        params = init_params([6, 512, 24], 0.0, np.random.default_rng(1))
        limit = np.sqrt(6.0 / 6)
        assert np.all(np.abs(params.weights[0]) <= limit)
        assert np.abs(params.weights[0]).max() > 0.8 * limit  # actually fills the range
        limit2 = np.sqrt(6.0 / 512)
        assert np.all(np.abs(params.weights[1]) <= limit2)

    def test_seeded_init_reproducible(self):
        a = init_params([6, 8, 24], 0.0, np.random.default_rng(5))
        b = init_params([6, 8, 24], 0.0, np.random.default_rng(5))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_too_few_sizes_rejected(self):
        with pytest.raises(ValueError):
            init_params([6], 0.0, np.random.default_rng(0))

    def test_theta_that_does_not_fit_the_sizes_rejected(self):
        with pytest.raises(ValueError, match="do not fit"):
            MLPParams(np.zeros(parameter_count([6, 8, 24]) + 1), [6, 8, 24], 0.0)
