"""Minimal dense network for the Q-functions: ReLU hidden layers with
inverted dropout, a linear output head, MSE on the taken action's output,
and RMSprop.  Gradients are hand-derived; no autodiff framework.

Checkpoint format (little-endian): magic b"QMLP", u32 version, f64
dropout_rate, u32 layer count, u32 layer sizes, then per weight layer the
row-major f64 weight matrix (in x out) followed by the f64 bias vector.
Serialization is bitwise deterministic: saving twice yields identical bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

MAGIC = b"QMLP"
FORMAT_VERSION = 1


class Mode(Enum):
    TRAIN = "TRAIN"
    EVAL = "EVAL"


class CheckpointError(ValueError):
    pass


class NumericalError(Exception):
    pass


@dataclass
class MLPParams:
    weights: list  # per layer, shape (fan_in, fan_out)
    biases: list  # per layer, shape (fan_out,)
    dropout_rate: float = 0.0

    @property
    def layer_sizes(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def validate(self) -> None:
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError("dropout_rate must be in [0, 1)")
        previous = self.weights[0].shape[0]
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.ndim != 1 or w.shape != (previous, b.shape[0]):
                raise ValueError(f"inconsistent layer shapes: {w.shape} vs bias {b.shape}")
            previous = w.shape[1]
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("parameters must be finite")


def init_params(
    layer_sizes: Sequence[int],
    dropout_rate: float,
    rng: np.random.Generator,
) -> MLPParams:
    """He-style uniform init: W ~ U(-sqrt(6/fan_in), +sqrt(6/fan_in)), b = 0."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    params = MLPParams(weights, biases, dropout_rate)
    params.validate()
    return params


def copy_params(src: MLPParams) -> MLPParams:
    return MLPParams(
        [w.copy() for w in src.weights],
        [b.copy() for b in src.biases],
        src.dropout_rate,
    )


def _forward_cached(
    params: MLPParams,
    inputs: np.ndarray,
    mode: Mode,
    rng: Optional[np.random.Generator],
):
    """Returns (outputs, activations per layer, pre-activations, dropout masks)."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if x.shape[1] != params.weights[0].shape[0]:
        raise ValueError(f"input width {x.shape[1]} != {params.weights[0].shape[0]}")
    keep = 1.0 - params.dropout_rate
    use_dropout = mode is Mode.TRAIN and params.dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ValueError("TRAIN mode with dropout needs an rng")
    activations = [x]
    pre_activations = []
    masks = []
    hidden_count = len(params.weights) - 1
    for i in range(hidden_count):
        z = activations[-1] @ params.weights[i] + params.biases[i]
        pre_activations.append(z)
        h = np.maximum(z, 0.0)
        if use_dropout:
            mask = (rng.random(h.shape) < keep) / keep
            h = h * mask
        else:
            mask = None
        masks.append(mask)
        activations.append(h)
    outputs = activations[-1] @ params.weights[-1] + params.biases[-1]
    return outputs, activations, pre_activations, masks


def forward(
    params: MLPParams,
    inputs,
    mode: Mode = Mode.EVAL,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Q-values for one state (shape (6,) -> (24,)) or a batch (B,6) -> (B,24)."""
    single = np.asarray(inputs).ndim == 1
    outputs, _, _, _ = _forward_cached(params, inputs, mode, rng)
    return outputs[0] if single else outputs


def compute_gradients(
    params: MLPParams,
    inputs: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    mode: Mode = Mode.TRAIN,
    rng: Optional[np.random.Generator] = None,
):
    """Loss and parameter gradients for the action-masked MSE
    mean_i (Q(s_i, a_i) - y_i)^2; other output units carry no error."""
    actions = np.asarray(actions, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.float64)
    outputs, activations, pre_activations, masks = _forward_cached(params, inputs, mode, rng)
    batch = outputs.shape[0]
    rows = np.arange(batch)
    taken = outputs[rows, actions]
    errors = taken - targets
    loss = float(np.mean(errors**2))
    if not np.isfinite(loss):
        raise NumericalError(
            f"non-finite loss {loss}; |q|max={np.abs(outputs).max()}, "
            f"|y|max={np.abs(targets).max()}"
        )
    d_out = np.zeros_like(outputs)
    d_out[rows, actions] = 2.0 * errors / batch
    grad_w = [None] * len(params.weights)
    grad_b = [None] * len(params.biases)
    delta = d_out
    for i in range(len(params.weights) - 1, -1, -1):
        grad_w[i] = activations[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ params.weights[i].T
            if masks[i - 1] is not None:
                delta = delta * masks[i - 1]
            delta = delta * (pre_activations[i - 1] > 0.0)
    return loss, grad_w, grad_b


@dataclass
class RMSpropState:
    """Running squared-gradient averages in one flat vector, laid out as
    every layer's weights then every layer's biases; square_avg_w and
    square_avg_b are per-layer views into it."""

    square_avg: np.ndarray
    square_avg_w: list
    square_avg_b: list
    learning_rate: float = 0.01
    decay: float = 0.9
    epsilon: float = 1e-8


def init_rmsprop(
    params: MLPParams,
    learning_rate: float = 0.01,
    decay: float = 0.9,
    epsilon: float = 1e-8,
) -> RMSpropState:
    tensors = params.weights + params.biases
    square_avg = np.zeros(sum(t.size for t in tensors))
    views = _views_like(square_avg, tensors)
    half = len(params.weights)
    return RMSpropState(square_avg, views[:half], views[half:], learning_rate, decay, epsilon)


def _views_like(flat: np.ndarray, tensors: list) -> list:
    """Consecutive views of `flat` shaped like `tensors`."""
    views, offset = [], 0
    for tensor in tensors:
        views.append(flat[offset:offset + tensor.size].reshape(tensor.shape))
        offset += tensor.size
    return views


def train_step(
    params: MLPParams,
    optstate: RMSpropState,
    batch,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """One RMSprop update in place from a (inputs, actions, targets) batch;
    returns the pre-update loss.  Per element: s = rho * s + (1 - rho) * g**2,
    then p -= lr * g / (sqrt(s) + eps)."""
    inputs, actions, targets = batch
    if len(np.atleast_1d(actions)) == 0:
        raise ValueError("batch must be non-empty")
    loss, grad_w, grad_b = compute_gradients(params, inputs, actions, targets, Mode.TRAIN, rng)
    tensors = params.weights + params.biases
    grad = np.concatenate([g.ravel() for g in grad_w + grad_b])
    rho = optstate.decay
    square_avg = optstate.square_avg
    square_avg *= rho
    square_avg += (1 - rho) * grad**2
    step = optstate.learning_rate * grad / (np.sqrt(square_avg) + optstate.epsilon)
    for tensor, delta in zip(tensors, _views_like(step, tensors)):
        tensor -= delta
    return loss


def params_to_bytes(params: MLPParams) -> bytes:
    params.validate()
    sizes = params.layer_sizes
    chunks = [
        MAGIC,
        struct.pack("<I", FORMAT_VERSION),
        struct.pack("<d", params.dropout_rate),
        struct.pack("<I", len(params.weights)),
        struct.pack(f"<{len(sizes)}I", *sizes),
    ]
    for w, b in zip(params.weights, params.biases):
        chunks.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return b"".join(chunks)


def save_params(params: MLPParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(params_to_bytes(params))


def params_from_bytes(data: bytes, expected_sizes: Optional[Sequence[int]] = None) -> MLPParams:
    if data[:4] != MAGIC:
        raise CheckpointError(f"bad magic {data[:4]!r}")
    offset = 4
    (version,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {version}")
    (dropout_rate,) = struct.unpack_from("<d", data, offset)
    offset += 8
    (n_layers,) = struct.unpack_from("<I", data, offset)
    offset += 4
    sizes = list(struct.unpack_from(f"<{n_layers + 1}I", data, offset))
    offset += 4 * (n_layers + 1)
    if expected_sizes is not None and list(expected_sizes) != sizes:
        raise CheckpointError(f"layer sizes {sizes} do not match expected {list(expected_sizes)}")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        need = fan_in * fan_out * 8
        if offset + need > len(data):
            raise CheckpointError("truncated checkpoint (weights)")
        weights.append(
            np.frombuffer(data, dtype="<f8", count=fan_in * fan_out, offset=offset)
            .reshape(fan_in, fan_out)
            .copy()
        )
        offset += need
        need = fan_out * 8
        if offset + need > len(data):
            raise CheckpointError("truncated checkpoint (biases)")
        biases.append(np.frombuffer(data, dtype="<f8", count=fan_out, offset=offset).copy())
        offset += need
    if offset != len(data):
        raise CheckpointError("trailing bytes in checkpoint")
    params = MLPParams(weights, biases, dropout_rate)
    params.validate()
    return params


def load_params(path, expected_sizes: Optional[Sequence[int]] = None) -> MLPParams:
    with open(path, "rb") as fh:
        data = fh.read()
    return params_from_bytes(data, expected_sizes)
