"""Minimal dense network for the Q-functions: ReLU hidden layers with
inverted dropout, a linear output head, MSE on the taken action's output,
and RMSprop.  Gradients are hand-derived; no autodiff framework.

A network is one flat vector, `MLPParams.theta`, laid out layer by layer:
the first layer's row-major weight matrix (fan_in x fan_out), then its
bias vector, then the next layer's.  That is the checkpoint's own order, so
a save writes theta's bytes after the header and a load makes one copy.
The RMSprop averages and the step's gradient share the layout, so an
update is one `theta -= step`.

Subnormal averages.  A weight into a dead ReLU unit gets a zero gradient
at every step, so its RMSprop average s shrinks by rho a step into the
subnormal floats, and there it stops: at rho 0.9, 5 ulp * 0.9 is 4.5 ulp
plus a little (0.9 is stored just above 0.9), which rounds back to 5 ulp.
On x86 a multiply or a square root with a subnormal operand takes a
microcode assist that costs tens of times a normal one.  Two identities
keep such averages away from both, and every bit of the update the same:

- fl(s * rho) == s for every s in [0, F], where F is the largest subnormal
  for which this holds (`rho_fixed_point`; 5 ulp at rho 0.9).  A product
  that lands among the subnormals is rounded to the uniform grid of
  2**-1074, and s - s * rho grows with s, so the fixed points below F are
  all of them.  Averages at or below F skip the multiply.
- sqrt(max(s, T)) + eps == sqrt(s) + eps for T = (spacing(eps) / 4)**2:
  T is exact, so s <= T gives sqrt(s) <= spacing(eps) / 4, under half an
  ulp of eps, and both sums round to eps.  At eps 1e-8, T is about 1.7e-49,
  a normal float, so no subnormal reaches the square root.

Checkpoint format (little-endian): magic b"QMLP", u32 version, f64
dropout_rate, u32 layer count, u32 layer sizes, then theta as f64.
Serialization is bitwise deterministic: saving twice yields identical bytes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

MAGIC = b"QMLP"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


class NumericalError(Exception):
    """A loss or a parameter left the finite floats: the learner diverged."""


def _layer_views(flat: np.ndarray, layer_sizes: Sequence[int]) -> tuple:
    """Per-layer weight (fan_in, fan_out) and bias (fan_out,) views of
    `flat`, laid out layer by layer: W0, b0, W1, b1, ..."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(flat[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
        biases.append(flat[offset:offset + fan_out])
        offset += fan_out
    if offset != flat.size:
        raise ValueError(f"{flat.size} parameters do not fit layer sizes {list(layer_sizes)}")
    return weights, biases


class MLPParams:
    """A network over the flat vector `theta`, which it takes over without a
    copy and which training updates.  `weights` (per layer, (fan_in,
    fan_out)) and `biases` (per layer, (fan_out,)) are views of it.  Write
    into the views; an array put in their place would not be trained, and
    `validate` refuses it."""

    def __init__(self, theta: np.ndarray, layer_sizes: Sequence[int], dropout_rate: float):
        self.theta = theta
        self.weights, self.biases = _layer_views(theta, layer_sizes)
        self.dropout_rate = dropout_rate

    @property
    def layer_sizes(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def validate(self) -> None:
        if not 0 <= self.dropout_rate < 1:
            raise ValueError("dropout_rate must be in [0, 1)")
        if any(t.base is not self.theta for t in self.weights + self.biases):
            raise ValueError("weights and biases must be views of theta")
        if not np.isfinite(self.theta).all():
            raise NumericalError("parameters must be finite")


def parameter_count(layer_sizes: Sequence[int]) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]))


def init_params(
    layer_sizes: Sequence[int],
    dropout_rate: float,
    rng: np.random.Generator,
) -> MLPParams:
    """He-style uniform init: W ~ U(-sqrt(6/fan_in), +sqrt(6/fan_in)), b = 0."""
    params = MLPParams(np.zeros(parameter_count(layer_sizes)), layer_sizes, dropout_rate)
    for w in params.weights:
        limit = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    params.validate()
    return params


def copy_params(src: MLPParams) -> MLPParams:
    return MLPParams(src.theta.copy(), src.layer_sizes, src.dropout_rate)


def _as_batch(params: MLPParams, inputs) -> np.ndarray:
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if x.shape[1] != params.weights[0].shape[0]:
        raise ValueError(f"input width {x.shape[1]} != {params.weights[0].shape[0]}")
    return x


def _forward(params: MLPParams, x: np.ndarray, dropout_rng: Optional[np.random.Generator],
             tape: Optional[list] = None) -> np.ndarray:
    """Outputs for the batch `x`, with each layer's bias, ReLU and dropout
    applied in place.  With a `tape`, appends per layer its input and, for
    the hidden layer that made that input, the ReLU's z > 0 and the dropout
    mask (None for the first layer and without dropout)."""
    keep = 1.0 - params.dropout_rate
    h, positive, mask = x, None, None
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        if tape is not None:
            tape.append((h, positive, mask))
        h = np.matmul(h, w)
        h += b
        if tape is not None:
            positive = h > 0.0
        np.maximum(h, 0.0, out=h)
        if dropout_rng is not None:
            mask = (dropout_rng.random(h.shape) < keep) / keep
            h *= mask
    if tape is not None:
        tape.append((h, positive, mask))
    outputs = np.matmul(h, params.weights[-1])
    outputs += params.biases[-1]
    return outputs


def forward(params: MLPParams, inputs) -> np.ndarray:
    """Q-values, without dropout, for one state (shape (6,) -> (24,)) or a
    batch (B,6) -> (B,24)."""
    outputs = _forward(params, _as_batch(params, inputs), None)
    return outputs[0] if np.ndim(inputs) == 1 else outputs


def _backprop(params: MLPParams, x: np.ndarray, actions: np.ndarray, targets: np.ndarray,
              dropout_rng: Optional[np.random.Generator], grad_w: list, grad_b: list) -> float:
    """Loss of the action-masked MSE mean_i (Q(s_i, a_i) - y_i)^2, whose
    gradients it writes into the views grad_w and grad_b; other output
    units carry no error."""
    tape: list = []
    outputs = _forward(params, x, dropout_rng, tape)
    batch = outputs.shape[0]
    rows = np.arange(batch)
    errors = outputs[rows, actions]
    errors -= targets
    loss = float(np.add.reduce(np.square(errors))) / batch  # np.mean's sum and division
    if not math.isfinite(loss):
        raise NumericalError(
            f"non-finite loss {loss}; |q|max={np.abs(outputs).max()}, "
            f"|y|max={np.abs(targets).max()}"
        )
    errors *= 2.0
    errors /= batch
    delta = np.zeros_like(outputs)
    delta[rows, actions] = errors
    for i in range(len(tape) - 1, -1, -1):
        layer_input, positive, mask = tape[i]
        np.matmul(layer_input.T, delta, out=grad_w[i])
        np.add.reduce(delta, axis=0, out=grad_b[i])
        if i > 0:
            delta = np.matmul(delta, params.weights[i].T)
            if mask is not None:
                delta *= mask
            delta *= positive
    return loss


@dataclass
class RMSpropState:
    """Running squared-gradient averages in one flat vector laid out like
    `MLPParams.theta`; square_avg_w and square_avg_b are per-layer views
    into it.  `grad` is where each step writes its gradient, with its own
    per-layer views grad_w and grad_b.  `fixed_point` and `sqrt_floor` are
    F and T of the module docstring, worked out from decay and epsilon."""

    square_avg: np.ndarray
    square_avg_w: list
    square_avg_b: list
    grad: np.ndarray
    grad_w: list
    grad_b: list
    learning_rate: float
    decay: float
    epsilon: float
    fixed_point: float
    sqrt_floor: float


def init_rmsprop(
    params: MLPParams,
    learning_rate: float = 0.01,
    decay: float = 0.9,
    epsilon: float = 1e-8,
) -> RMSpropState:
    if not (0.0 <= decay < 1.0 and epsilon > 0.0):
        raise ValueError("RMSprop needs a decay in [0, 1) and a positive epsilon")
    sizes = params.layer_sizes
    square_avg = np.zeros_like(params.theta)
    grad = np.zeros_like(params.theta)
    quarter = float(np.spacing(epsilon)) / 4  # a power of two, so T is exact or 0.0
    return RMSpropState(square_avg, *_layer_views(square_avg, sizes),
                        grad, *_layer_views(grad, sizes), learning_rate, decay, epsilon,
                        rho_fixed_point(decay), quarter * quarter)


def rho_fixed_point(rho: float) -> float:
    """The largest subnormal F such that fl(s * rho) == s for every s in
    [0, F]; 0.0 when only zero is its own product.  The module docstring
    says why the fixed points form one interval; this bisects for its end."""
    def fixed(ulps: int) -> bool:
        s = math.ldexp(ulps, -1074)
        return s * rho == s

    low, high = 0, 1 << 52  # fixed(low) holds; high, the least normal, is never asked
    while high - low > 1:
        middle = (low + high) // 2
        if fixed(middle):
            low = middle
        else:
            high = middle
    return math.ldexp(low, -1074)


def train_step(
    params: MLPParams,
    optstate: RMSpropState,
    batch,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """One RMSprop update in place from a (inputs, actions, targets) batch;
    returns the pre-update loss.  Per element: s = rho * s + (1 - rho) * g**2,
    then p -= lr * g / (sqrt(s) + eps), computed as the module docstring
    says so that no subnormal average reaches a multiply or a square root."""
    inputs, actions, targets = batch
    if len(np.atleast_1d(actions)) == 0:
        raise ValueError("batch must be non-empty")
    if params.dropout_rate == 0.0:
        rng = None  # no masks to draw
    elif rng is None:
        raise ValueError("training with dropout needs an rng")
    loss = _backprop(params, _as_batch(params, inputs), np.asarray(actions, dtype=np.int64),
                     np.asarray(targets, dtype=np.float64), rng,
                     optstate.grad_w, optstate.grad_b)
    grad = optstate.grad
    square_avg = optstate.square_avg
    rho = optstate.decay
    fresh = np.square(grad)
    fresh *= 1 - rho
    fixed = square_avg <= optstate.fixed_point
    decayed = np.where(fixed, 1.0, square_avg)  # 1.0 stands in for the fixed averages
    decayed *= rho
    np.add(np.where(fixed, square_avg, decayed), fresh, out=square_avg)
    denominator = np.maximum(square_avg, optstate.sqrt_floor, out=decayed)
    np.sqrt(denominator, out=denominator)
    denominator += optstate.epsilon
    step = np.multiply(grad, optstate.learning_rate, out=fresh)
    step /= denominator
    params.theta -= step
    return loss


def params_to_bytes(params: MLPParams) -> bytes:
    params.validate()
    sizes = params.layer_sizes
    return b"".join([
        MAGIC,
        struct.pack("<IdI", FORMAT_VERSION, params.dropout_rate, len(sizes) - 1),
        struct.pack(f"<{len(sizes)}I", *sizes),
        params.theta.astype("<f8", copy=False).tobytes(),
    ])


class ByteReader:
    """Reads a checkpoint front to back; a read past the end raises
    CheckpointError naming the part being read."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, size: int, part: str) -> int:
        """Start of the next `size` bytes, which must all be there."""
        if self.offset + size > len(self.data):
            raise CheckpointError(f"truncated checkpoint ({part})")
        start = self.offset
        self.offset += size
        return start

    def unpack(self, fmt: str, part: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self.take(struct.calcsize(fmt), part))

    def blob(self, size: int, part: str) -> bytes:
        start = self.take(size, part)
        return self.data[start:self.offset]

    def floats(self, count: int, part: str) -> np.ndarray:
        """The next `count` little-endian f64 values, as a read-only view."""
        return np.frombuffer(self.data, dtype="<f8", count=count,
                             offset=self.take(count * 8, part))

    def finish(self) -> None:
        if self.offset != len(self.data):
            raise CheckpointError("trailing bytes in checkpoint")


def params_from_bytes(data: bytes, expected_sizes: Optional[Sequence[int]] = None) -> MLPParams:
    if data[:4] != MAGIC:
        raise CheckpointError(f"bad magic {data[:4]!r}")
    reader = ByteReader(data)
    reader.take(4, "header")
    (version,) = reader.unpack("<I", "header")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {version}")
    dropout_rate, n_layers = reader.unpack("<dI", "header")
    sizes = list(reader.unpack(f"<{n_layers + 1}I", "layer sizes"))
    if expected_sizes is not None and list(expected_sizes) != sizes:
        raise CheckpointError(f"layer sizes {sizes} do not match expected {list(expected_sizes)}")
    stored = reader.floats(parameter_count(sizes), "weights and biases")
    reader.finish()
    try:
        params = MLPParams(np.array(stored, dtype=np.float64), sizes, dropout_rate)
        params.validate()
    except (ValueError, NumericalError) as exc:
        raise CheckpointError(f"bad network ({exc})") from None
    return params
