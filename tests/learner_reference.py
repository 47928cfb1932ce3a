"""The learner step as it was before its parameters and gradients became
flat vectors, kept as the bit-for-bit reference for `lobsim.mlp.train_step`
and `lobsim.agents.ddql.compute_target`: per-layer arrays, a fresh array
for every intermediate, and the RMSprop update written as its formula.

Networks and averages are plain lists here, so the reference never shares
memory with the `MLPParams` it is compared against.  The averages are kept
per tensor in the order of `net.weights + net.biases`; a flat vector of them,
read in or written out, goes layer by layer as `MLPParams.theta` does: the
first layer's weights, then its biases, then the next layer's."""

import numpy as np

from lobsim.rl import NEXT_STATE, REWARD, TERMINAL


class ReferenceNet:
    def __init__(self, weights, biases, dropout_rate):
        self.weights = [np.array(w, dtype=np.float64) for w in weights]
        self.biases = [np.array(b, dtype=np.float64) for b in biases]
        self.dropout_rate = dropout_rate

    @classmethod
    def of(cls, params) -> "ReferenceNet":
        return cls(params.weights, params.biases, params.dropout_rate)


def layer_order(layers: int) -> list:
    """Indices into `weights + biases` of `layers` layers, layer by layer."""
    return [i for layer in range(layers) for i in (layer, layers + layer)]


class ReferenceRMSprop:
    def __init__(self, net: ReferenceNet, learning_rate=0.01, decay=0.9, epsilon=1e-8,
                 square_avg=None):
        """`square_avg`, if given, is the flat vector laid out layer by layer."""
        tensors = net.weights + net.biases
        flat = (np.zeros(sum(t.size for t in tensors)) if square_avg is None
                else np.array(square_avg, dtype=np.float64))
        self.square_avg, offset = [None] * len(tensors), 0
        for i in layer_order(len(net.weights)):
            t = tensors[i]
            self.square_avg[i] = flat[offset:offset + t.size].reshape(t.shape).copy()
            offset += t.size
        self.learning_rate = learning_rate
        self.decay = decay
        self.epsilon = epsilon

    def flat(self) -> np.ndarray:
        """The averages as one vector laid out layer by layer."""
        order = layer_order(len(self.square_avg) // 2)
        return np.concatenate([self.square_avg[i].ravel() for i in order])


def forward_cached(net: ReferenceNet, inputs, train: bool, rng):
    """(outputs, activations per layer, pre-activations, dropout masks)."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    keep = 1.0 - net.dropout_rate
    use_dropout = train and net.dropout_rate > 0.0
    activations = [x]
    pre_activations = []
    masks = []
    for i in range(len(net.weights) - 1):
        z = activations[-1] @ net.weights[i] + net.biases[i]
        pre_activations.append(z)
        h = np.maximum(z, 0.0)
        if use_dropout:
            mask = (rng.random(h.shape) < keep) / keep
            h = h * mask
        else:
            mask = None
        masks.append(mask)
        activations.append(h)
    outputs = activations[-1] @ net.weights[-1] + net.biases[-1]
    return outputs, activations, pre_activations, masks


def forward(net: ReferenceNet, inputs) -> np.ndarray:
    single = np.asarray(inputs).ndim == 1
    outputs = forward_cached(net, inputs, False, None)[0]
    return outputs[0] if single else outputs


def loss_and_gradients(net: ReferenceNet, inputs, actions, targets, rng=None):
    actions = np.asarray(actions, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.float64)
    outputs, activations, pre_activations, masks = forward_cached(net, inputs, True, rng)
    batch = outputs.shape[0]
    rows = np.arange(batch)
    errors = outputs[rows, actions] - targets
    loss = float(np.mean(errors**2))
    d_out = np.zeros_like(outputs)
    d_out[rows, actions] = 2.0 * errors / batch
    grad_w = [None] * len(net.weights)
    grad_b = [None] * len(net.biases)
    delta = d_out
    for i in range(len(net.weights) - 1, -1, -1):
        grad_w[i] = activations[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ net.weights[i].T
            if masks[i - 1] is not None:
                delta = delta * masks[i - 1]
            delta = delta * (pre_activations[i - 1] > 0.0)
    return loss, grad_w, grad_b


def train_step(net: ReferenceNet, opt: ReferenceRMSprop, batch, rng=None) -> float:
    """Per element: s = rho * s + (1 - rho) * g**2, then
    p -= lr * g / (sqrt(s) + eps)."""
    loss, grad_w, grad_b = loss_and_gradients(net, *batch, rng)
    rho = opt.decay
    for param, s, g in zip(net.weights + net.biases, opt.square_avg, grad_w + grad_b):
        s *= rho
        s += (1 - rho) * g**2
        param -= opt.learning_rate * g / (np.sqrt(s) + opt.epsilon)
    return loss


def compute_target(batch, gamma: float, eval_net: ReferenceNet,
                   target_net: ReferenceNet) -> np.ndarray:
    rows = batch.rows
    next_states = np.ascontiguousarray(rows[:, NEXT_STATE])
    greedy = np.argmax(forward(eval_net, next_states), axis=1)
    next_q = forward(target_net, next_states)[np.arange(len(rows)), greedy]
    return rows[:, REWARD] + gamma * next_q * (rows[:, TERMINAL] == 0.0)
