"""Dense-network numeric core.

Implements exactly what the estimators need and nothing more: forward
passes of fully-connected ReLU networks, exact reverse-mode gradients with
respect to parameters and inputs, Adam, an early-stopped minibatch loop,
and the linear-kernel MMD^2 balancing penalty with its gradient.

Every network fit takes one path: a seeded hold-out split
(``holdout_split``), then ``minibatch_fit``, which keeps all parameters in
one flat float64 vector that ``adam_step`` updates in place. Per-layer
arrays are views into that vector, and each step runs one forward pass
whose activations the backward pass reuses. ``dgp.train_test_split`` also
splits through ``holdout_split``. Everything is float64 and
deterministic given the generators passed in; no function touches global
random state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyGroupError, InvalidConfigError, NumericError, ShapeError

IDENTITY = "identity"
SIGMOID = "sigmoid"

SQUARED_ERROR = "squared_error"
BINARY_CROSS_ENTROPY = "binary_cross_entropy"

_P_CLIP = 1e-12  # probability clamp inside the cross-entropy loss


@dataclass
class MlpParams:
    """Parameters of a fully-connected network.

    ``weights[k]`` has shape (fan_in, fan_out) and ``biases[k]`` shape
    (fan_out,). Hidden layers apply max(0, .); the last layer applies
    ``output_activation`` (identity or logistic sigmoid).
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    output_activation: str = IDENTITY

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def arrays(self) -> list[np.ndarray]:
        """[W0, b0, W1, b1, ...], the order ``flatten`` packs them in."""
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    @staticmethod
    def from_arrays(arrays: Sequence[np.ndarray], output_activation: str) -> "MlpParams":
        weights = [np.asarray(a) for a in arrays[0::2]]
        biases = [np.asarray(a) for a in arrays[1::2]]
        return MlpParams(weights, biases, output_activation)

    def copy(self) -> "MlpParams":
        return MlpParams(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.output_activation,
        )


def mlp_init(
    layer_sizes: Sequence[int],
    output_activation: str = IDENTITY,
    rng: np.random.Generator | None = None,
) -> MlpParams:
    """Glorot-uniform weights, zero biases; deterministic given ``rng``."""
    if rng is None:
        raise InvalidConfigError("mlp_init requires a seeded generator")
    if len(layer_sizes) < 2 or any(int(s) <= 0 for s in layer_sizes):
        raise InvalidConfigError(f"layer_sizes must have >= 2 positive entries, got {layer_sizes}")
    if output_activation not in (IDENTITY, SIGMOID):
        raise InvalidConfigError(f"unknown output activation {output_activation!r}")
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-s, s, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases, output_activation)


def _apply_output(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == SIGMOID:
        return sigmoid(z)
    return z


def sigmoid(z: np.ndarray) -> np.ndarray:
    # Two-branch form avoids overflow in exp for large |z|.
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward(params: MlpParams, x: np.ndarray) -> list[np.ndarray]:
    """Activations of every layer, input first and network output last."""
    acts = [x]
    last = len(params.weights) - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w + b
        acts.append(np.maximum(z, 0.0) if k < last else _apply_output(z, params.output_activation))
    return acts


def _deltas(params: MlpParams, acts: list[np.ndarray], g_out: np.ndarray):
    """Yield (k, loss gradient w.r.t. layer k's pre-activation), last layer first.

    Reads the activations of ``_forward``. A hidden unit passes gradient
    where its ReLU output is positive, which is exactly where its
    pre-activation is (subgradient 0 at 0). ``delta @ params.weights[0].T``
    turns the last delta yielded into the input gradient.
    """
    if params.output_activation == SIGMOID:
        s = acts[-1]
        delta = g_out * s * (1.0 - s)
    else:
        delta = g_out
    for k in range(len(params.weights) - 1, 0, -1):
        yield k, delta
        delta = (delta @ params.weights[k].T) * (acts[k] > 0)
    yield 0, delta


def _backprop(
    params: MlpParams, acts: list[np.ndarray], g_out: np.ndarray
) -> tuple[MlpParams, np.ndarray]:
    """Parameter gradients, and the layer-0 delta, from the activations of ``_forward``."""
    grad_w = [np.empty(0)] * len(params.weights)
    grad_b = [np.empty(0)] * len(params.weights)
    for k, delta in _deltas(params, acts, g_out):
        grad_w[k] = acts[k].T @ delta
        grad_b[k] = delta.sum(axis=0)
    return MlpParams(grad_w, grad_b, params.output_activation), delta


def _batch(params: MlpParams, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != params.input_dim:
        raise ShapeError(f"input has {x.shape[1]} columns, network expects {params.input_dim}")
    return x


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Forward pass over a batch; returns an (n, out_dim) array."""
    return _forward(params, _batch(params, x))[-1]


def mlp_backward(
    params: MlpParams, batch_x: np.ndarray, loss_grad_at_output: np.ndarray
) -> tuple[MlpParams, np.ndarray]:
    """Exact gradients of a scalar loss w.r.t. every parameter and input.

    ``loss_grad_at_output`` is dLoss/d(activated output), shape (n, out_dim).
    The ReLU subgradient at 0 is taken as 0. Returns (param_grads shaped
    like ``params``, input_grads of shape (n, input_dim)).
    """
    x = _batch(params, batch_x)
    g_out = np.atleast_2d(np.asarray(loss_grad_at_output, dtype=float))
    if g_out.shape != (x.shape[0], params.weights[-1].shape[1]):
        raise ShapeError(
            f"loss gradient shape {g_out.shape} does not match output shape "
            f"({x.shape[0]}, {params.weights[-1].shape[1]})"
        )
    grads, delta = _backprop(params, _forward(params, x), g_out)
    return grads, delta @ params.weights[0].T


def mlp_input_gradient(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Per-row gradient of the scalar network output w.r.t. each input row.

    Runs the delta recursion only; no parameter gradient is formed.
    """
    x = _batch(params, x)
    if params.weights[-1].shape[1] != 1:
        raise ShapeError("input gradient is defined for scalar-output networks")
    for _, delta in _deltas(params, _forward(params, x), np.ones((x.shape[0], 1))):
        pass  # only the layer-0 delta is needed
    return delta @ params.weights[0].T


# --- Flat parameter vector and Adam ---------------------------------------


def flatten(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Copy arrays, in order, into one new float64 vector."""
    return np.concatenate([np.ravel(a) for a in arrays]).astype(float, copy=False)


def flat_views(flat: np.ndarray, like: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Views into ``flat`` shaped like ``like``, in the order ``flatten`` packs them."""
    views = []
    start = 0
    for a in like:
        views.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    return views


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # fixed for every fit


@dataclass
class AdamState:
    """Moment accumulators for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float


def adam_init(params: np.ndarray, lr: float) -> AdamState:
    if params.ndim != 1 or params.dtype != np.float64:
        raise ShapeError("Adam optimizes one flat float64 vector; see flatten()")
    return AdamState(np.zeros_like(params), np.zeros_like(params), 0, lr)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> None:
    """One bias-corrected Adam update of ``params`` and ``state``, in place."""
    if grads.shape != params.shape:
        raise ShapeError(f"gradient shape {grads.shape} does not match parameters {params.shape}")
    if not np.isfinite(grads).all():
        raise NumericError("non-finite gradient entry")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1**state.step
    c2 = 1.0 - ADAM_BETA2**state.step
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grads
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grads * grads
    params -= state.lr * (state.m / c1) / (np.sqrt(state.v / c2) + ADAM_EPS)


# --- Losses --------------------------------------------------------------


def loss_value(loss: str, pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=float).reshape(-1)
    target = np.asarray(target, dtype=float).reshape(-1)
    if pred.shape != target.shape:
        raise ShapeError("prediction/target length mismatch")
    if loss == SQUARED_ERROR:
        per = (pred - target) ** 2
    elif loss == BINARY_CROSS_ENTROPY:
        p = np.clip(pred, _P_CLIP, 1.0 - _P_CLIP)
        per = -(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))
    else:
        raise InvalidConfigError(f"unknown loss {loss!r}")
    return float(np.sum(per) / len(per))


def loss_output_grad(loss: str, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d(mean loss)/d(prediction), shaped (n, 1) for the backward pass."""
    pred = np.asarray(pred, dtype=float).reshape(-1)
    target = np.asarray(target, dtype=float).reshape(-1)
    if loss == SQUARED_ERROR:
        g = 2.0 * (pred - target) / len(pred)
    elif loss == BINARY_CROSS_ENTROPY:
        p = np.clip(pred, _P_CLIP, 1.0 - _P_CLIP)
        g = (p - target) / (p * (1.0 - p)) / len(pred)
    else:
        raise InvalidConfigError(f"unknown loss {loss!r}")
    return g.reshape(-1, 1)


# --- Training ------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 1024
    val_fraction: float = 0.30
    max_epochs: int = 1000
    patience: int = 10

    def __post_init__(self):
        if not 0.0 < self.val_fraction < 1.0:
            raise InvalidConfigError("val_fraction must lie strictly between 0 and 1")
        if self.batch_size < 1:
            raise InvalidConfigError("batch_size must be >= 1")
        if self.patience < 1:
            raise InvalidConfigError("patience must be >= 1")
        if self.max_epochs < 1:
            raise InvalidConfigError("max_epochs must be >= 1")


GradFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
ValLossFn = Callable[[np.ndarray], float]


def holdout_split(
    n: int, fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The package's one seeded split of range(n): (kept, round(n * fraction) held out)."""
    if not 0.0 < fraction < 1.0:
        raise InvalidConfigError(f"split fraction must lie strictly in (0, 1), got {fraction}")
    n_out = int(round(n * fraction))
    if n_out < 1 or n - n_out < 1:
        raise InvalidConfigError(f"degenerate split: {n} samples, {n_out} held out")
    perm = rng.permutation(n)
    return perm[n_out:], perm[:n_out]


def minibatch_fit(
    params: np.ndarray,
    grad_fn: GradFn,
    val_loss_fn: ValLossFn,
    n_train: int,
    config: TrainConfig,
    rng: np.random.Generator,
) -> None:
    """Adam on a flat parameter vector with patience-based early stopping.

    ``grad_fn(params, batch_idx)`` returns the flat gradient for a minibatch
    given by indices into [0, n_train); ``val_loss_fn(params)`` scores the
    current vector on held-out data (penalties excluded). ``params`` is
    updated in place; on return it holds the snapshot with the best
    validation loss seen after any epoch (the initial values if none).
    """
    state = adam_init(params, lr=config.learning_rate)
    best = params.copy()
    best_loss = np.inf
    since_improved = 0
    for _ in range(config.max_epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, config.batch_size):
            adam_step(state, params, grad_fn(params, order[start : start + config.batch_size]))
        val = val_loss_fn(params)
        if val < best_loss:
            best_loss = val
            best[:] = params
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= config.patience:
                break
    params[:] = best


def train_early_stop(
    net: MlpParams,
    x: np.ndarray,
    target: np.ndarray,
    loss: str = SQUARED_ERROR,
    config: TrainConfig = TrainConfig(),
    rng: np.random.Generator | None = None,
) -> MlpParams:
    """Fit one network with minibatch Adam and validation early stopping.

    A seeded random split holds out ``config.val_fraction`` of the samples;
    the returned parameters are the snapshot with the best validation loss.
    ``net`` itself is not modified.
    """
    if rng is None:
        raise InvalidConfigError("train_early_stop requires a seeded generator")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    target = np.asarray(target, dtype=float).reshape(-1)
    if not np.all(np.isfinite(target)):
        raise NumericError("targets must be finite")
    train_idx, val_idx = holdout_split(x.shape[0], config.val_fraction, rng)
    x_tr, y_tr = x[train_idx], target[train_idx]
    x_val, y_val = x[val_idx], target[val_idx]
    flat = flatten(net.arrays())
    fit = MlpParams.from_arrays(flat_views(flat, net.arrays()), net.output_activation)

    def grad_fn(_, idx):
        acts = _forward(fit, x_tr[idx])
        g_out = loss_output_grad(loss, acts[-1], y_tr[idx])
        return flatten(_backprop(fit, acts, g_out)[0].arrays())

    def val_loss_fn(_):
        return loss_value(loss, mlp_forward(fit, x_val), y_val)

    minibatch_fit(flat, grad_fn, val_loss_fn, len(train_idx), config, rng)
    return fit


# --- MMD^2 balancing penalty ---------------------------------------------


def mmd2_linear_with_grad(
    rep0: np.ndarray, rep1: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """MMD^2 plus its gradients w.r.t. every row of both representations."""
    rep0 = np.atleast_2d(np.asarray(rep0, dtype=float))
    rep1 = np.atleast_2d(np.asarray(rep1, dtype=float))
    if rep0.shape[0] == 0 or rep1.shape[0] == 0:
        raise EmptyGroupError("MMD^2 needs both groups nonempty")
    if rep0.shape[1] != rep1.shape[1]:
        raise ShapeError("representation widths differ")
    diff = rep0.mean(axis=0) - rep1.mean(axis=0)
    value = float(diff @ diff)
    g0 = np.tile(2.0 * diff / rep0.shape[0], (rep0.shape[0], 1))
    g1 = np.tile(-2.0 * diff / rep1.shape[0], (rep1.shape[0], 1))
    return value, g0, g1
