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

Every pass runs in a ``Workspace``: hidden activations are written into
its buffers by ``np.matmul(..., out=)`` with the bias and ReLU applied in
place, the backward pass overwrites each activation with its layer's delta
once that layer's gradient is formed, and parameter gradients go straight
into views of one flat gradient vector. A workspace lives as long as the
fit or the attribution call that made it (a public pass called without
one makes its own), so a training step or an attribution block past the
first allocates no activation-sized array. A training step gathers its
minibatch into the workspace straight from the caller's array, so a fit
holds its training rows once and copies only its validation rows. A
pass's network output and input gradient are new arrays (the gradient
goes into ``out=`` when the caller gives one), so two passes never
overwrite each other's results.
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
    sizes: Sequence[int],
    output_activation: str = IDENTITY,
    rng: np.random.Generator | None = None,
) -> MlpParams:
    """Glorot-uniform weights, zero biases; deterministic given ``rng``."""
    if rng is None:
        raise InvalidConfigError("mlp_init requires a seeded generator")
    if len(sizes) < 2 or any(int(s) <= 0 for s in sizes):
        raise InvalidConfigError(f"layer sizes must have >= 2 positive entries, got {sizes}")
    if output_activation not in (IDENTITY, SIGMOID):
        raise InvalidConfigError(f"unknown output activation {output_activation!r}")
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
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


class Workspace:
    """Reused float64 (and bool) buffers for the passes of one fit or one call.

    ``take(key, rows, width)`` returns the first ``rows`` rows of the
    buffer kept under ``key`` for that width and dtype, replacing it by a
    taller one when it holds too few. Nothing is freed before the workspace
    is, so whoever makes one scopes it: one network fit, or one
    ``attribution.attribute_batch`` call.
    """

    def __init__(self):
        self._buffers: dict = {}

    def take(self, key, rows: int, width: int, dtype=np.float64) -> np.ndarray:
        slot = (key, width, np.dtype(dtype))
        buf = self._buffers.get(slot)
        if buf is None or buf.shape[0] < rows:
            buf = self._buffers[slot] = np.empty((rows, width), dtype)
        return buf[:rows]


def _hidden(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """max(0, x @ w + b), written into ``out``."""
    out = np.matmul(x, w, out=out)
    out += b
    return np.maximum(out, 0.0, out=out)


def _forward(params: MlpParams, x: np.ndarray, ws: Workspace, tag=None) -> list[np.ndarray]:
    """Activations of every layer, input first and network output last.

    Hidden activations are ``ws`` buffers keyed by ``(tag, layer)``; the
    output is a new array.
    """
    acts = [x]
    for k, (w, b) in enumerate(zip(params.weights[:-1], params.biases[:-1])):
        acts.append(_hidden(acts[-1], w, b, ws.take((tag, k), x.shape[0], w.shape[1])))
    z = acts[-1] @ params.weights[-1]
    z += params.biases[-1]
    acts.append(_apply_output(z, params.output_activation))
    return acts


def _backprop(
    params: MlpParams,
    acts: list[np.ndarray],
    g_out: np.ndarray,
    ws: Workspace,
    grads: MlpParams | None = None,
) -> np.ndarray:
    """The layer-0 delta (loss gradient w.r.t. layer 0's pre-activation).

    Walks the activations of ``_forward`` from the output down. Each layer's
    parameter gradient, when ``grads`` is given, is written into its arrays
    (views of a flat gradient vector); then the hidden activation below is
    overwritten by its own delta. A hidden unit passes gradient where its
    ReLU output is positive, which is exactly where its pre-activation is
    (subgradient 0 at 0); the mask goes into one reused bool buffer. Below
    a one-unit layer (the scalar output) the delta is (mask * w) * g by
    broadcasting: each entry is the one product the K=1 ``np.matmul`` would
    form, without the call; only where that product is exactly zero can its
    sign differ, which changes no value downstream.
    ``delta @ params.weights[0].T`` turns the returned delta into the input
    gradient.
    """
    if params.output_activation == SIGMOID:
        s = acts[-1]
        delta = g_out * s * (1.0 - s)
    else:
        delta = g_out
    for k in range(len(params.weights) - 1, -1, -1):
        if grads is not None:
            np.matmul(acts[k].T, delta, out=grads.weights[k])
            np.sum(delta, axis=0, out=grads.biases[k])
        if k == 0:
            return delta
        mask = np.greater(acts[k], 0.0, out=ws.take("mask", *acts[k].shape, dtype=bool))
        if delta.shape[1] == 1:
            g = delta
            delta = np.multiply(mask, params.weights[k][:, 0], out=acts[k])
            delta *= g
        else:
            delta = np.matmul(delta, params.weights[k].T, out=acts[k])
            delta *= mask


def _gradient_like(params: MlpParams) -> tuple[np.ndarray, MlpParams]:
    """A flat gradient vector for ``params`` and per-layer views into it."""
    flat = np.empty(sum(a.size for a in params.arrays()))
    return flat, MlpParams.from_arrays(flat_views(flat, params.arrays()), params.output_activation)


def _batch(x: np.ndarray, width: int) -> np.ndarray:
    """``x`` as a float row batch; ``ShapeError`` unless it has ``width`` columns."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != width:
        raise ShapeError(f"input has {x.shape[1]} columns, network expects {width}")
    return x


def mlp_forward(params: MlpParams, x: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """Forward pass over a batch; returns a new (n, out_dim) array."""
    return _forward(params, _batch(x, params.input_dim), Workspace() if ws is None else ws)[-1]


def mlp_backward(
    params: MlpParams, batch_x: np.ndarray, loss_grad_at_output: np.ndarray
) -> tuple[MlpParams, np.ndarray]:
    """Exact gradients of a scalar loss w.r.t. every parameter and input.

    ``loss_grad_at_output`` is dLoss/d(activated output), shape (n, out_dim).
    The ReLU subgradient at 0 is taken as 0. Returns (param_grads shaped
    like ``params``, input_grads of shape (n, input_dim)).
    """
    x = _batch(batch_x, params.input_dim)
    g_out = np.atleast_2d(np.asarray(loss_grad_at_output, dtype=float))
    if g_out.shape != (x.shape[0], params.weights[-1].shape[1]):
        raise ShapeError(
            f"loss gradient shape {g_out.shape} does not match output shape "
            f"({x.shape[0]}, {params.weights[-1].shape[1]})"
        )
    ws = Workspace()
    _, grads = _gradient_like(params)
    delta = _backprop(params, _forward(params, x, ws), g_out, ws, grads)
    return grads, delta @ params.weights[0].T


def mlp_forward_and_input_gradient(
    params: MlpParams, x: np.ndarray, ws: Workspace | None = None, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """A scalar-output network's (n, 1) output and its per-row input gradient.

    One forward pass feeds both; the delta recursion forms no parameter
    gradient. The gradient is written into ``out`` when given, else into a
    new (n, input_dim) array.
    """
    x = _batch(x, params.input_dim)
    if params.weights[-1].shape[1] != 1:
        raise ShapeError("input gradient is defined for scalar-output networks")
    ws = Workspace() if ws is None else ws
    acts = _forward(params, x, ws)
    delta = _backprop(params, acts, np.ones((x.shape[0], 1)), ws)
    return acts[-1], np.matmul(delta, params.weights[0].T, out=out)


def mlp_input_gradient(
    params: MlpParams, x: np.ndarray, ws: Workspace | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-row gradient of the scalar network output w.r.t. each input row."""
    return mlp_forward_and_input_gradient(params, x, ws, out)[1]


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
    """Moment accumulators for one flat parameter vector, and two work vectors."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float
    work: tuple[np.ndarray, np.ndarray]


def adam_init(params: np.ndarray, lr: float) -> AdamState:
    if params.ndim != 1 or params.dtype != np.float64:
        raise ShapeError("Adam optimizes one flat float64 vector; see flatten()")
    return AdamState(
        np.zeros_like(params), np.zeros_like(params), 0, lr,
        (np.empty_like(params), np.empty_like(params)),
    )


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> None:
    """One bias-corrected Adam update of ``params`` and ``state``, in place.

    Computes m += (1 - b1) g, v += (1 - b2) g g and
    params -= lr (m / c1) / (sqrt(v / c2) + eps) in the work vectors,
    one operation at a time in that order.
    """
    if grads.shape != params.shape:
        raise ShapeError(f"gradient shape {grads.shape} does not match parameters {params.shape}")
    if not np.isfinite(grads).all():
        raise NumericError("non-finite gradient entry")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1**state.step
    c2 = 1.0 - ADAM_BETA2**state.step
    a, b = state.work
    state.m *= ADAM_BETA1
    state.m += np.multiply(grads, 1.0 - ADAM_BETA1, out=a)
    state.v *= ADAM_BETA2
    a = np.multiply(grads, 1.0 - ADAM_BETA2, out=a)
    a *= grads
    state.v += a
    a = np.divide(state.m, c1, out=a)
    a *= state.lr
    b = np.divide(state.v, c2, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    params -= a


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


VALIDATION_FRACTION = 0.30  # share of a network's rows held out for early stopping


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 1024
    max_epochs: int = 1000
    patience: int = 10

    def __post_init__(self):
        if not 0.0 < self.learning_rate < float("inf"):  # NaN included
            raise InvalidConfigError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if self.batch_size < 1:
            raise InvalidConfigError("batch_size must be >= 1")
        if self.patience < 1:
            raise InvalidConfigError("patience must be >= 1")
        if self.max_epochs < 1:
            raise InvalidConfigError("max_epochs must be >= 1")


GradFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
ValLossFn = Callable[[np.ndarray], float]


def holdout_count(n: int, fraction: float) -> int:
    """How many of ``n`` samples ``holdout_split`` holds out: round(n * fraction)."""
    return int(round(n * fraction))


def holdout_split(
    n: int, fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The package's one seeded split of range(n): (kept, ``holdout_count`` held out)."""
    if not 0.0 < fraction < 1.0:
        raise InvalidConfigError(f"split fraction must lie strictly in (0, 1), got {fraction}")
    n_out = holdout_count(n, fraction)
    if n_out < 1 or n - n_out < 1:
        raise InvalidConfigError(f"degenerate split: {n} samples, {n_out} held out")
    perm = rng.permutation(n)
    return perm[n_out:], perm[:n_out]


def _take_rows(x: np.ndarray, idx: np.ndarray, ws: Workspace, key="rows") -> np.ndarray:
    """``x[idx]`` for a 2-D ``x``, gathered into ``ws``'s buffer under ``key``."""
    out = ws.take(key, len(idx), x.shape[1])
    return np.take(x, idx, axis=0, out=out, mode="clip")  # "raise" would copy out first


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

    A seeded random split holds out ``VALIDATION_FRACTION`` of the samples;
    the returned parameters are the snapshot with the best validation loss.
    ``net`` itself is not modified. Each minibatch is gathered from ``x``
    itself through the training indices, so only the validation rows are
    copied. Every step and validation pass runs in one workspace that
    lives as long as the fit.
    """
    if rng is None:
        raise InvalidConfigError("train_early_stop requires a seeded generator")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    target = np.asarray(target, dtype=float).reshape(-1)
    if not np.all(np.isfinite(target)):
        raise NumericError("targets must be finite")
    train_idx, val_idx = holdout_split(x.shape[0], VALIDATION_FRACTION, rng)
    x_val, y_val = x[val_idx], target[val_idx]
    flat = flatten(net.arrays())
    fit = MlpParams.from_arrays(flat_views(flat, net.arrays()), net.output_activation)
    grad, fit_grad = _gradient_like(fit)
    ws = Workspace()

    def grad_fn(_, idx):
        rows = train_idx[idx]
        acts = _forward(fit, _take_rows(x, rows, ws), ws)
        _backprop(fit, acts, loss_output_grad(loss, acts[-1], target[rows]), ws, fit_grad)
        return grad

    def val_loss_fn(_):
        return loss_value(loss, mlp_forward(fit, x_val, ws), y_val)

    minibatch_fit(flat, grad_fn, val_loss_fn, len(train_idx), config, rng)
    return fit


# --- MMD^2 balancing penalty ---------------------------------------------


def mmd2_linear_with_grad(
    rep0: np.ndarray, rep1: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """MMD^2 plus its gradients w.r.t. every row of both representations.

    Every row of a group has the same gradient, so each is a read-only
    broadcast of one row, shaped like its group.
    """
    rep0 = np.atleast_2d(np.asarray(rep0, dtype=float))
    rep1 = np.atleast_2d(np.asarray(rep1, dtype=float))
    if rep0.shape[0] == 0 or rep1.shape[0] == 0:
        raise EmptyGroupError("MMD^2 needs both groups nonempty")
    if rep0.shape[1] != rep1.shape[1]:
        raise ShapeError("representation widths differ")
    diff = rep0.mean(axis=0) - rep1.mean(axis=0)
    value = float(diff @ diff)
    g0 = np.broadcast_to(2.0 * diff / rep0.shape[0], rep0.shape)
    g1 = np.broadcast_to(-2.0 * diff / rep1.shape[0], rep1.shape)
    return value, g0, g1
