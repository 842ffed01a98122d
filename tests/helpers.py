"""Shared test utilities: independent oracles and tiny builders."""

from __future__ import annotations

from copy import deepcopy

import numpy as np

from catebench.nn import MlpParams, mlp_forward


def fd_param_grads(params: MlpParams, x: np.ndarray, coeffs: np.ndarray, h: float = 1e-4):
    """Central-difference gradients of L = sum(coeffs * forward(x)) per entry.

    Brute force: perturbs every weight/bias entry twice and re-runs the
    forward pass. Independent of the backward implementation.
    """

    def loss(p):
        return float(np.sum(coeffs * mlp_forward(p, x)))

    grads_w = []
    grads_b = []
    for k in range(len(params.weights)):
        gw = np.zeros_like(params.weights[k])
        for idx in np.ndindex(*params.weights[k].shape):
            p_hi = deepcopy(params)
            p_lo = deepcopy(params)
            p_hi.weights[k][idx] += h
            p_lo.weights[k][idx] -= h
            gw[idx] = (loss(p_hi) - loss(p_lo)) / (2 * h)
        grads_w.append(gw)
        gb = np.zeros_like(params.biases[k])
        for idx in np.ndindex(*params.biases[k].shape):
            p_hi = deepcopy(params)
            p_lo = deepcopy(params)
            p_hi.biases[k][idx] += h
            p_lo.biases[k][idx] -= h
            gb[idx] = (loss(p_hi) - loss(p_lo)) / (2 * h)
        grads_b.append(gb)
    return grads_w, grads_b


def fd_input_grads(params: MlpParams, x: np.ndarray, coeffs: np.ndarray, h: float = 1e-4):
    """Central-difference gradients of the same scalar loss w.r.t. inputs."""
    x = np.atleast_2d(x)
    g = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        x_hi = x.copy()
        x_lo = x.copy()
        x_hi[idx] += h
        x_lo[idx] -= h
        g[idx] = (
            np.sum(coeffs * mlp_forward(params, x_hi))
            - np.sum(coeffs * mlp_forward(params, x_lo))
        ) / (2 * h)
    return g


def fd_scalar_grad(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central differences of a scalar function taking a batch matrix."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi.flat[i] += h
        lo.flat[i] -= h
        g.flat[i] = (float(f(hi.reshape(1, -1))[0]) - float(f(lo.reshape(1, -1))[0])) / (2 * h)
    return g


def fd_flat_grad(objective, flat: np.ndarray, coords, h: float = 1e-6) -> np.ndarray:
    """Central differences of ``objective()`` in each of ``coords`` of ``flat``, moved in place.

    ``objective`` reads the parameters through views of ``flat``; each entry
    is restored after its probe.
    """
    g = np.empty(len(coords))
    for j, i in enumerate(coords):
        kept = flat[i]
        flat[i] = kept + h
        hi = objective()
        flat[i] = kept - h
        lo = objective()
        flat[i] = kept
        g[j] = (hi - lo) / (2 * h)
    return g


def assert_close_rel(actual: np.ndarray, expected: np.ndarray, rel: float, floor: float = 1e-7):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    tol = rel * np.maximum(np.abs(actual), np.abs(expected)) + floor
    bad = np.abs(actual - expected) > tol
    assert not bad.any(), (
        f"{bad.sum()} of {bad.size} entries differ beyond rel={rel}: "
        f"max abs diff {np.abs(actual - expected).max()}"
    )


def kink_margin(params: MlpParams, x: np.ndarray) -> float:
    """Smallest |pre-activation| over all hidden units for a batch.

    Central differences are only a valid derivative oracle when no ReLU
    kink lies inside the probed interval; callers should resample inputs
    until this margin comfortably exceeds the probe step.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    a = x
    margin = np.inf
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        if k < len(params.weights) - 1:
            margin = min(margin, float(np.abs(z).min()))
            a = np.maximum(z, 0.0)
        else:
            a = z
    return margin


def sample_smooth_batch(params: MlpParams, rng: np.random.Generator, n_rows: int,
                        margin: float = 5e-3, tries: int = 200) -> np.ndarray:
    """Random input batch whose forward pass stays clear of ReLU kinks."""
    d_in = params.input_dim
    for _ in range(tries):
        x = rng.normal(size=(n_rows, d_in))
        if kink_margin(params, x) > margin:
            return x
    raise AssertionError("could not find a kink-free batch")


def random_mlp(rng: np.random.Generator, max_hidden_layers: int = 2, max_units: int = 10,
               output_activation: str = "identity"):
    """A small random network plus a compatible random input batch."""
    from catebench.nn import mlp_init

    d_in = int(rng.integers(1, 6))
    n_hidden = int(rng.integers(0, max_hidden_layers + 1))
    sizes = [d_in] + [int(rng.integers(2, max_units + 1)) for _ in range(n_hidden)] + [1]
    net = mlp_init(sizes, output_activation, rng)
    x = rng.normal(size=(int(rng.integers(1, 5)), d_in))
    return net, x


def random_estimators(d: int, seed: int, hidden: int = 100) -> list:
    """One estimator of each strategy (S, T, TARNet, DR, X) with random hidden-wide nets."""
    from catebench.learners import (DrEstimator, SEstimator, TarnetEstimator, TEstimator,
                                    XEstimator)
    from catebench.nn import mlp_init
    from catebench.rng import stream

    rng = stream(seed)

    def net(width, activation="identity"):
        return mlp_init([width, hidden, hidden, 1], activation, rng)

    trunk = mlp_init([d, hidden], "identity", rng)
    return [
        SEstimator(net(d + 1)),
        TEstimator(net(d), net(d)),
        TarnetEstimator(trunk.weights[0], rng.uniform(-0.1, 0.1, hidden),
                        mlp_init([hidden, hidden, 1], "identity", rng),
                        mlp_init([hidden, hidden, 1], "identity", rng)),
        DrEstimator(net(d)),
        XEstimator(net(d), net(d), net(d, "sigmoid")),
    ]


# --- Textbook training: every array allocated anew ---------------------------
# One plain numpy expression per quantity, in the package's order of
# operations, so a fit can be compared bit for bit with its in-place one.


def textbook_forward(weights, biases, activation, x):
    """Every layer's activation, input first."""
    from catebench.nn import sigmoid

    acts = [x]
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w + b
        if k < len(weights) - 1:
            acts.append(np.maximum(z, 0.0))
        else:
            acts.append(sigmoid(z) if activation == "sigmoid" else z)
    return acts


def textbook_backprop(weights, activation, acts, g_out):
    """(flat [W0, b0, W1, b1, ...] gradient, layer-0 delta)."""
    s = acts[-1]
    delta = g_out * s * (1.0 - s) if activation == "sigmoid" else g_out
    grads = []
    for k in range(len(weights) - 1, -1, -1):
        grads = [acts[k].T @ delta, delta.sum(axis=0)] + grads
        if k > 0:
            delta = (delta @ weights[k].T) * (acts[k] > 0)
    return np.concatenate([g.ravel() for g in grads]), delta


def textbook_minibatch_fit(params, grad_fn, val_loss_fn, n_train, config, rng):
    """Adam with early stopping; returns the best vector, ``params`` untouched."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    step = 0
    best, best_loss, since = params, np.inf, 0
    for _ in range(config.max_epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, config.batch_size):
            g = grad_fn(params, order[start:start + config.batch_size])
            step += 1
            m = m * b1 + (1.0 - b1) * g
            v = v * b2 + (1.0 - b2) * g * g
            c1, c2 = 1.0 - b1**step, 1.0 - b2**step
            params = params - config.learning_rate * (m / c1) / (np.sqrt(v / c2) + eps)
        val = val_loss_fn(params)
        if val < best_loss:
            best, best_loss, since = params, val, 0
        else:
            since += 1
            if since >= config.patience:
                break
    return best


def constant_tail_csv(path, n: int = 200, d: int = 10):
    """A covariate CSV of n rows whose columns 5 and up are constant; returns ``path``."""
    x = np.random.default_rng(0).normal(size=(n, d))
    x[:, 5:] = 1.0
    rows = [",".join(f"c{j}" for j in range(d))] + [",".join(map(str, row)) for row in x]
    path.write_text("\n".join(rows) + "\n")
    return path
