import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catebench import nn
from catebench.errors import (
    EmptyGroupError,
    InvalidConfigError,
    NumericError,
    ShapeError,
)
from catebench.nn import (
    BINARY_CROSS_ENTROPY,
    IDENTITY,
    SIGMOID,
    SQUARED_ERROR,
    VALIDATION_FRACTION,
    MlpParams,
    TrainConfig,
    Workspace,
    adam_init,
    holdout_split,
    adam_step,
    loss_output_grad,
    loss_value,
    mlp_backward,
    mlp_forward,
    mlp_forward_and_input_gradient,
    mlp_init,
    minibatch_fit,
    mlp_input_gradient,
    mmd2_linear_with_grad,
    train_early_stop,
)
from catebench.rng import stream

from helpers import (
    assert_close_rel,
    fd_input_grads,
    fd_param_grads,
    random_mlp,
    textbook_backprop,
    textbook_forward,
    textbook_minibatch_fit,
)


class TestMlpInit:
    def test_deterministic_given_seed(self):
        a = mlp_init([3, 2], rng=stream(7))
        b = mlp_init([3, 2], rng=stream(7))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_shapes_two_hidden_layers(self):
        d = 17
        net = mlp_init([d, 100, 100, 1], rng=stream(0))
        assert [w.shape for w in net.weights] == [(d, 100), (100, 100), (100, 1)]
        assert all(np.all(b == 0) for b in net.biases)

    def test_glorot_bound(self):
        net = mlp_init([8, 4, 1], rng=stream(1))
        s = np.sqrt(6.0 / (8 + 4))
        assert np.abs(net.weights[0]).max() <= s

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(InvalidConfigError):
            mlp_init([0, 1], rng=stream(0))
        with pytest.raises(InvalidConfigError):
            mlp_init([4], rng=stream(0))


class TestMlpForward:
    def test_zero_params_give_zero_output(self):
        net = mlp_init([3, 5, 1], rng=stream(0))
        net.weights = [np.zeros_like(w) for w in net.weights]
        out = mlp_forward(net, np.ones((4, 3)))
        assert np.array_equal(out, np.zeros((4, 1)))

    def test_single_linear_layer_exact(self):
        w = np.array([[1.0, -2.0], [0.5, 3.0]])
        b = np.array([0.25, -1.0])
        net = MlpParams([w], [b])
        x = np.array([[2.0, -1.0], [0.0, 4.0]])
        assert np.allclose(mlp_forward(net, x), x @ w + b)

    def test_sigmoid_at_zero_logit(self):
        net = MlpParams([np.zeros((2, 1))], [np.zeros(1)], SIGMOID)
        out = mlp_forward(net, np.array([[3.0, -5.0]]))
        assert out[0, 0] == 0.5

    def test_shape_mismatch(self):
        net = mlp_init([3, 1], rng=stream(0))
        with pytest.raises(ShapeError):
            mlp_forward(net, np.ones((2, 4)))


class TestMlpBackward:
    def test_linear_squared_error_closed_form(self):
        # f(x) = x W, loss = (f - y)^2 at one point: input grad = 2(f-y) W^T
        w = np.array([[2.0], [-3.0]])
        net = MlpParams([w], [np.zeros(1)])
        x = np.array([[1.0, 2.0]])
        y = 1.0
        f = mlp_forward(net, x)
        g_out = 2.0 * (f - y)
        _, gin = mlp_backward(net, x, g_out)
        assert np.allclose(gin, 2.0 * (f[0, 0] - y) * w.T)

    def test_zero_loss_grad_gives_zero_grads(self):
        net, x = random_mlp(stream(3))
        grads, gin = mlp_backward(net, x, np.zeros((x.shape[0], 1)))
        assert all(np.all(g == 0) for g in grads.arrays())
        assert np.all(gin == 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_finite_differences_identity(self, seed):
        rng = stream(100 + seed)
        net, x = random_mlp(rng, max_hidden_layers=3, max_units=10)
        coeffs = rng.normal(size=(x.shape[0], 1))
        grads, gin = mlp_backward(net, x, coeffs)
        fw, fb = fd_param_grads(net, x, coeffs)
        for a, e in zip(grads.weights, fw):
            assert_close_rel(a, e, rel=1e-4)
        for a, e in zip(grads.biases, fb):
            assert_close_rel(a, e, rel=1e-4)
        assert_close_rel(gin, fd_input_grads(net, x, coeffs), rel=1e-4)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences_sigmoid(self, seed):
        rng = stream(200 + seed)
        net, x = random_mlp(rng, output_activation=SIGMOID)
        coeffs = rng.normal(size=(x.shape[0], 1))
        grads, gin = mlp_backward(net, x, coeffs)
        fw, fb = fd_param_grads(net, x, coeffs)
        for a, e in zip(grads.weights, fw):
            assert_close_rel(a, e, rel=1e-4)
        assert_close_rel(gin, fd_input_grads(net, x, coeffs), rel=1e-4)

    def test_shape_errors(self):
        net = mlp_init([3, 2, 1], rng=stream(0))
        with pytest.raises(ShapeError):
            mlp_backward(net, np.ones((2, 3)), np.ones((3, 1)))
        with pytest.raises(ShapeError):
            mlp_backward(net, np.ones((2, 5)), np.ones((2, 1)))

    def test_input_gradient_helper(self):
        net, x = random_mlp(stream(11))
        g = mlp_input_gradient(net, x)
        _, expected = mlp_backward(net, x, np.ones((x.shape[0], 1)))
        assert np.array_equal(g, expected)


class TestAdam:
    P = [1.0, -1.0, 0.5, 0.5]
    G = [0.3, -0.7, 2.0, -0.1]

    def _step(self, grads, params=None):
        p = np.array(self.P if params is None else params)
        state = adam_init(p, lr=0.01)
        adam_step(state, p, np.array(grads))
        return state, p

    def test_first_step_is_signed_lr(self):
        _, p = self._step(self.G)
        assert np.all(np.abs((p - self.P) + 0.01 * np.sign(self.G)) < 1e-6 * 0.01)

    def test_zero_gradients_noop_from_fresh_state(self):
        state, p = self._step(np.zeros(4))
        assert np.array_equal(p, self.P)
        assert np.all(state.m == 0) and np.all(state.v == 0)

    def test_deterministic(self):
        s1, p1 = self._step(self.G)
        s2, p2 = self._step(self.G)
        assert np.array_equal(p1, p2)
        assert s1.step == s2.step == 1

    def test_nonfinite_gradient_rejected(self):
        with pytest.raises(NumericError):
            self._step([np.nan, 0.0, 0.0, 0.0])

    def test_shape_mismatch_rejected(self):
        # A gradient of another length or rank, or parameters not held as one vector.
        for grads, params in [(np.zeros(5), None), (np.zeros((2, 2)), None),
                              (np.zeros(4), np.zeros((2, 2)))]:
            with pytest.raises(ShapeError):
                self._step(grads, params)


class TestTrainEarlyStop:
    def test_linear_regression_converges(self):
        rng = stream(42)
        x = rng.normal(size=(2000, 2))
        y = 2.0 * x[:, 0] - x[:, 1]
        net = mlp_init([2, 100, 100, 1], rng=stream(1))
        cfg = TrainConfig(learning_rate=1e-3, batch_size=256, max_epochs=400, patience=20)
        fitted = train_early_stop(net, x, y, SQUARED_ERROR, config=cfg, rng=stream(2))
        perm = stream(2).permutation(2000)
        val = perm[: int(round(2000 * VALIDATION_FRACTION))]
        rmse = np.sqrt(np.mean((mlp_forward(fitted, x[val])[:, 0] - y[val]) ** 2))
        assert rmse < 0.05

    def test_bce_constant_target(self):
        rng = stream(5)
        x = rng.normal(size=(400, 3))
        y = np.ones(400)
        net = mlp_init([3, 20, 1], SIGMOID, rng=stream(6))
        cfg = TrainConfig(learning_rate=1e-2, batch_size=128, max_epochs=200, patience=20)
        fitted = train_early_stop(net, x, y, BINARY_CROSS_ENTROPY, config=cfg, rng=stream(7))
        assert np.all(mlp_forward(fitted, x) > 0.9)

    def test_patience_stop_returns_first_snapshot(self):
        # Validation loss rises after epoch 1, so the loop must stop after
        # exactly (1 + patience) epochs and leave the epoch-1 vector behind.
        params = np.zeros(3)
        batches, seen = [], []

        def grad_fn(p, idx):
            batches.append(len(idx))
            return -np.ones(3)

        def val_loss_fn(p):
            seen.append(p.copy())
            return float(p.sum())

        cfg = TrainConfig(learning_rate=0.1, batch_size=50, max_epochs=500, patience=1)
        minibatch_fit(params, grad_fn, val_loss_fn, 70, cfg, stream(10))
        assert batches == [50, 20] * 2  # epoch 1 + one patience epoch
        assert len(seen) == 2 and seen[1].sum() > seen[0].sum()
        assert np.array_equal(params, seen[0])

    def test_returned_snapshot_is_best_evaluated(self):
        # Least squares on a flat vector: grad_fn sees every batch of every
        # epoch, val_loss_fn every epoch-end vector; the vector left behind
        # is the first one with the lowest validation loss.
        rng = stream(20)
        x = rng.normal(size=(300, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(scale=0.5, size=300)
        x_tr, y_tr, x_val, y_val = x[:210], y[:210], x[210:], y[210:]
        params = np.zeros(3)
        epochs, snapshots, losses = [], [], []

        def grad_fn(p, idx):
            if not epochs or len(epochs[-1]) == 210:
                epochs.append([])
            epochs[-1].extend(idx.tolist())
            return 2.0 * x_tr[idx].T @ (x_tr[idx] @ p - y_tr[idx]) / len(idx)

        def val_loss_fn(p):
            snapshots.append(p.copy())
            losses.append(float(np.mean((x_val @ p - y_val) ** 2)))
            return losses[-1]

        cfg = TrainConfig(learning_rate=0.3, batch_size=100, max_epochs=40, patience=3)
        minibatch_fit(params, grad_fn, val_loss_fn, 210, cfg, stream(22))
        assert len(epochs) == len(snapshots)
        for seen in epochs:  # each epoch visits every training row once
            assert sorted(seen) == list(range(210))
        best = int(np.argmin(losses))
        assert np.array_equal(params, snapshots[best])
        assert len(losses) in (best + 1 + cfg.patience, cfg.max_epochs)

    def test_deterministic_fit(self):
        rng = stream(50)
        x = rng.normal(size=(120, 3))
        y = x[:, 0] - x[:, 2]
        cfg = TrainConfig(learning_rate=1e-3, batch_size=32, max_epochs=15, patience=5)
        a = train_early_stop(mlp_init([3, 6, 1], rng=stream(51)), x, y, config=cfg, rng=stream(52))
        b = train_early_stop(mlp_init([3, 6, 1], rng=stream(51)), x, y, config=cfg, rng=stream(52))
        for wa, wb in zip(a.arrays(), b.arrays()):
            assert np.array_equal(wa, wb)

    def test_degenerate_split_rejected(self):
        net = mlp_init([2, 1], rng=stream(0))
        with pytest.raises(InvalidConfigError):
            train_early_stop(net, np.ones((1, 2)), np.ones(1), rng=stream(1))

    def test_nonfinite_targets_rejected(self):
        net = mlp_init([2, 1], rng=stream(0))
        y = np.array([1.0, np.nan, 0.0, 2.0])
        with pytest.raises(NumericError):
            train_early_stop(net, np.ones((4, 2)), y, rng=stream(1))

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(InvalidConfigError):
            TrainConfig(patience=0)

    @pytest.mark.parametrize("rate", [0.0, -1e-3, float("nan"), float("inf")])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(InvalidConfigError):
            TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_holdout_fraction_must_lie_inside_unit_interval(self, fraction):
        with pytest.raises(InvalidConfigError, match="split fraction must lie strictly in"):
            holdout_split(10, fraction, stream(0))


def textbook_train_early_stop(net, x, target, loss, config, rng):
    """``train_early_stop`` with every array allocated anew; returns the flat parameters."""
    train_idx, val_idx = holdout_split(len(x), VALIDATION_FRACTION, rng)
    x_tr, y_tr, x_val, y_val = x[train_idx], target[train_idx], x[val_idx], target[val_idx]
    act = net.output_activation

    def unpack(p):
        views = nn.flat_views(p, net.arrays())
        return views[0::2], views[1::2]

    def grad_fn(p, idx):
        weights, biases = unpack(p)
        acts = textbook_forward(weights, biases, act, x_tr[idx])
        return textbook_backprop(weights, act, acts, loss_output_grad(loss, acts[-1], y_tr[idx]))[0]

    def val_loss_fn(p):
        return loss_value(loss, textbook_forward(*unpack(p), act, x_val)[-1], y_val)

    return textbook_minibatch_fit(nn.flatten(net.arrays()), grad_fn, val_loss_fn,
                                  len(train_idx), config, rng)


class TestWorkspace:
    """Passes reuse buffers, yet return arrays of their own and the bits of fresh arrays."""

    def test_back_to_back_passes_keep_their_results(self):
        a = mlp_init([4, 9, 9, 1], rng=stream(300))
        b = mlp_init([4, 9, 9, 1], SIGMOID, rng=stream(301))
        x = stream(302).normal(size=(7, 4))
        ws = Workspace()
        passes = [
            mlp_forward,
            mlp_input_gradient,
            lambda net, q, w: mlp_forward_and_input_gradient(net, q, w)[0],
            lambda net, q, w: mlp_forward_and_input_gradient(net, q, w)[1],
        ]
        for run in passes:
            first = run(a, x, ws)
            kept = first.copy()
            second = run(b, x, ws)
            assert np.array_equal(first, kept)
            assert not np.shares_memory(first, second)
            assert np.array_equal(first, run(a, x, None))

    def test_forward_and_gradient_pass_equals_the_two_passes(self):
        net, x = random_mlp(stream(303), output_activation=SIGMOID)
        out, grad = mlp_forward_and_input_gradient(net, x)
        assert np.array_equal(out, mlp_forward(net, x))
        assert np.array_equal(grad, mlp_backward(net, x, np.ones((x.shape[0], 1)))[1])

    @pytest.mark.parametrize("seed", range(12))
    def test_scalar_output_delta_equals_the_k1_product(self, seed):
        # _backprop forms a fan-out-1 layer's delta as (mask * w) * g by
        # broadcasting; the reference forms it as (g @ w.T) * mask. Hidden
        # widths start at 1, so a one-unit hidden layer takes the same path.
        rng = stream(330, seed)
        sizes = [int(rng.integers(1, 6))]
        sizes += [int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 4)))] + [1]
        activation = SIGMOID if seed % 2 else IDENTITY
        net = mlp_init(sizes, activation, rng=rng)
        x = rng.normal(size=(int(rng.integers(1, 60)), sizes[0]))
        g_out = rng.normal(size=(len(x), 1))
        g_out[::7] = 0.0  # exact zeros: their products differ at most in a zero's sign
        flat, grads = nn._gradient_like(net)
        ws = Workspace()
        delta = nn._backprop(net, nn._forward(net, x, ws), g_out, ws, grads)
        ref_grads, ref_delta = textbook_backprop(
            net.weights, activation, nn._forward(net, x, Workspace()), g_out
        )
        assert np.array_equal(delta, ref_delta)
        assert np.array_equal(flat, ref_grads)
        input_grad = delta @ net.weights[0].T
        assert input_grad.tobytes() == (ref_delta @ net.weights[0].T).tobytes()

    def test_taller_request_replaces_the_buffer(self):
        ws = Workspace()
        small = ws.take("a", 3, 5)
        assert small.shape == (3, 5) and np.shares_memory(small, ws.take("a", 2, 5))
        tall = ws.take("a", 8, 5)
        assert tall.shape == (8, 5) and not np.shares_memory(small, tall)
        assert not np.shares_memory(tall, ws.take("a", 8, 6))  # another width, another buffer
        assert ws.take("m", 4, 5, dtype=bool).dtype == bool

    @pytest.mark.parametrize(
        "sizes, activation, loss, n, batch",
        [
            ([5, 12, 7, 1], IDENTITY, SQUARED_ERROR, 70, 16),  # 49 training rows: a 1-row tail
            ([3, 6, 1], SIGMOID, BINARY_CROSS_ENTROPY, 60, 8),  # 42 rows: a 2-row tail
            ([30, 100, 100, 1], IDENTITY, SQUARED_ERROR, 800, 512),  # 560 rows: a 48-row tail
        ],
    )
    def test_fit_matches_textbook_reference_bit_for_bit(self, sizes, activation, loss, n, batch):
        rng = stream(310)
        x = rng.normal(size=(n, sizes[0]))
        y = (x[:, 0] > 0).astype(float) if loss == BINARY_CROSS_ENTROPY else rng.normal(size=n)
        net = mlp_init(sizes, activation, rng=stream(311))
        cfg = TrainConfig(learning_rate=1e-2, batch_size=batch, max_epochs=4, patience=3)
        fitted = train_early_stop(net, x, y, loss, config=cfg, rng=stream(312))
        best = textbook_train_early_stop(net, x, y, loss, cfg, stream(312))
        assert np.array_equal(nn.flatten(fitted.arrays()), best)

    def test_minibatches_gather_from_the_callers_array(self, monkeypatch):
        # Each minibatch is gathered from x itself through the training
        # indices; no copied training block stands between them.
        shared = []
        take_rows = nn._take_rows

        def record(source, idx, ws, key="rows"):
            shared.append(np.shares_memory(source, x))
            return take_rows(source, idx, ws, key)

        monkeypatch.setattr(nn, "_take_rows", record)
        rng = stream(340)
        x, y = rng.normal(size=(60, 4)), rng.normal(size=60)
        cfg = TrainConfig(batch_size=16, max_epochs=2, patience=2)
        train_early_stop(mlp_init([4, 8, 1], rng=stream(341)), x, y, config=cfg, rng=stream(342))
        assert len(shared) == 2 * 3 and all(shared)  # 42 training rows: 3 batches an epoch

    def test_step_allocates_no_activation_after_the_first(self, monkeypatch):
        # A 30-100-100-1 step at batch 512, Adam included: one (512, 100)
        # float64 array is 409,600 bytes, so a traced peak below that means
        # the step allocated no activation or delta.
        captured = {}

        def capture(params, grad_fn, val_loss_fn, n_train, config, rng):
            captured.update(params=params, grad_fn=grad_fn, n_train=n_train)

        monkeypatch.setattr(nn, "minibatch_fit", capture)
        rng = stream(320)
        x, y = rng.normal(size=(2000, 30)), rng.normal(size=2000)
        net = mlp_init([30, 100, 100, 1], rng=stream(321))
        train_early_stop(net, x, y, config=TrainConfig(batch_size=512), rng=stream(322))
        params, grad_fn = captured["params"], captured["grad_fn"]
        order = stream(323).permutation(captured["n_train"])
        state = adam_init(params, lr=1e-3)
        adam_step(state, params, grad_fn(params, order[:512]))  # makes the buffers
        tracemalloc.start()
        try:
            adam_step(state, params, grad_fn(params, order[512:1024]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 100 * 8, f"a step peaked at {peak} bytes"


class TestMmd2Linear:
    def test_identical_groups_zero(self):
        a = stream(1).normal(size=(7, 3))
        assert mmd2_linear_with_grad(a, a)[0] == 0.0

    def test_unit_mean_shift(self):
        rep0 = np.array([[0.5, 1.0], [-0.5, -1.0]])  # mean (0, 0)
        rep1 = np.array([[1.0, 2.0], [1.0, -2.0]])  # mean (1, 0)
        assert mmd2_linear_with_grad(rep0, rep1)[0] == pytest.approx(1.0)

    def test_symmetry(self):
        rng = stream(2)
        a, b = rng.normal(size=(5, 4)), rng.normal(size=(9, 4))
        assert mmd2_linear_with_grad(a, b)[0] == pytest.approx(mmd2_linear_with_grad(b, a)[0])

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_zero_iff_equal_means(self, n0, n1, d, seed):
        rng = stream(seed)
        a, b = rng.normal(size=(n0, d)), rng.normal(size=(n1, d))
        v = mmd2_linear_with_grad(a, b)[0]
        assert v >= 0.0
        centered = b - b.mean(axis=0) + a.mean(axis=0)
        assert mmd2_linear_with_grad(a, centered)[0] == pytest.approx(0.0, abs=1e-24)

    def test_gradients_match_finite_differences(self):
        rng = stream(3)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
        _, g0, g1 = mmd2_linear_with_grad(a, b)
        h = 1e-6
        for idx in np.ndindex(*a.shape):
            hi, lo = a.copy(), a.copy()
            hi[idx] += h
            lo[idx] -= h
            fd = (mmd2_linear_with_grad(hi, b)[0] - mmd2_linear_with_grad(lo, b)[0]) / (2 * h)
            assert g0[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)
        for idx in np.ndindex(*b.shape):
            hi, lo = b.copy(), b.copy()
            hi[idx] += h
            lo[idx] -= h
            fd = (mmd2_linear_with_grad(a, hi)[0] - mmd2_linear_with_grad(a, lo)[0]) / (2 * h)
            assert g1[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_empty_group_rejected(self):
        with pytest.raises(EmptyGroupError):
            mmd2_linear_with_grad(np.empty((0, 2)), np.ones((3, 2)))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mmd2_linear_with_grad(np.ones((2, 2)), np.ones((2, 3)))
