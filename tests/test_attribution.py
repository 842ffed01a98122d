import tracemalloc

import numpy as np
import pytest

from catebench import attribution
from catebench.attribution import (
    FEATURE_ABLATION,
    FEATURE_PERMUTATION,
    INTEGRATED_GRADIENTS,
    SALIENCY,
    SHAPLEY_EXACT,
    SHAPLEY_MC,
    AttributionMatrix,
    ScalarFunction,
    attribute_batch,
    feature_ablation,
    feature_permutation,
    integrated_gradients,
    saliency,
    save_attributions,
    shapley_exact,
    shapley_mc,
)
from catebench.errors import CapacityError, InvalidConfigError, ShapeError
from catebench.learners import TEstimator, XEstimator
from catebench.nn import SIGMOID, MlpParams, mlp_forward, mlp_init, mlp_input_gradient
from catebench.rng import stream

from helpers import fd_scalar_grad, random_estimators


def linear_fn(weights, bias=0.0):
    w = np.asarray(weights, dtype=float)

    return ScalarFunction(
        value=lambda x: np.atleast_2d(x) @ w + bias,
        gradient=lambda x: np.tile(w, (np.atleast_2d(x).shape[0], 1)),
    )


def product_fn():
    return ScalarFunction(value=lambda x: np.atleast_2d(x)[:, 0] * np.atleast_2d(x)[:, 1])


def mlp_fn(net):
    return ScalarFunction(
        value=lambda x: mlp_forward(net, x)[:, 0],
        gradient=lambda x: mlp_input_gradient(net, x),
    )


class TestSaliency:
    def test_linear(self):
        g = saliency(linear_fn([3.0, 0.0, 0.0]), np.array([5.0, 1.0, -2.0]))
        assert np.allclose(g, [3.0, 0.0, 0.0])

    def test_constant(self):
        g = saliency(linear_fn([0.0, 0.0], bias=7.0), np.array([1.0, 2.0]))
        assert np.allclose(g, 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences(self, seed):
        rng = stream(300 + seed)
        net = mlp_init([3, 8, 6, 1], rng=rng)
        x = rng.normal(size=3)
        g = saliency(mlp_fn(net), x)
        fd = fd_scalar_grad(lambda q: mlp_forward(net, q)[:, 0], x)
        tol = 1e-4 * np.maximum(np.abs(g), np.abs(fd)) + 1e-7
        assert np.all(np.abs(g - fd) <= tol)

    def test_needs_gradient(self):
        with pytest.raises(InvalidConfigError):
            saliency(product_fn(), np.ones(2))


class TestIntegratedGradients:
    def test_linear_exact_any_steps(self):
        f = linear_fn([2.0, -3.0])
        x = np.array([1.0, 1.0])
        for steps in (1, 3, 50):
            assert np.allclose(integrated_gradients(f, x, steps=steps), [2.0, -3.0])

    def test_zero_at_baseline(self):
        net = mlp_init([3, 5, 1], rng=stream(310))
        b = np.array([0.5, -1.0, 2.0])
        assert np.allclose(integrated_gradients(mlp_fn(net), b.copy(), baseline=b), 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_completeness_on_random_mlps(self, seed):
        rng = stream(320 + seed)
        net = mlp_init([4, 10, 10, 1], rng=rng)
        f = mlp_fn(net)
        x = rng.normal(size=4)
        a = integrated_gradients(f, x, steps=50)
        shift = float(f.value(x[None, :])[0] - f.value(np.zeros((1, 4)))[0])
        assert abs(a.sum() - shift) <= 1e-3 * (1.0 + abs(shift))

    def test_step_validation(self):
        with pytest.raises(InvalidConfigError):
            integrated_gradients(linear_fn([1.0]), np.ones(1), steps=0)


class TestFeatureAblation:
    def test_additive(self):
        w = np.array([1.5, -2.0, 0.5])
        x = np.array([2.0, 1.0, -4.0])
        a = feature_ablation(linear_fn(w), x)
        assert np.allclose(a, w * x)

    def test_coordinate_at_baseline_scores_zero(self):
        x = np.array([0.0, 3.0])
        a = feature_ablation(product_fn(), x)
        assert a[0] == pytest.approx(0.0)

    def test_product_hand_value(self):
        a = feature_ablation(product_fn(), np.array([1.0, 2.0]))
        assert np.allclose(a, [2.0, 2.0])

    def test_custom_baseline(self):
        f = linear_fn([1.0, 1.0])
        a = feature_ablation(f, np.array([3.0, 5.0]), baseline=np.array([1.0, 1.0]))
        assert np.allclose(a, [2.0, 4.0])


class TestFeaturePermutation:
    def test_constant_function_zero_matrix(self):
        f = linear_fn([0.0, 0.0], bias=9.0)
        scores = feature_permutation(f, stream(330).normal(size=(10, 2)), stream(331))
        assert np.allclose(scores, 0.0)

    def test_unused_features_score_zero(self):
        f = linear_fn([0.0, 1.0, 0.0])  # depends only on feature 1
        x = stream(332).normal(size=(20, 3))
        scores = feature_permutation(f, x, stream(333))
        assert np.allclose(scores[:, 0], 0.0)
        assert np.allclose(scores[:, 2], 0.0)
        assert not np.allclose(scores[:, 1], 0.0)

    def test_constant_column_scores_zero(self):
        # Every permutation of a constant column is the identity arrangement.
        x = stream(334).normal(size=(15, 3))
        x[:, 2] = 4.2
        f = linear_fn([1.0, 1.0, 1.0])
        scores = feature_permutation(f, x, stream(335))
        assert np.allclose(scores[:, 2], 0.0)

    def test_needs_two_rows(self):
        with pytest.raises(InvalidConfigError):
            feature_permutation(linear_fn([1.0]), np.ones((1, 1)), stream(0))


class TestShapley:
    def test_exact_product_hand_enumeration(self):
        phi = shapley_exact(product_fn(), np.array([1.0, 2.0]))
        assert np.allclose(phi, [1.0, 1.0])

    def test_exact_additive(self):
        w = np.array([0.5, -1.5, 2.0])
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(shapley_exact(linear_fn(w), x), w * x)

    def test_exact_symmetry(self):
        f = ScalarFunction(value=lambda q: np.atleast_2d(q).sum(axis=1) ** 2)
        phi = shapley_exact(f, np.array([1.5, 1.5, 1.5]))
        assert phi[0] == pytest.approx(phi[1]) == pytest.approx(phi[2])

    def test_exact_capacity_cap(self):
        with pytest.raises(CapacityError):
            shapley_exact(linear_fn(np.ones(16)), np.ones(16))

    def test_mc_additive_exact_for_any_n(self):
        w = np.array([2.0, -1.0])
        x = np.array([3.0, 5.0])
        phi = shapley_mc(linear_fn(w), x, n_permutations=3, rng=stream(340))
        assert np.allclose(phi, w * x)

    def test_mc_product_converges(self):
        phi = shapley_mc(product_fn(), np.array([1.0, 2.0]), n_permutations=10000, rng=stream(341))
        assert np.allclose(phi, [1.0, 1.0], atol=0.1)

    def test_mc_efficiency_holds_per_draw(self):
        net = mlp_init([4, 6, 1], rng=stream(342))
        f = mlp_fn(net)
        x = stream(343).normal(size=4)
        for n in (1, 7, 33):
            phi = shapley_mc(f, x, n_permutations=n, rng=stream(344))
            shift = float(f.value(x[None, :])[0] - f.value(np.zeros((1, 4)))[0])
            assert phi.sum() == pytest.approx(shift, abs=1e-10)

    def test_mc_matches_exact_within_three_se(self):
        rng = stream(345)
        net = mlp_init([5, 8, 1], rng=rng)
        f = mlp_fn(net)
        x = rng.normal(size=5)
        exact = shapley_exact(f, x)
        runs = np.array([
            shapley_mc(f, x, n_permutations=200, rng=stream(346, k)) for k in range(30)
        ])
        se = runs.std(axis=0, ddof=1) / np.sqrt(30)
        assert np.all(np.abs(runs.mean(axis=0) - exact) <= 3 * se + 1e-9)


class TestAxioms:
    """Cross-method properties on random networks."""

    def _pair(self, seed):
        rng = stream(seed)
        f = mlp_fn(mlp_init([4, 7, 1], rng=rng))
        g = mlp_fn(mlp_init([4, 5, 1], rng=rng))
        x = rng.normal(size=4)
        return f, g, x

    def _combo(self, f, g, alpha, beta):
        return ScalarFunction(
            value=lambda q: alpha * f.value(q) + beta * g.value(q),
            gradient=lambda q: alpha * f.gradient(q) + beta * g.gradient(q),
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_linearity(self, seed):
        f, g, x = self._pair(350 + seed)
        alpha, beta = 1.7, -0.6
        combo = self._combo(f, g, alpha, beta)
        for method in (saliency, integrated_gradients, shapley_exact):
            lhs = method(combo, x)
            rhs = alpha * method(f, x) + beta * method(g, x)
            assert np.allclose(lhs, rhs, atol=1e-8), method.__name__

    def test_sensitivity_unused_coordinate(self):
        rng = stream(360)
        net = mlp_init([4, 6, 1], rng=rng)
        net.weights[0][2, :] = 0.0  # feature 2 disconnected
        f = mlp_fn(net)
        x = rng.normal(size=4)
        for method in (saliency, integrated_gradients, feature_ablation, shapley_exact):
            assert method(f, x)[2] == pytest.approx(0.0, abs=1e-12), method.__name__

    def test_t_learner_decomposition(self):
        rng = stream(370)
        mu0 = mlp_init([3, 6, 1], rng=rng)
        mu1 = mlp_init([3, 6, 1], rng=rng)
        est = TEstimator(mu0, mu1)
        x = rng.normal(size=3)
        for method in (saliency, integrated_gradients, shapley_exact):
            whole = method(est, x)
            parts = method(mlp_fn(mu1), x) - method(mlp_fn(mu0), x)
            assert np.allclose(whole, parts, atol=1e-10), method.__name__


class TestAttributeBatch:
    def test_saliency_rows_equal_weights(self):
        w = np.array([1.0, -2.0, 0.5])
        est = TEstimator(
            mu0=MlpParams([np.zeros((3, 1))], [np.zeros(1)]),
            mu1=MlpParams([w[:, None]], [np.zeros(1)]),
        )
        x = stream(380).normal(size=(7, 3))
        mat = attribute_batch(SALIENCY, est, x)
        assert np.allclose(mat.scores, np.tile(w, (7, 1)))

    def test_row_cap_deterministic(self):
        f = linear_fn([1.0, 1.0])
        x = stream(381).normal(size=(5000, 2))
        a = attribute_batch(SALIENCY, f, x, max_rows=1000, seed=9)
        b = attribute_batch(SALIENCY, f, x, max_rows=1000, seed=9)
        assert a.scores.shape == (1000, 2)
        assert np.array_equal(a.row_indices, b.row_indices)
        assert len(np.unique(a.row_indices)) == 1000

    @pytest.mark.parametrize(
        "method",
        [SALIENCY, INTEGRATED_GRADIENTS, FEATURE_ABLATION, SHAPLEY_EXACT, SHAPLEY_MC,
         FEATURE_PERMUTATION],
    )
    def test_ig_composition_matches_rowwise(self, method):
        # The batch dispatch must give exactly the public kernels' scores. The
        # gradient has no matrix product, so a row's gradient does not depend
        # on how many rows share the call (a BLAS product may round by batch).
        c = np.array([1.5, -0.5, 2.0])

        def gradient(q):
            g = c * np.cos(q)
            g[:, 0] += q[:, 1]
            g[:, 1] += q[:, 0]
            return g

        f = ScalarFunction(
            value=lambda q: (c * np.sin(q)).sum(axis=1) + q[:, 0] * q[:, 1], gradient=gradient
        )
        x = stream(383).normal(size=(4, 3))
        seed = 11
        rowwise = {
            SALIENCY: lambda k, row: saliency(f, row),
            INTEGRATED_GRADIENTS: lambda k, row: integrated_gradients(f, row),
            FEATURE_ABLATION: lambda k, row: feature_ablation(f, row),
            SHAPLEY_EXACT: lambda k, row: shapley_exact(f, row),
            SHAPLEY_MC: lambda k, row: shapley_mc(
                f, row, n_permutations=100 * len(row), rng=stream(seed, 2, k)
            ),
        }
        if method == FEATURE_PERMUTATION:
            expected = feature_permutation(f, x, stream(seed, 1))
        else:
            expected = np.vstack([rowwise[method](k, row) for k, row in enumerate(x)])
        mat = attribute_batch(method, f, x, seed=seed)
        assert attribution.IG_STEPS == 50  # the benchmark's schedule: result bytes depend on it
        assert np.array_equal(mat.scores, expected)
        assert np.array_equal(mat.row_indices, np.arange(4))

    def test_shapley_methods_run(self):
        f = product_fn()
        x = np.array([[1.0, 2.0], [0.5, -1.0]])
        exact = attribute_batch(SHAPLEY_EXACT, f, x)
        assert np.allclose(exact.scores[0], [1.0, 1.0])
        mc = [shapley_mc(f, row, n_permutations=4000, rng=stream(0, 2, k))
              for k, row in enumerate(x)]
        assert np.allclose(mc, exact.scores, atol=0.15)
        batch = attribute_batch(SHAPLEY_MC, f, x)  # 100 * d orderings per row
        assert np.allclose(batch.scores, exact.scores, atol=0.15)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidConfigError):
            attribute_batch("lime", linear_fn([1.0]), np.ones((2, 1)))

    def test_export_csv(self, tmp_path):
        mat = AttributionMatrix(np.array([[1.0, -2.0], [0.5, 0.25]]), SALIENCY, np.array([0, 1]))
        path = tmp_path / "attr.csv"
        save_attributions(mat, np.array([10, 42]), path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "unit_id,method,a_0,a_1"
        assert lines[1].startswith("10,saliency,1,")
        assert len(lines) == 3

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ShapeError):
            AttributionMatrix(np.array([[np.inf]]), SALIENCY, np.array([0]))


def random_x_estimator(d, seed):
    rng = stream(seed)
    return XEstimator(
        mlp_init([d, 100, 100, 1], rng=rng),
        mlp_init([d, 100, 100, 1], rng=rng),
        mlp_init([d, 100, 100, 1], SIGMOID, rng=rng),
    )


class TestBlocks:
    """Every method evaluates its points in blocks of at most _BLOCK_POINTS."""

    @pytest.mark.parametrize(
        "method, cap",
        [(INTEGRATED_GRADIENTS, 2000), (SHAPLEY_MC, 1), (FEATURE_PERMUTATION, 2000)],
    )
    def test_peak_memory_bounded(self, method, cap):
        # 2000 rows x 50 IG steps, or one row x 3000 orderings x 31 prefix
        # points: one evaluation of all of them would hold hundreds of MB of
        # 100-unit activations.
        est = random_x_estimator(30, 384)
        x = stream(385).normal(size=(2000, 30))
        tracemalloc.start()
        try:
            attribute_batch(method, est, x, max_rows=cap, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6, f"{method} peaked at {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("kind", range(5), ids=["s", "t", "tarnet", "dr", "x"])
    def test_ig_blocks_past_the_first_allocate_no_activation(self, kind, monkeypatch):
        # 300 rows x 50 steps are four blocks of up to 4096 points. With two
        # covariates every array the blocks need is small, so a traced peak
        # below one (4096, 100) float64 activation, counted from the start of
        # the second block, means the estimator's networks reused the call's
        # workspace.
        est = random_estimators(2, 388)[kind]
        x = stream(389).normal(size=(300, 2))
        gradient = type(est).gradient
        traced = []  # traced bytes as each block begins

        def gradient_from_block_two(self, q, ws=None):
            traced.append(tracemalloc.get_traced_memory()[0])
            if len(traced) == 2:
                tracemalloc.reset_peak()
            return gradient(self, q, ws)

        monkeypatch.setattr(type(est), "gradient", gradient_from_block_two)
        tracemalloc.start()
        try:
            attribute_batch(INTEGRATED_GRADIENTS, est, x, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traced) == 4
        assert peak - traced[1] < 4096 * 100 * 8, f"blocks 2-4 peaked {peak - traced[1]} B higher"

    def test_ig_points_gather_into_one_buffer(self):
        # A gradient that allocates nothing leaves only the path points: one
        # (4096, 30) float64 block is 983,040 bytes, and past the first block
        # the call allocates none, only the blocks' index arrays.
        x = stream(390).normal(size=(300, 30))
        ones = np.ones((4096, 30))
        traced = []

        def gradient(q):
            traced.append(tracemalloc.get_traced_memory()[0])
            if len(traced) == 2:
                tracemalloc.reset_peak()
            return ones[: len(q)]

        fn = ScalarFunction(value=lambda q: np.zeros(len(q)), gradient=gradient)
        tracemalloc.start()
        try:
            scores = attribute_batch(INTEGRATED_GRADIENTS, fn, x, seed=5).scores
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traced) == 4 and np.array_equal(scores, x)  # the mean of 1 is 1
        assert peak - traced[1] < 4096 * 30 * 8 // 4, f"blocks 2-4 peaked {peak - traced[1]} B"

    @pytest.mark.parametrize("method", [
        SALIENCY, INTEGRATED_GRADIENTS, FEATURE_ABLATION, FEATURE_PERMUTATION, SHAPLEY_MC,
        SHAPLEY_EXACT,
    ])
    def test_blocked_equals_one_block(self, method, monkeypatch):
        # 97 points split IG rows between their steps, Shapley orderings
        # between blocks and the 256 coalitions of d = 8 into three blocks.
        # A product may round a row differently by block height, so the
        # scores agree to a tolerance, not bit for bit.
        rng = stream(386)
        est = TEstimator(mlp_init([8, 16, 1], rng=rng), mlp_init([8, 16, 1], rng=rng))
        x = stream(387).normal(size=(40, 8))
        monkeypatch.setattr(attribution, "_BLOCK_POINTS", 1 << 20)
        reference = attribute_batch(method, est, x, seed=5).scores
        monkeypatch.setattr(attribution, "_BLOCK_POINTS", 97)
        blocked = attribute_batch(method, est, x, seed=5).scores
        np.testing.assert_allclose(
            blocked, reference, rtol=1e-12, atol=1e-12 * np.abs(reference).max()
        )

    @pytest.mark.parametrize(
        "field, value",
        [("max_rows", 0), ("max_rows", -5), ("steps", 0), ("n_permutations", 0)],
    )
    def test_settings_reject_values_below_one(self, field, value):
        # The batch path's row cap, and the counts the point functions take.
        f, x = linear_fn([1.0, 2.0]), np.ones(2)
        with pytest.raises(InvalidConfigError):
            if field == "max_rows":
                attribute_batch(SALIENCY, f, x[None], max_rows=value)
            elif field == "steps":
                integrated_gradients(f, x, steps=value)
            else:
                shapley_mc(f, x, n_permutations=value, rng=stream(0))
