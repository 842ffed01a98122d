"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The three experiment
fixtures dominate the runtime (roughly 20 minutes wall on 2 CPUs); all
other criteria finish in seconds. Every tolerance is pinned here.
"""

import time

import numpy as np
import pytest

from catebench.attribution import (
    feature_ablation,
    integrated_gradients,
    saliency,
    shapley_exact,
    shapley_mc,
    ScalarFunction,
    attribute_batch,
)
from catebench.dgp import (
    NONCONFOUNDED,
    PREDICTIVE_CONFOUNDING,
    PROGNOSTIC_CONFOUNDING,
    UNIFORM,
    PropensitySpec,
    generate_dataset,
    pick_irrelevant_index,
    propensity_scores,
    sample_feature_sets,
    sample_outcome_model,
    synth_covariates,
    true_cate,
    true_cate_gradient,
)
from catebench.harness import ExperimentConfig, aggregate, emit_csv, run_experiment
from catebench.learners import dr_pseudo_outcome
from catebench.metrics import attr_pred, pehe
from catebench.nn import (
    IDENTITY,
    SIGMOID,
    MlpParams,
    TrainConfig,
    mlp_backward,
    mlp_forward,
    mlp_init,
    mlp_input_gradient,
)
from catebench.rng import stream

from helpers import fd_input_grads, fd_param_grads, sample_smooth_batch

# Desk-scale settings shared by the three experiment criteria. Strongly
# correlated Gaussian covariates stand in for the correlated real feature
# sets the trends were reported on; the training schedule trades the slow
# production defaults for the stated runtime budgets.
ACC_TRAIN = TrainConfig(learning_rate=1e-3, batch_size=512, max_epochs=150, patience=10)
ACC_BASE = dict(synth_n=5000, synth_d=30, synth_rho=0.9, sigma=0.1, train=ACC_TRAIN)

LEARNERS = ("s", "t", "tarnet", "dr", "x")


def _report(criterion: int, ok: bool, text: str):
    print(f"\nACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {criterion}: {text}"


def _mlp_fn(net):
    return ScalarFunction(
        value=lambda x: mlp_forward(net, x)[:, 0],
        gradient=lambda x: mlp_input_gradient(net, x),
    )


def _random_small_mlp(rng, output_activation=IDENTITY):
    d_in = int(rng.integers(2, 7))
    hidden = [int(rng.integers(2, 11)) for _ in range(int(rng.integers(1, 4)))]
    return mlp_init([d_in] + hidden + [1], output_activation, rng), d_in


# --- 1. Gradient suite ------------------------------------------------------


def test_c01_gradient_suite():
    # Central differences are meaningless across a ReLU kink, so the input
    # batch is resampled until every hidden pre-activation sits safely away
    # from zero relative to the h=1e-4 probe.
    started = time.perf_counter()
    rel, floor = 1e-4, 1e-7
    checked = 0
    for k in range(50):
        rng = stream(9100, k)
        act = SIGMOID if k % 5 == 4 else IDENTITY
        net, d_in = _random_small_mlp(rng, act)
        x = sample_smooth_batch(net, rng, int(rng.integers(1, 5)))
        coeffs = rng.normal(size=(x.shape[0], 1))
        grads, gin = mlp_backward(net, x, coeffs)
        fw, fb = fd_param_grads(net, x, coeffs)
        for a, e in zip(grads.weights + grads.biases, fw + fb):
            assert np.all(np.abs(a - e) <= rel * np.maximum(np.abs(a), np.abs(e)) + floor)
        fi = fd_input_grads(net, x, coeffs)
        assert np.all(np.abs(gin - fi) <= rel * np.maximum(np.abs(gin), np.abs(fi)) + floor)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(1, checked == 50,
            f"param+input gradients match central differences (1e-4 rel) "
            f"on {checked}/50 random networks in {elapsed:.1f}s")


# --- 2. Attribution axiom suite ----------------------------------------------


def test_c02_attribution_axiom_suite():
    started = time.perf_counter()

    # Completeness at 50 steps on random small networks.
    for k in range(20):
        rng = stream(9200, k)
        net, d_in = _random_small_mlp(rng)
        f = _mlp_fn(net)
        x = rng.normal(size=d_in)
        a = integrated_gradients(f, x, steps=50)
        shift = float(f.value(x[None, :])[0] - f.value(np.zeros((1, d_in)))[0])
        assert abs(a.sum() - shift) <= 1e-3 * (1.0 + abs(shift))

    # Exactness on linear models.
    for k in range(10):
        rng = stream(9210, k)
        d = int(rng.integers(2, 8))
        w = rng.normal(size=d)
        net = MlpParams([w[:, None]], [np.zeros(1)])
        x = rng.normal(size=d)
        assert np.allclose(integrated_gradients(_mlp_fn(net), x, steps=7), w * x, atol=1e-12)

    # Sensitivity: a disconnected coordinate scores exactly zero.
    for k in range(10):
        rng = stream(9220, k)
        net, d_in = _random_small_mlp(rng)
        dead = int(rng.integers(d_in))
        net.weights[0][dead, :] = 0.0
        f = _mlp_fn(net)
        x = rng.normal(size=d_in)
        for method in (saliency, integrated_gradients, feature_ablation, shapley_exact):
            assert abs(method(f, x)[dead]) <= 1e-12

    # Linearity of the three linear methods on random pairs.
    for k in range(10):
        rng = stream(9230, k)
        d = int(rng.integers(2, 6))
        net_a = mlp_init([d, int(rng.integers(2, 9)), 1], IDENTITY, rng)
        net_b = mlp_init([d, int(rng.integers(2, 9)), 1], IDENTITY, rng)
        fa, fb = _mlp_fn(net_a), _mlp_fn(net_b)
        alpha, beta = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        combo = ScalarFunction(
            value=lambda q: alpha * fa.value(q) + beta * fb.value(q),
            gradient=lambda q: alpha * fa.gradient(q) + beta * fb.gradient(q),
        )
        x = rng.normal(size=d)
        for method in (saliency, integrated_gradients, shapley_exact):
            lhs = method(combo, x)
            rhs = alpha * method(fa, x) + beta * method(fb, x)
            assert np.all(np.abs(lhs - rhs) <= 1e-8)

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(2, True,
            f"IG completeness/exactness, sensitivity, linearity hold in {elapsed:.1f}s")


# --- 3. Shapley oracle --------------------------------------------------------


def test_c03_shapley_monte_carlo_oracle():
    started = time.perf_counter()
    n_runs, per_run = 20, 500  # mean of 20x500 == one 10000-permutation estimate
    for k in range(20):
        rng = stream(9300, k)
        d = int(rng.integers(2, 9))
        hidden = int(rng.integers(3, 9))
        net = mlp_init([d, hidden, 1], IDENTITY, rng)
        f = _mlp_fn(net)
        x = rng.normal(size=d)
        exact = shapley_exact(f, x)
        runs = np.array([
            shapley_mc(f, x, n_permutations=per_run, rng=stream(9310, k, r))
            for r in range(n_runs)
        ])
        mean = runs.mean(axis=0)
        se = runs.std(axis=0, ddof=1) / np.sqrt(n_runs)
        assert np.all(np.abs(mean - exact) <= 3.0 * se + 1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(3, True,
            f"10000-permutation sampling matches exact enumeration within 3 se "
            f"on 20 functions (d<=8) in {elapsed:.1f}s")


# --- 4. DR unbiasedness --------------------------------------------------------


def test_c04_dr_pseudo_outcome_unbiased():
    started = time.perf_counter()
    n = 10000
    for k in range(10):
        rng = stream(9400, k)
        d = int(rng.integers(3, 9))
        x = rng.normal(size=(n, d))
        w_prog = rng.uniform(-1, 1, size=d)
        w_eff = rng.uniform(-1, 1, size=d)
        offset = float(rng.uniform(-2, 2))
        y0 = x @ w_prog
        y1 = y0 + offset + x @ w_eff
        w = (rng.random(n) < 0.5).astype(int)
        y = np.where(w == 1, y1, y0) + rng.normal(0, 1.0, size=n)
        pseudo = dr_pseudo_outcome(y, w, np.full(n, 0.5), y0, y1)
        ate = float(np.mean(y1 - y0))
        se = pseudo.std(ddof=1) / np.sqrt(n)
        assert abs(pseudo.mean() - ate) <= 3.0 * se
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(4, True,
            f"oracle-nuisance pseudo-outcome mean within 3 se of the true ATE "
            f"on 10 random designs in {elapsed:.1f}s")


# --- 5. DGP contract suite ------------------------------------------------------


def test_c05_dgp_contract_suite():
    started = time.perf_counter()
    kinds = (UNIFORM, PREDICTIVE_CONFOUNDING, PROGNOSTIC_CONFOUNDING, NONCONFOUNDED)
    for k in range(100):
        rng = stream(9500, k)
        d = int(rng.integers(7, 41))
        n_i = int(rng.integers(1, (d - 1) // 3 + 1))
        n = int(rng.integers(50, 200))
        cov = synth_covariates(n, d, float(rng.uniform(0, 0.8)), rng)
        sets = sample_feature_sets(d, n_i, rng)
        model = sample_outcome_model(
            n_i, float(rng.uniform(0, 1)), float(rng.uniform(0, 2)), rng
        )
        kind = kinds[k % 4]
        irrelevant = (
            pick_irrelevant_index(d, sets, rng) if kind == NONCONFOUNDED else None
        )
        spec = PropensitySpec(kind, float(rng.uniform(0, 4)), irrelevant)
        ds = generate_dataset(cov, sets, model, spec, 0.0, rng)
        t = ds.truth

        assert np.allclose(t.tau, t.y1 - t.y0)  # effect = arm contrast
        picked = np.where(ds.w == 1, t.y1, t.y0)
        assert np.array_equal(ds.y, picked)  # sigma=0 consistency
        assert len(sets.all_relevant) == 3 * n_i  # disjointness
        assert np.all(t.pi > 0.0) and np.all(t.pi < 1.0)  # positivity

        # Effect depends only on the predictive indices.
        outside = np.setdiff1d(np.arange(d), sets.predictive)
        bumped = cov.x.copy()
        bumped[:, outside] += rng.normal(size=(n, len(outside)))
        assert np.allclose(true_cate(model, sets, bumped), t.tau)

        # Zero propensity scale flattens every kind to one half.
        flat = PropensitySpec(kind, 0.0, irrelevant)
        pi0 = propensity_scores(flat, model, sets, cov.x)
        assert np.all(pi0 == 0.5)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(5, True, f"generation invariants hold on 100 random configurations "
                     f"in {elapsed:.1f}s")


# --- 6..9. Trend experiments -----------------------------------------------------


@pytest.fixture(scope="module")
def experiment1():
    cfg = ExperimentConfig(
        knob="predictive_scale",
        knob_grid=(1e-3, 1e-2, 1e-1, 0.5, 1.0),
        seeds=10,
        learners=LEARNERS,
        **ACC_BASE,
    )
    started = time.perf_counter()
    records = run_experiment(cfg)
    return aggregate(records), time.perf_counter() - started


@pytest.fixture(scope="module")
def experiment2():
    cfg = ExperimentConfig(
        knob="nonlinearity_scale",
        knob_grid=(0.0, 0.5, 1.0),
        omega_pred=1.0,
        seeds=5,
        learners=LEARNERS,
        **ACC_BASE,
    )
    started = time.perf_counter()
    records = run_experiment(cfg)
    return aggregate(records), time.perf_counter() - started


@pytest.fixture(scope="module")
def experiment3():
    cfg = ExperimentConfig(
        knob="propensity_scale",
        knob_grid=(0.0, 2.0),
        omega_pred=1.0,
        omega_nl=0.0,
        propensity_kind=PREDICTIVE_CONFOUNDING,
        seeds=5,
        learners=LEARNERS + ("cfrnet:10",),
        **ACC_BASE,
    )
    started = time.perf_counter()
    records = run_experiment(cfg)
    return aggregate(records), time.perf_counter() - started


def _series(rows, learner, field):
    sub = sorted((r for r in rows if r.learner == learner), key=lambda r: r.knob_value)
    return [getattr(r, field) for r in sub]


def _monotone_with_slack(values, direction, slack=0.02):
    """At most one adjacent-pair violation, and it must not exceed slack."""
    diffs = np.diff(values) * (1 if direction == "up" else -1)
    violations = diffs[diffs < 0]
    return len(violations) <= 1 and np.all(-violations <= slack)


def test_c06_predictive_scale_trends(experiment1):
    rows, elapsed = experiment1
    assert elapsed < 30 * 60
    for learner in LEARNERS:
        up = _series(rows, learner, "attr_pred_mean")
        down = _series(rows, learner, "attr_prog_mean")
        assert _monotone_with_slack(up, "up"), (learner, up)
        assert _monotone_with_slack(down, "down"), (learner, down)
    _report(6, True,
            f"correct attribution rises and misattribution falls with the "
            f"predictive scale for all {len(LEARNERS)} learners ({elapsed:.0f}s)")


def test_c07_learner_ordering(experiment1):
    rows, _ = experiment1
    at_top = {r.learner: r.attr_pred_mean for r in rows if r.knob_value == 1.0}
    s_val = at_top.pop("s")
    assert all(s_val < v for v in at_top.values()), (s_val, at_top)
    at_bottom = {r.learner: r.pehe_mean for r in rows if r.knob_value == 1e-3}
    t_val = at_bottom.pop("t")
    assert all(t_val > v for v in at_bottom.values()), (t_val, at_bottom)
    _report(7, True,
            f"single-regression learner attributes worst at full predictive scale "
            f"({s_val:.3f} vs next {min(at_top.values()):.3f}); two-regression "
            f"learner has the largest effect RMSE at the weakest scale")


def test_c08_nonlinearity_drop(experiment2):
    rows, elapsed = experiment2
    assert elapsed < 20 * 60
    for learner in LEARNERS:
        vals = {r.knob_value: r.attr_pred_mean for r in rows if r.learner == learner}
        assert vals[1.0] < vals[0.0], (learner, vals)
    _report(8, True,
            f"correct attribution at full nonlinearity is below the linear case "
            f"for all learners ({elapsed:.0f}s)")


def test_c09_confounding_contrast(experiment3):
    rows, elapsed = experiment3
    assert elapsed < 30 * 60
    for learner in LEARNERS + ("cfrnet:10",):
        vals = {r.knob_value: r.attr_pred_mean for r in rows if r.learner == learner}
        assert vals[2.0] < vals[0.0], (learner, vals)
    balanced = next(r.attr_pred_mean for r in rows
                    if r.learner == "cfrnet:10" and r.knob_value == 2.0)
    plain = next(r.attr_pred_mean for r in rows
                 if r.learner == "tarnet" and r.knob_value == 2.0)
    assert balanced < plain, (balanced, plain)
    _report(9, True,
            f"predictive confounding lowers correct attribution for every learner; "
            f"heavy balancing drops it further ({balanced:.3f} vs {plain:.3f}, "
            f"{elapsed:.0f}s)")


# --- 10. Oracle effect function ----------------------------------------------------


class _OracleEstimator:
    """Wraps the true effect function and its exact gradient."""

    strategy = "oracle"

    def __init__(self, model, sets):
        self.model = model
        self.sets = sets

    def predict_cate(self, x):
        return true_cate(self.model, self.sets, x)

    def gradient(self, x):
        return true_cate_gradient(self.model, self.sets, x)


def test_c10_oracle_estimator():
    started = time.perf_counter()
    for k in range(5):
        rng = stream(9600, k)
        d = 20
        cov = synth_covariates(500, d, 0.0, rng)
        sets = sample_feature_sets(d, 4, rng)
        model = sample_outcome_model(4, 0.0, 1.0, rng)  # linear design
        ds = generate_dataset(cov, sets, model, PropensitySpec(UNIFORM), 0.1, rng)
        oracle = _OracleEstimator(model, sets)
        assert pehe(oracle.predict_cate(cov.x), ds.truth.tau) == 0.0
        mat = attribute_batch("saliency", oracle, cov.x)
        score = attr_pred(mat, sets.predictive)
        assert score > 0.99
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(10, True,
            f"true-effect oracle scores zero RMSE and >0.99 correct attribution "
            f"on linear designs in {elapsed:.1f}s")


# --- 11. Determinism ------------------------------------------------------------


def test_c11_byte_identical_rerun(tmp_path):
    cfg = ExperimentConfig(
        synth_n=400,
        synth_d=12,
        knob="predictive_scale",
        knob_grid=(0.01, 1.0),
        sigma=0.1,
        learners=("s", "t"),
        seeds=2,
        attribution_cap=50,
        train=TrainConfig(learning_rate=1e-3, batch_size=128, max_epochs=5, patience=3),
    )
    paths = [tmp_path / f"r{i}.csv" for i in range(3)]
    emit_csv(run_experiment(cfg, workers=1), paths[0])
    emit_csv(run_experiment(cfg, workers=1), paths[1])
    emit_csv(run_experiment(cfg, workers=2), paths[2])  # schedule must not matter
    same_rerun = paths[0].read_bytes() == paths[1].read_bytes()
    same_schedule = paths[0].read_bytes() == paths[2].read_bytes()
    _report(11, same_rerun and same_schedule,
            "identical seeds produce byte-identical result CSVs, serial or parallel")
