import json

import numpy as np
import pytest

import catebench.learners as learners_mod
from catebench.dgp import ObservedData
from catebench.errors import EmptyGroupError, InvalidConfigError, ParseError
from catebench.learners import (
    HIDDEN_UNITS,
    DrEstimator,
    SEstimator,
    TarnetEstimator,
    TEstimator,
    XEstimator,
    NuisanceSet,
    dr_pseudo_outcome,
    fit_dr_learner,
    fit_learner,
    fit_nuisances,
    fit_propensity,
    fit_s_learner,
    fit_t_learner,
    fit_tarnet,
    fit_x_learner,
    load_estimator,
    save_estimator,
)
from catebench.nn import (
    IDENTITY,
    SIGMOID,
    SQUARED_ERROR,
    VALIDATION_FRACTION,
    MlpParams,
    TrainConfig,
    Workspace,
    flat_views,
    flatten,
    holdout_split,
    loss_output_grad,
    loss_value,
    mlp_init,
    mlp_input_gradient,
    mmd2_linear_with_grad,
)
from catebench.rng import stream

from helpers import (
    assert_close_rel,
    fd_flat_grad,
    fd_scalar_grad,
    random_estimators,
    textbook_backprop,
    textbook_forward,
    textbook_minibatch_fit,
)

FAST = TrainConfig(learning_rate=1e-3, batch_size=512, max_epochs=300, patience=15)


def linear_net(weights, bias=0.0, activation=IDENTITY):
    w = np.asarray(weights, dtype=float)[:, None]
    return MlpParams([w], [np.array([float(bias)])], activation)


def additive_data(n, seed, noise=0.0):
    """y = x0 + w * x1 (+ noise): true effect is x1."""
    rng = stream(seed)
    x = rng.normal(size=(n, 5))
    w = (rng.random(n) < 0.5).astype(int)
    y = x[:, 0] + w * x[:, 1]
    if noise > 0:
        y = y + noise * rng.normal(size=n)
    return ObservedData(x, w, y), x[:, 1]


def pehe(tau_hat, tau):
    return float(np.sqrt(np.mean((tau_hat - tau) ** 2)))


def cli_first_stage(train, config, seed):
    """The first stage `catebench fit --learner dr|x --seed <seed>` fits."""
    return fit_nuisances(
        train, config, stream(seed).spawn(1)[0], stream(seed).spawn(1)[0].spawn(3)[2]
    )


@pytest.fixture(scope="module")
def randomized_nuisances():
    """One shared nuisance fit on a noiseless shifted-outcome design."""
    rng = stream(60)
    x = rng.normal(size=(4000, 4))
    w = (rng.random(4000) < 0.5).astype(int)
    y = x[:, 0] + w * 1.0
    cfg = TrainConfig(batch_size=512, max_epochs=400, patience=10)  # default 1e-4 rate
    return fit_nuisances(ObservedData(x, w, y), cfg, stream(61), stream(61).spawn(3)[2])


class TestFitNuisances:
    def test_recovers_arm_regressions(self, randomized_nuisances):
        nuis = randomized_nuisances
        x_new = stream(62).normal(size=(500, 4))
        assert np.sqrt(np.mean((nuis.mu0_at(x_new) - x_new[:, 0]) ** 2)) < 0.1
        assert np.sqrt(np.mean((nuis.mu1_at(x_new) - x_new[:, 0] - 1.0) ** 2)) < 0.1

    def test_propensity_near_half_when_randomized(self, randomized_nuisances):
        held = stream(65).normal(size=(500, 4))
        p = randomized_nuisances.pi_at(held)
        assert np.all(p > 0.4) and np.all(p < 0.6)

    def test_empty_group_rejected(self):
        x = np.ones((10, 4))
        with pytest.raises(EmptyGroupError):
            fit_nuisances(
                ObservedData(x, np.ones(10, dtype=int), np.ones(10)), FAST, stream(0), stream(1)
            )


class TestSLearner:
    def test_w_ignoring_network_gives_zero_effect(self):
        net = linear_net([1.0, 2.0, 3.0, 0.0])  # last input is the w flag
        est = SEstimator(net)
        x = stream(70).normal(size=(6, 3))
        assert np.allclose(est.predict_cate(x), 0.0)
        assert np.allclose(est.gradient(x), 0.0)

    def test_additive_dgp_convergence(self):
        train, _ = additive_data(4000, 71)
        est = fit_s_learner(train, FAST, stream(72))
        obs, tau = additive_data(1000, 73)
        assert pehe(est.predict_cate(obs.x), tau) < 0.15

    def test_prediction_deterministic(self):
        train, _ = additive_data(300, 74)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=128, max_epochs=10, patience=5)
        est = fit_s_learner(train, cfg, stream(75))
        x = stream(76).normal(size=(20, 5))
        assert np.array_equal(est.predict_cate(x), est.predict_cate(x))

    def test_capacity_layout(self):
        train, _ = additive_data(200, 77)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=128, max_epochs=2, patience=1)
        est = fit_s_learner(train, cfg, stream(78))
        assert [w.shape for w in est.net.weights] == [
            (6, HIDDEN_UNITS), (HIDDEN_UNITS, HIDDEN_UNITS), (HIDDEN_UNITS, 1)
        ]


class TestTLearner:
    def test_frozen_linear_heads_exact(self):
        est = TEstimator(mu0=linear_net([1.0, 0.0]), mu1=linear_net([2.0, 0.0]))
        x = stream(80).normal(size=(10, 2))
        assert np.allclose(est.predict_cate(x), x[:, 0])
        assert np.allclose(est.gradient(x), np.tile([1.0, 0.0], (10, 1)))

    def test_gradient_is_difference_of_head_gradients(self):
        rng = stream(81)
        mu0 = mlp_init([3, 8, 1], rng=rng)
        mu1 = mlp_init([3, 8, 1], rng=rng)
        est = TEstimator(mu0, mu1)
        x = rng.normal(size=(5, 3))
        from catebench.nn import mlp_input_gradient

        expected = mlp_input_gradient(mu1, x) - mlp_input_gradient(mu0, x)
        assert np.allclose(est.gradient(x), expected)

    def test_fit_learner_reads_a_given_first_stage(self, monkeypatch):
        train, _ = additive_data(200, 85)
        short = TrainConfig(max_epochs=2)
        fitted = fit_learner("t", train, short, stream(86), None)
        alone = fit_t_learner(train, short, stream(86))
        for a, b in zip(fitted.mu0.arrays() + fitted.mu1.arrays(),
                        alone.mu0.arrays() + alone.mu1.arrays()):
            assert np.array_equal(a, b)

        def no_fit(*args, **kwargs):
            raise AssertionError("no network may be fitted")

        monkeypatch.setattr("catebench.nn.minibatch_fit", no_fit)
        monkeypatch.setattr(learners_mod, "minibatch_fit", no_fit)
        stage = NuisanceSet(fitted.mu0, fitted.mu1, mlp_init([5, 4, 1], SIGMOID, stream(87)))
        est = fit_learner("t", train, short, stream(88), stage)
        assert isinstance(est, TEstimator) and est.mu0 is stage.mu0 and est.mu1 is stage.mu1

    def test_additive_dgp_convergence(self):
        train, _ = additive_data(4000, 82)
        est = fit_t_learner(train, FAST, stream(83))
        obs, tau = additive_data(1000, 84)
        assert pehe(est.predict_cate(obs.x), tau) < 0.15


class TestArmFloor:
    def test_floor_is_the_smallest_arm_the_validation_split_takes(self):
        floor = learners_mod.MIN_ARM_UNITS
        train_idx, val_idx = holdout_split(floor, VALIDATION_FRACTION, stream(0))
        assert len(train_idx) >= 1 and len(val_idx) >= 1
        with pytest.raises(InvalidConfigError, match="degenerate split"):
            holdout_split(floor - 1, VALIDATION_FRACTION, stream(0))

    @pytest.mark.parametrize("fit", ["t", "x"])
    @pytest.mark.parametrize("small_arm", [0, 1])
    def test_arm_below_the_floor_is_a_data_failure(self, fit, small_arm):
        # One unit in one arm: a network fitted on that arm alone cannot hold out a row.
        n = 12
        w = np.full(n, 1 - small_arm)
        w[: learners_mod.MIN_ARM_UNITS - 1] = small_arm
        data = ObservedData(stream(90).normal(size=(n, 4)), w, stream(91).normal(size=n))
        rng = stream(92)
        stage = NuisanceSet(*(mlp_init([4, 6, 1], rng=rng) for _ in range(3)))
        with pytest.raises(EmptyGroupError, match=f"arm w={small_arm} holds 1 of the 2 units"):
            if fit == "t":
                fit_t_learner(data, FAST, stream(93))
            else:
                fit_x_learner(data, FAST, stream(93), stage)

    @pytest.mark.parametrize("fit", ["s", "propensity", "tarnet", "dr"])
    @pytest.mark.parametrize("empty_arm", [0, 1])
    def test_empty_arm_is_named(self, fit, empty_arm):
        n = 12
        data = ObservedData(stream(90).normal(size=(n, 4)), np.full(n, 1 - empty_arm),
                            stream(91).normal(size=n))
        stage = NuisanceSet(*(mlp_init([4, 6, 1], rng=stream(92)) for _ in range(3)))
        fits = {
            "s": lambda: fit_s_learner(data, FAST, stream(93)),
            "propensity": lambda: fit_propensity(data, FAST, stream(93)),
            "tarnet": lambda: fit_tarnet(data, 0.0, FAST, stream(93)),
            "dr": lambda: fit_dr_learner(data, FAST, stream(93), stage),
        }
        with pytest.raises(EmptyGroupError, match=f"arm w={empty_arm} holds 0 of the 1 units"):
            fits[fit]()


class TestTarnet:
    def test_additive_dgp_convergence(self):
        train, _ = additive_data(4000, 90)
        est = fit_tarnet(train, 0.0, FAST, stream(91))
        obs, tau = additive_data(1000, 92)
        assert pehe(est.predict_cate(obs.x), tau) < 0.15

    def test_gamma_zero_deterministic_and_equal(self):
        train, _ = additive_data(600, 93)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=256, max_epochs=20, patience=10)
        a = fit_tarnet(train, 0.0, cfg, stream(94))
        b = fit_tarnet(train, 0.0, cfg, stream(94))
        x = stream(95).normal(size=(50, 5))
        assert np.array_equal(a.predict_cate(x), b.predict_cate(x))
        assert np.array_equal(a.trunk_w, b.trunk_w)

    def test_balancing_shrinks_group_separation(self):
        # Confounded assignment: heavy balancing must reduce the MMD^2 of the
        # learned representation relative to the unbalanced fit.
        rng = stream(96)
        n = 2000
        x = rng.normal(size=(n, 5))
        p = 1.0 / (1.0 + np.exp(-2.0 * x[:, 1]))
        w = (rng.random(n) < p).astype(int)
        y = x[:, 0] + w * x[:, 1]
        train = ObservedData(x, w, y)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=512, max_epochs=100, patience=100)
        plain = fit_tarnet(train, 0.0, cfg, stream(97))
        balanced = fit_tarnet(train, 1e3, cfg, stream(97))
        from catebench.nn import mmd2_linear_with_grad

        def separation(est):
            rep = est._rep(x, Workspace())
            return mmd2_linear_with_grad(rep[w == 0], rep[w == 1])[0]

        assert separation(balanced) < separation(plain)

    @pytest.mark.parametrize("gamma", [0.0, 2.5])
    def test_step_gradient_matches_finite_differences(self, monkeypatch, gamma):
        """A step's gradient is that of its minibatch's factual squared error plus gamma * MMD^2."""
        train, _ = additive_data(120, 320)
        captured = {}
        monkeypatch.setattr(learners_mod, "minibatch_fit", lambda flat, grad_fn, *rest:
                            captured.update(flat=flat, grad_fn=grad_fn))
        fit_tarnet(train, gamma, FAST, stream(321))
        train_idx, _ = holdout_split(train.n, VALIDATION_FRACTION, stream(321).spawn(3)[1])
        idx = stream(322).permutation(len(train_idx))[:64]
        rows = train_idx[idx]
        x, w, y = train.x[rows], train.w[rows], train.y[rows]
        h = HIDDEN_UNITS
        head = [np.empty((h, h)), np.empty(h), np.empty((h, 1)), np.empty(1)]
        flat = captured["flat"]  # trunk, then head 0 and head 1, as the fit packs them
        trunk_w, trunk_b, *heads = flat_views(flat, [np.empty((train.d, h)), np.empty(h),
                                                     *head, *head])

        patterns = set()  # ReLU on/off pattern seen at each evaluation

        def objective():
            pre = x @ trunk_w + trunk_b
            rep, pred, on = np.maximum(pre, 0.0), np.empty(len(y)), [pre > 0]
            for arm in (0, 1):
                w0, b0, w1, b1 = heads[4 * arm : 4 * arm + 4]
                hidden = rep[w == arm] @ w0 + b0
                pred[w == arm] = (np.maximum(hidden, 0.0) @ w1 + b1)[:, 0]
                on.append(hidden > 0)
            patterns.add(b"".join(a.tobytes() for a in on))
            gap = rep[w == 0].mean(axis=0) - rep[w == 1].mean(axis=0)
            return np.mean((pred - y) ** 2) + gamma * gap @ gap

        step = captured["grad_fn"](flat, idx).copy()
        ends = np.cumsum([0, trunk_w.size + trunk_b.size, *[sum(a.size for a in head)] * 2])
        coords = np.concatenate([stream(323 + k).choice(np.arange(lo, hi), 100, replace=False)
                                 for k, (lo, hi) in enumerate(zip(ends, ends[1:]))])
        assert_close_rel(step[coords], fd_flat_grad(objective, flat, coords), rel=1e-5,
                         floor=1e-8)
        assert len(patterns) == 1  # no probe crossed a ReLU kink

    def test_strategy_label_tracks_gamma(self):
        t = TarnetEstimator(np.zeros((2, 3)), np.zeros(3), None, None, 0.0)
        c = TarnetEstimator(np.zeros((2, 3)), np.zeros(3), None, None, 2.0)
        assert t.strategy == "tarnet" and c.strategy == "cfrnet"

    def test_negative_gamma_rejected(self):
        train, _ = additive_data(100, 98)
        with pytest.raises(InvalidConfigError):
            fit_tarnet(train, -1.0, FAST, stream(99))

    def test_nan_gamma_rejected(self):
        train, _ = additive_data(100, 98)
        with pytest.raises(InvalidConfigError):
            fit_tarnet(train, float("nan"), FAST, stream(99))

    def test_infinite_gamma_rejected_before_any_network(self, monkeypatch):
        inits = []
        monkeypatch.setattr(learners_mod, "mlp_init", lambda *a, **k: inits.append(a))
        train, _ = additive_data(100, 98)
        message = "cfrnet needs a finite, positive balancing weight, got inf"
        with pytest.raises(InvalidConfigError, match=message):
            fit_tarnet(train, float("inf"), FAST, stream(99))
        assert inits == []
        with pytest.raises(InvalidConfigError, match=message):  # the same rule
            learners_mod.parse_learner("cfrnet:inf")

    def test_capacity_layout(self):
        train, _ = additive_data(300, 100)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=128, max_epochs=2, patience=1)
        est = fit_tarnet(train, 0.0, cfg, stream(101))
        assert est.trunk_w.shape == (5, HIDDEN_UNITS)
        for head in (est.head0, est.head1):
            assert [w.shape for w in head.weights] == [
                (HIDDEN_UNITS, HIDDEN_UNITS), (HIDDEN_UNITS, 1)
            ]


def textbook_fit_tarnet(train, gamma, config, rng):
    """``fit_tarnet`` with every array allocated anew: (flat parameters, one-arm batches)."""
    r_init, r_split, r_train = rng.spawn(3)
    init = mlp_init([train.d, HIDDEN_UNITS], IDENTITY, r_init).arrays()
    for _ in range(2):
        init += mlp_init([HIDDEN_UNITS, HIDDEN_UNITS, 1], IDENTITY, r_init).arrays()
    train_idx, val_idx = holdout_split(train.n, VALIDATION_FRACTION, r_split)
    x_tr, y_tr, w_tr = train.x[train_idx], train.y[train_idx], train.w[train_idx]
    x_val, y_val, w_val = train.x[val_idx], train.y[val_idx], train.w[val_idx]
    one_arm = []

    def forward(p, x, w):
        v = flat_views(p, init)
        z = x @ v[0] + v[1]
        rep = np.maximum(z, 0.0)
        arms = [w == 0, w == 1]
        heads = [v[2:6], v[6:10]]
        acts = [textbook_forward(h[0::2], h[1::2], IDENTITY, rep[rows])
                for h, rows in zip(heads, arms)]
        pred = np.empty(len(w))
        for rows, a in zip(arms, acts):
            pred[rows] = a[-1][:, 0]
        return z, rep, arms, heads, acts, pred

    def grad_fn(p, idx):
        xb, yb = x_tr[idx], y_tr[idx]
        z, rep, arms, heads, acts, pred = forward(p, xb, w_tr[idx])
        g_out = loss_output_grad(SQUARED_ERROR, pred, yb)
        rep_grad = np.zeros_like(rep)
        head_grads = []
        for h, rows, a in zip(heads, arms, acts):
            grads, delta = textbook_backprop(h[0::2], IDENTITY, a, g_out[rows])
            head_grads.append(grads)
            rep_grad[rows] = delta @ h[0].T
        one_arm.append(not all(rows.any() for rows in arms))
        if gamma > 0 and not one_arm[-1]:
            _, m0, m1 = mmd2_linear_with_grad(rep[arms[0]], rep[arms[1]])
            rep_grad[arms[0]] += gamma * m0
            rep_grad[arms[1]] += gamma * m1
        delta = rep_grad * (z > 0)
        return np.concatenate([(xb.T @ delta).ravel(), delta.sum(axis=0)] + head_grads)

    def val_loss_fn(p):
        return loss_value(SQUARED_ERROR, forward(p, x_val, w_val)[-1], y_val)

    best = textbook_minibatch_fit(flatten(init), grad_fn, val_loss_fn, len(train_idx), config,
                                  r_train)
    return best, sum(one_arm)


class TestWorkspaces:
    """Estimators share one workspace, yet return arrays of their own."""

    @pytest.mark.parametrize("kind", range(5), ids=["s", "t", "tarnet", "dr", "x"])
    def test_back_to_back_calls_keep_their_results(self, kind):
        a = random_estimators(3, 140)[kind]
        b = random_estimators(3, 141)[kind]
        x = stream(142).normal(size=(9, 3))
        ws = Workspace()
        for method in ("predict_cate", "gradient"):
            first = getattr(a, method)(x, ws)
            kept = first.copy()
            second = getattr(b, method)(x, ws)
            assert np.array_equal(first, kept)
            assert not np.shares_memory(first, second)
            assert np.array_equal(first, getattr(a, method)(x))

    def test_tarnet_gradient_equals_the_composition_in_separate_buffers(self):
        # gradient() writes head 0's input gradient over the spent trunk
        # representation; the reference keeps every intermediate in its own array.
        est = random_estimators(5, 145)[2]
        x = stream(146).normal(size=(300, 5))
        rep = np.maximum(x @ est.trunk_w + est.trunk_b, 0.0)
        head_grads = [mlp_input_gradient(head, rep) for head in (est.head1, est.head0)]
        expected = ((head_grads[0] - head_grads[1]) * (rep > 0)) @ est.trunk_w.T
        ws = Workspace()
        for _ in range(2):  # the second call runs in the spent buffers of the first
            assert est.gradient(x, ws).tobytes() == expected.tobytes()

    def test_tarnet_fit_gathers_minibatches_from_the_callers_array(self, monkeypatch):
        # The step's input rows come from train.x itself through the training
        # indices; the heads' arm rows ("arm" keys) come from the representation.
        shared = []
        take_rows = learners_mod._take_rows

        def record(source, idx, ws, key="rows"):
            if key == "rows":
                shared.append(np.shares_memory(source, train.x))
            return take_rows(source, idx, ws, key)

        monkeypatch.setattr(learners_mod, "_take_rows", record)
        train, _ = additive_data(60, 147)
        cfg = TrainConfig(batch_size=16, max_epochs=2, patience=2)
        fit_tarnet(train, 2.5, cfg, stream(148))
        assert len(shared) == 2 * 3 and all(shared)  # 42 training rows: 3 batches an epoch

    def test_tarnet_step_takes_one_batch_tall_float_buffer(self, monkeypatch):
        # The representation is the step's one (batch, 100) float64 buffer:
        # its rows take their own gradient once the heads have gathered them.
        # Every 64-row batch holds both arms, so each head's buffers are
        # shorter; a one-arm batch would add that head's keys and fail here.
        batch = 64
        keys = set()
        take = Workspace.take

        def record(ws, key, rows, width, dtype=np.float64):
            if (rows, width, np.dtype(dtype)) == (batch, HIDDEN_UNITS, np.float64):
                keys.add(key)
            return take(ws, key, rows, width, dtype)

        monkeypatch.setattr(Workspace, "take", record)
        train, _ = additive_data(200, 149)  # 140 training rows, 60 validation rows
        cfg = TrainConfig(batch_size=batch, max_epochs=2, patience=2)
        fit_tarnet(train, 2.5, cfg, stream(150))
        assert keys == {"rep"}

    @pytest.mark.parametrize("gamma, batch", [(0.0, 41), (2.5, 41), (2.5, 4)])
    def test_tarnet_fit_matches_textbook_reference_bit_for_bit(self, gamma, batch):
        # 60 rows leave 42 for training: batch 41 ends every epoch on a
        # one-row batch, so one arm is empty; batch 4 gives some by chance.
        train, _ = additive_data(60, 143, noise=0.1)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=batch, max_epochs=4, patience=3)
        est = fit_tarnet(train, gamma, cfg, stream(144))
        best, one_arm_batches = textbook_fit_tarnet(train, gamma, cfg, stream(144))
        assert one_arm_batches > 0
        got = [est.trunk_w, est.trunk_b, *est.head0.arrays(), *est.head1.arrays()]
        assert np.array_equal(flatten(got), best)


class TestDrPseudoOutcome:
    def test_hand_values(self):
        assert dr_pseudo_outcome(3.0, 1, 0.5, 1.0, 2.0) == pytest.approx(3.0)
        assert dr_pseudo_outcome(1.0, 0, 0.5, 1.0, 2.0) == pytest.approx(1.0)

    def test_clip_applies(self):
        wild = dr_pseudo_outcome(1.0, 1, 1e-9, 0.0, 0.0)
        assert wild == pytest.approx(1.0 / 0.01)

    def test_mean_matches_ate_with_oracle_pi_and_wrong_mu(self):
        rng = stream(110)
        n = 10000
        x = rng.normal(size=(n, 3))
        y0 = x[:, 0]
        y1 = x[:, 0] + 1.0 + x[:, 1]
        w = (rng.random(n) < 0.5).astype(int)
        y = np.where(w == 1, y1, y0)
        # Deliberately wrong outcome models; true propensity 0.5.
        mu0 = 0.3 * x[:, 2] - 1.0
        mu1 = -0.5 * x[:, 1] + 2.0
        pseudo = dr_pseudo_outcome(y, w, np.full(n, 0.5), mu0, mu1)
        ate = np.mean(y1 - y0)
        sem = pseudo.std(ddof=1) / np.sqrt(n)
        assert abs(pseudo.mean() - ate) <= 3 * sem


class TestDrLearner:
    def _oracle_nuisances(self):
        # True models for the additive DGP: mu0 = x0, mu1 = x0 + x1, pi = 0.5.
        return NuisanceSet(
            mu0=linear_net([1.0, 0.0, 0.0, 0.0, 0.0]),
            mu1=linear_net([1.0, 1.0, 0.0, 0.0, 0.0]),
            pi=linear_net([0.0] * 5, 0.0, SIGMOID),
        )

    def test_oracle_nuisances_convergence(self):
        train, _ = additive_data(4000, 111)
        est = fit_dr_learner(train, FAST, stream(112), nuisances=self._oracle_nuisances())
        obs, tau = additive_data(1000, 113)
        assert pehe(est.predict_cate(obs.x), tau) < 0.1

    def test_stage2_targets_unbiased_per_bin(self):
        train, tau = additive_data(20000, 114, noise=0.5)
        nuis = self._oracle_nuisances()
        pseudo = dr_pseudo_outcome(
            train.y, train.w, nuis.pi_at(train.x), nuis.mu0_at(train.x), nuis.mu1_at(train.x)
        )
        # tau = x1; bin on x1 and compare bin means.
        bins = np.quantile(train.x[:, 1], np.linspace(0, 1, 9))
        which = np.clip(np.searchsorted(bins, train.x[:, 1]) - 1, 0, 7)
        for b in range(8):
            mask = which == b
            se = pseudo[mask].std(ddof=1) / np.sqrt(mask.sum())
            assert abs(pseudo[mask].mean() - tau[mask].mean()) <= 3 * se + 0.02

    def test_deterministic(self):
        train, _ = additive_data(500, 115)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=256, max_epochs=8, patience=4)
        a = fit_dr_learner(train, cfg, stream(116), cli_first_stage(train, cfg, 116))
        b = fit_dr_learner(train, cfg, stream(116), cli_first_stage(train, cfg, 116))
        x = stream(117).normal(size=(30, 5))
        assert np.array_equal(a.predict_cate(x), b.predict_cate(x))


class TestXLearner:
    def test_constant_heads_any_weighting(self):
        est = XEstimator(
            tau0=linear_net([0.0, 0.0], bias=3.5),
            tau1=linear_net([0.0, 0.0], bias=3.5),
            pi=linear_net([1.0, -2.0], 0.3, SIGMOID),
        )
        x = stream(120).normal(size=(15, 2))
        assert np.allclose(est.predict_cate(x), 3.5)

    def test_half_weighting_hand_value(self):
        est = XEstimator(
            tau0=linear_net([0.0, 0.0], bias=0.0),
            tau1=linear_net([0.0, 0.0], bias=2.0),
            pi=linear_net([0.0, 0.0], 0.0, SIGMOID),
        )
        x = np.zeros((3, 2))
        assert np.allclose(est.predict_cate(x), 1.0)

    def test_convex_combination_bounds(self):
        rng = stream(121)
        est = XEstimator(
            tau0=mlp_init([4, 6, 1], rng=rng),
            tau1=mlp_init([4, 6, 1], rng=rng),
            pi=mlp_init([4, 6, 1], SIGMOID, rng=rng),
        )
        x = rng.normal(size=(100, 4))
        from catebench.nn import mlp_forward

        t0 = mlp_forward(est.tau0, x)[:, 0]
        t1 = mlp_forward(est.tau1, x)[:, 0]
        t = est.predict_cate(x)
        assert np.all(t >= np.minimum(t0, t1) - 1e-12)
        assert np.all(t <= np.maximum(t0, t1) + 1e-12)

    def test_linear_dgp_convergence(self):
        train, _ = additive_data(4000, 122)
        est = fit_x_learner(train, FAST, stream(123), cli_first_stage(train, FAST, 123))
        obs, tau = additive_data(1000, 124)
        assert pehe(est.predict_cate(obs.x), tau) < 0.2


class TestGradients:
    def _estimators(self):
        rng = stream(130)
        d = 4
        ests = [
            SEstimator(mlp_init([d + 1, 7, 5, 1], rng=rng)),
            TEstimator(mlp_init([d, 6, 1], rng=rng), mlp_init([d, 8, 1], rng=rng)),
            TarnetEstimator(
                rng.uniform(-0.5, 0.5, size=(d, 6)),
                rng.uniform(-0.1, 0.1, size=6),
                mlp_init([6, 5, 1], rng=rng),
                mlp_init([6, 5, 1], rng=rng),
                1.0,
            ),
            DrEstimator(mlp_init([d, 9, 1], rng=rng)),
            XEstimator(
                mlp_init([d, 5, 1], rng=rng),
                mlp_init([d, 5, 1], rng=rng),
                mlp_init([d, 5, 1], SIGMOID, rng=rng),
            ),
        ]
        return ests, d

    def test_matches_finite_differences(self):
        ests, d = self._estimators()
        rng = stream(131)
        for est in ests:
            for _ in range(3):
                x = rng.normal(size=d)
                g = est.gradient(x[None])[0]
                fd = fd_scalar_grad(est.predict_cate, x)
                tol = 1e-4 * np.maximum(np.abs(g), np.abs(fd)) + 1e-7
                assert np.all(np.abs(g - fd) <= tol), est.strategy

    def test_frozen_linear_effect_gradient(self):
        est = TEstimator(mu0=linear_net([0.0, 0.0, 0.0]), mu1=linear_net([1.5, -2.0, 0.25]))
        g = est.gradient(np.array([[0.3, -0.7, 4.0]]))[0]
        assert np.allclose(g, [1.5, -2.0, 0.25])

    def test_constant_estimator_zero_gradient(self):
        est = DrEstimator(linear_net([0.0, 0.0], bias=2.0))
        assert np.allclose(est.gradient(np.array([[1.0, 2.0]]))[0], 0.0)

    def test_row_order_invariance(self):
        ests, d = self._estimators()
        x = stream(132).normal(size=(10, d))
        perm = stream(133).permutation(10)
        for est in ests:
            assert np.allclose(est.predict_cate(x)[perm], est.predict_cate(x[perm]))
            assert np.allclose(est.gradient(x)[perm], est.gradient(x[perm]))


class TestSerialization:
    def test_round_trip_every_strategy(self, tmp_path):
        ests, d = TestGradients()._estimators()
        x = stream(134).normal(size=(20, d))
        for i, est in enumerate(ests):
            out = tmp_path / f"est{i}"
            save_estimator(est, out)
            back = load_estimator(out)
            assert back.strategy == est.strategy
            assert np.array_equal(back.predict_cate(x), est.predict_cate(x))
            assert np.array_equal(back.gradient(x), est.gradient(x))

    def test_manifest_fields(self, tmp_path):
        est = DrEstimator(linear_net([1.0, 0.0]))
        dr_manifest = tmp_path / "dr" / "manifest.json"
        save_estimator(est, tmp_path / "dr")
        assert json.loads(dr_manifest.read_text()) == {"strategy": "dr"}
        dr_manifest.write_text('{"strategy": "dr", "clip": 0.01}')  # older DR manifests carry it
        x = stream(135).normal(size=(5, 2))
        assert np.array_equal(load_estimator(tmp_path / "dr").predict_cate(x), est.predict_cate(x))

        x_est = TestGradients()._estimators()[0][-1]
        x_manifest = tmp_path / "x" / "manifest.json"
        save_estimator(x_est, tmp_path / "x")
        assert json.loads(x_manifest.read_text()) == {"strategy": "x"}
        x_manifest.write_text('{"strategy": "x", "clip": 0.01}')  # older X manifests carry it
        x = stream(135).normal(size=(5, 4))
        back = load_estimator(tmp_path / "x")
        assert np.array_equal(back.predict_cate(x), x_est.predict_cate(x))
        assert back.pi.output_activation == SIGMOID

    def test_manifest_bytes(self, tmp_path):
        cfr_est = TestGradients()._estimators()[0][2]
        save_estimator(cfr_est, tmp_path)
        expected = {"strategy": "cfrnet", "gamma": cfr_est.gamma}
        assert (tmp_path / "manifest.json").read_text() == json.dumps(expected, indent=2) + "\n"

    def test_weight_entry_names_and_order(self, tmp_path):
        def net(name, layers):
            return [f"{name}_{p}{k}" for k in range(layers) for p in "wb"]

        expected = {
            "s": net("net", 3),
            "t": net("mu0", 2) + net("mu1", 2),
            "cfrnet": ["trunk_w", "trunk_b"] + net("head0", 2) + net("head1", 2),
            "dr": net("effect", 2),
            "x": net("tau0", 2) + net("tau1", 2) + net("pi", 2),
        }
        for est in TestGradients()._estimators()[0]:
            save_estimator(est, tmp_path / est.strategy)
            with np.load(tmp_path / est.strategy / "weights.npz") as blob:
                assert blob.files == expected[est.strategy]

    @pytest.mark.parametrize(
        "case, file, key",
        [
            ("manifest not JSON", "manifest.json", None),
            ("non-object manifest", "manifest.json", "strategy"),
            ("missing strategy", "manifest.json", "strategy"),
            ("unknown strategy", "manifest.json", "strategy"),
            ("missing net entries", "weights.npz", "mu1_w0"),
            ("missing trunk_w", "weights.npz", "trunk_w"),
            ("missing gamma", "manifest.json", "gamma"),
            ("truncated layer", "weights.npz", "mu0_w1"),
            ("bias width", "weights.npz", "mu1_b0"),
            ("two outputs", "weights.npz", "mu1_w1"),
            ("trunk width", "weights.npz", "head0_w0"),
            ("gamma not a number", "manifest.json", "gamma"),
            ("not an npz archive", "weights.npz", None),
            ("NaN weight", "weights.npz", "mu1_w0"),
            ("infinite trunk bias", "weights.npz", "trunk_b"),
            ("cfrnet gamma 0", "manifest.json", "gamma"),
            ("cfrnet negative gamma", "manifest.json", "gamma"),
            ("cfrnet NaN gamma", "manifest.json", "gamma"),
            ("tarnet gamma 5", "manifest.json", "gamma"),
        ],
    )
    def test_malformed_directory_names_file_and_key(self, tmp_path, case, file, key):
        t_est, cfr_est = TestGradients()._estimators()[0][1:3]
        model = tmp_path / "model"
        cfr_cases = ("missing gamma", "trunk width", "gamma not a number", "infinite trunk bias")
        gamma_cases = {  # a weight that contradicts the strategy
            "cfrnet gamma 0": '{"strategy": "cfrnet", "gamma": 0}',
            "cfrnet negative gamma": '{"strategy": "cfrnet", "gamma": -1.0}',
            "cfrnet NaN gamma": '{"strategy": "cfrnet", "gamma": NaN}',
            "tarnet gamma 5": '{"strategy": "tarnet", "gamma": 5.0}',
        }
        save_estimator(cfr_est if case in cfr_cases or case in gamma_cases else t_est, model)
        manifest = model / "manifest.json"

        def edit_weights(changes):
            with np.load(model / "weights.npz") as blob:
                arrays = {k: blob[k] for k in blob.files}
            np.savez(model / "weights.npz", **{**arrays, **changes(arrays)})

        if case == "manifest not JSON":
            manifest.write_text(manifest.read_text()[:-5])
        elif case == "non-object manifest":
            manifest.write_text("[]")
        elif case == "missing strategy":
            manifest.write_text("{}")
        elif case == "unknown strategy":
            manifest.write_text('{"strategy": "q"}')
        elif case == "missing net entries":
            with np.load(model / "weights.npz") as blob:
                kept = {k: blob[k] for k in blob.files if not k.startswith("mu1_")}
            np.savez(model / "weights.npz", **kept)
        elif case == "missing trunk_w":
            manifest.write_text('{"strategy": "tarnet", "gamma": 0.0}')
        elif case == "missing gamma":
            manifest.write_text('{"strategy": "cfrnet"}')
        elif case == "truncated layer":  # mu0_w1 is (6, 1)
            edit_weights(lambda a: {"mu0_w1": a["mu0_w1"][:5]})
        elif case == "bias width":
            edit_weights(lambda a: {"mu1_b0": a["mu1_b0"][:-1]})
        elif case == "two outputs":
            edit_weights(lambda a: {"mu1_w1": np.hstack([a["mu1_w1"]] * 2), "mu1_b1": np.zeros(2)})
        elif case == "trunk width":  # the heads read 6 trunk units
            edit_weights(lambda a: {"trunk_w": a["trunk_w"][:, :5], "trunk_b": a["trunk_b"][:5]})
        elif case == "gamma not a number":
            manifest.write_text('{"strategy": "cfrnet", "gamma": "abc"}')
        elif case in gamma_cases:
            manifest.write_text(gamma_cases[case])
        elif case in ("NaN weight", "infinite trunk bias"):  # one entry of the array
            key, value = ("mu1_w0", np.nan) if case == "NaN weight" else ("trunk_b", np.inf)
            with np.load(model / "weights.npz") as blob:
                bad = blob[key].copy()
            bad.flat[0] = value
            edit_weights(lambda a: {key: bad})
        else:
            (model / "weights.npz").write_text("garbage")
        with pytest.raises(ParseError) as err:
            load_estimator(model)
        assert f"{model / file}: " in str(err.value)
        assert key is None or f"'{key}'" in str(err.value)
