import json
import re
from dataclasses import replace

import numpy as np
import pytest

from catebench.dgp import (
    NONCONFOUNDED,
    NONLINEARITIES,
    NONLINEARITY_NAMES,
    PREDICTIVE_CONFOUNDING,
    PROGNOSTIC_CONFOUNDING,
    PROPENSITY_KINDS,
    UNIFORM,
    FeatureIndexSets,
    ObservedData,
    OutcomeModel,
    PropensitySpec,
    eval_components,
    generate_dataset,
    load_covariates_csv,
    load_dataset,
    load_observed,
    pick_irrelevant_index,
    propensity_scores,
    sample_feature_sets,
    sample_outcome_model,
    save_dataset,
    synth_covariates,
    train_test_split,
    true_cate,
    true_cate_gradient,
)
from catebench.errors import (
    InvalidConfigError,
    NormalizationError,
    NumericError,
    ParseError,
    ShapeError,
)
from catebench.harness import build_dataset, experiment_preset
from catebench.nn import sigmoid
from catebench.rng import stream


def _model(alpha_prog, alpha_0, alpha_1, chi="abs", omega_nl=0.0, omega_pred=1.0):
    return OutcomeModel(alpha_prog, alpha_0, alpha_1, chi, omega_nl, omega_pred)


def _sets(prog, i0, i1):
    return FeatureIndexSets(np.array(prog), np.array(i0), np.array(i1))


class TestLoadCovariatesCsv:
    def test_minmax_maps_to_unit_interval(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("a,b,c,d\n0,10,1,1\n5,5,2,0\n10,0,3,2\n")
        cov = load_covariates_csv(p, normalize="minmax")
        assert np.allclose(cov.x[:, 0], [0.0, 0.5, 1.0])
        assert np.allclose(cov.x[:, 1], [1.0, 0.5, 0.0])
        assert cov.feature_names == ["a", "b", "c", "d"]

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,2,3,4\n5,6,7,8\n")
        with pytest.raises(ParseError):
            load_covariates_csv(p)

    def test_zscore_population_std(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("a,b,c,d\n1,0,0,1\n2,1,0,1\n3,2,1,0\n")
        cov = load_covariates_csv(p, normalize="zscore")
        assert np.allclose(cov.x[:, 0], [-1.224744871, 0.0, 1.224744871], atol=1e-8)

    def test_constant_column_under_zscore_rejected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("a,b,c,d\n1,7,3,4\n2,7,5,6\n")
        with pytest.raises(NormalizationError):
            load_covariates_csv(p, normalize="zscore")


class TestSynthCovariates:
    def test_uncorrelated(self):
        cov = synth_covariates(10000, 6, 0.0, rng=stream(1))
        corr = np.corrcoef(cov.x, rowvar=False)
        off = corr[~np.eye(6, dtype=bool)]
        assert np.abs(off).max() < 0.05

    def test_correlated(self):
        cov = synth_covariates(10000, 6, 0.5, rng=stream(2))
        corr = np.corrcoef(cov.x, rowvar=False)
        off = corr[~np.eye(6, dtype=bool)]
        assert np.abs(off - 0.5).max() < 0.05

    def test_deterministic(self):
        a = synth_covariates(50, 5, 0.3, rng=stream(3))
        b = synth_covariates(50, 5, 0.3, rng=stream(3))
        assert np.array_equal(a.x, b.x)

    def test_bad_inputs(self):
        with pytest.raises(InvalidConfigError):
            synth_covariates(10, 3, rng=stream(0))
        with pytest.raises(InvalidConfigError):
            synth_covariates(10, 5, pairwise_correlation=1.0, rng=stream(0))


class TestSampleFeatureSets:
    def test_disjoint_union(self):
        sets = sample_feature_sets(10, 2, stream(4))
        assert len(sets.prognostic) == 2
        assert len(sets.all_relevant) == 6

    def test_tight_dimension_rejected(self):
        with pytest.raises(InvalidConfigError):
            sample_feature_sets(6, 2, stream(0))  # needs strict d > 3 n_i

    def test_uniform_membership(self):
        hits = np.zeros(10)
        for k in range(10000):
            sets = sample_feature_sets(10, 1, stream(5, k))
            hits[sets.prognostic[0]] += 1
        assert np.abs(hits / 10000 - 0.1).max() < 0.02


class TestSampleOutcomeModel:
    def test_linear_when_omega_nl_zero(self):
        model = sample_outcome_model(2, 0.0, 1.0, stream(6))
        sets = _sets([0, 1], [2, 3], [4, 5])
        x = stream(7).normal(size=(1, 8))
        mu, f0, f1 = eval_components(model, sets, x)
        assert mu == pytest.approx(x[:, [0, 1]] @ model.alpha_prog)
        assert f0 == pytest.approx(x[:, [2, 3]] @ model.alpha_0)
        assert f1 == pytest.approx(x[:, [4, 5]] @ model.alpha_1)

    def test_deterministic(self):
        a = sample_outcome_model(3, 0.5, 2.0, stream(8))
        b = sample_outcome_model(3, 0.5, 2.0, stream(8))
        assert np.array_equal(a.alpha_prog, b.alpha_prog)
        assert a.nonlinearity == b.nonlinearity

    def test_nonlinearity_frequencies(self):
        counts = {name: 0 for name in NONLINEARITY_NAMES}
        n = 10000
        for k in range(n):
            counts[sample_outcome_model(1, 1.0, 1.0, stream(9, k)).nonlinearity] += 1
        for name in NONLINEARITY_NAMES:
            assert abs(counts[name] / n - 0.1) < 0.02

    def test_weights_in_range(self):
        model = sample_outcome_model(50, 0.0, 1.0, stream(10))
        for v in (model.alpha_prog, model.alpha_0, model.alpha_1):
            assert np.all(np.abs(v) <= 1.0)


class TestEvalComponents:
    def test_linear_hand_value(self):
        model = _model([1.0, -1.0], [1.0, 1.0], [1.0, 1.0])
        sets = _sets([2, 3], [0, 1], [4, 5])
        x = np.array([[9.0, 9.0, 0.0, 1.0, 9.0, 9.0]])
        mu, _, _ = eval_components(model, sets, x)
        assert mu == pytest.approx([-1.0])

    def test_pure_nonlinearity_abs(self):
        model = _model([1.0], [1.0], [1.0], chi="abs", omega_nl=1.0)
        sets = _sets([0], [1], [2])
        x = np.array([[-2.0, 0.0, 0.0, 0.0]])
        mu, _, _ = eval_components(model, sets, x)
        assert mu == pytest.approx([2.0])

    def test_half_mix_cos_at_zero(self):
        model = _model([1.0], [1.0], [1.0], chi="cos", omega_nl=0.5)
        sets = _sets([0], [1], [2])
        x = np.zeros((1, 4))
        mu, _, _ = eval_components(model, sets, x)
        assert mu == pytest.approx([0.5])

    def test_function_set_matches_definitions(self):
        s = np.linspace(-2.0, 2.0, 41)
        expected = {
            "abs": np.abs(s),
            "gaussian": np.exp(-(s**2)),
            "inverse_quadratic": 1.0 / (1.0 + s**2),
            "cos": np.cos(s),
            "sin": np.sin(s),
            "arctan": np.arctan(s),
            "tanh": np.tanh(s),
            "log_quadratic": np.log(1.0 + s**2),
            "sqrt_quadratic": np.sqrt(1.0 + s**2),
            "cosh": np.cosh(s),
        }
        assert set(NONLINEARITY_NAMES) == set(expected)
        for name, vals in expected.items():
            fn, dfn = NONLINEARITIES[name]
            assert np.allclose(fn(s), vals)
            h = 1e-6  # derivatives power the oracle estimator, check them too
            fd = (fn(s + h) - fn(s - h)) / (2 * h)
            assert np.allclose(dfn(s), fd, atol=1e-6)

    def test_index_out_of_range(self):
        model = _model([1.0], [1.0], [1.0])
        sets = _sets([0], [1], [9])
        with pytest.raises(ShapeError):
            eval_components(model, sets, np.zeros((1, 4)))

    def test_single_unit_rejected(self):
        model = _model([1.0], [1.0], [1.0])
        with pytest.raises(ShapeError, match=r"an \(N, d\) batch"):
            eval_components(model, _sets([0], [1], [2]), np.zeros(4))


class TestTrueCateGradient:
    def test_matches_finite_differences(self):
        model = _model([0.3, -0.8], [0.5, 0.5], [-0.2, 0.9], chi="sin", omega_nl=0.7)
        sets = _sets([0, 1], [2, 3], [4, 5])
        x = stream(11).normal(size=(3, 7))
        grad = true_cate_gradient(model, sets, x)
        h = 1e-6
        for r in range(3):
            for c in range(7):
                hi, lo = x.copy(), x.copy()
                hi[r, c] += h
                lo[r, c] -= h
                fd = (true_cate(model, sets, hi)[r] - true_cate(model, sets, lo)[r]) / (2 * h)
                assert grad[r, c] == pytest.approx(fd, abs=1e-6)


class TestPropensityScores:
    def _setup(self):
        cov = synth_covariates(500, 8, rng=stream(12))
        sets = sample_feature_sets(8, 2, stream(13))
        model = sample_outcome_model(2, 0.0, 1.0, stream(14))
        return cov, sets, model

    def test_uniform_returns_half(self):
        cov, sets, model = self._setup()
        pi = propensity_scores(PropensitySpec(UNIFORM), model, sets, cov.x)
        assert np.all(pi == 0.5)

    def test_zero_scale_gives_half_everywhere(self):
        cov, sets, model = self._setup()
        for kind in (PREDICTIVE_CONFOUNDING, PROGNOSTIC_CONFOUNDING):
            pi = propensity_scores(PropensitySpec(kind, 0.0), model, sets, cov.x)
            assert np.all(pi == 0.5)

    def test_sigmoid_of_scaled_zscore(self):
        cov, sets, model = self._setup()
        spec = PropensitySpec(PROGNOSTIC_CONFOUNDING, 2.0)
        pi = propensity_scores(spec, model, sets, cov.x)
        mu, _, _ = eval_components(model, sets, cov.x)
        z = (mu - mu.mean()) / mu.std()  # the block's own z-score
        assert np.allclose(pi, 1.0 / (1.0 + np.exp(-2.0 * z)), rtol=0.0, atol=1e-12)

    def test_training_scores_center_near_half(self):
        cov, sets, model = self._setup()
        for omega in (0.5, 1.0, 4.0):
            spec = PropensitySpec(PREDICTIVE_CONFOUNDING, omega)
            pi = propensity_scores(spec, model, sets, cov.x)
            assert abs(pi.mean() - 0.5) < 0.05

    def test_constant_signal_rejected(self):
        cov, sets, model = self._setup()
        x = cov.x.copy()
        x[:, sets.prognostic] = 0.0
        spec = PropensitySpec(PROGNOSTIC_CONFOUNDING, 1.0)
        with pytest.raises(NormalizationError):
            propensity_scores(spec, model, sets, x)

    def test_constant_signal_names_kind_and_column(self):
        cov, sets, model = self._setup()
        idx = pick_irrelevant_index(8, sets, stream(15))
        x = cov.x.copy()
        x[:, idx] = 2.0
        spec = PropensitySpec(NONCONFOUNDED, 1.0, irrelevant_index=idx)
        with pytest.raises(NormalizationError) as err:
            propensity_scores(spec, model, sets, x)
        assert str(err.value) == (f"nonconfounded propensity signal (column {idx}) is "
                                  "constant over the assigned units")

    def test_nonconfounded_uses_single_column(self):
        cov, sets, model = self._setup()
        idx = pick_irrelevant_index(8, sets, stream(15))
        assert idx not in set(sets.all_relevant.tolist())
        spec = PropensitySpec(NONCONFOUNDED, 1.5, irrelevant_index=idx)
        pi = propensity_scores(spec, model, sets, cov.x)
        col = cov.x[:, idx]
        z = (col - col.mean()) / col.std()
        assert np.allclose(pi, 1.0 / (1.0 + np.exp(-1.5 * z)))

    def test_nonconfounded_requires_index(self):
        with pytest.raises(InvalidConfigError):
            PropensitySpec(NONCONFOUNDED, 1.0)

    def test_irrelevant_index_must_be_irrelevant(self):
        cov, sets, model = self._setup()
        spec = PropensitySpec(NONCONFOUNDED, 1.0, irrelevant_index=int(sets.prognostic[0]))
        with pytest.raises(InvalidConfigError):
            propensity_scores(spec, model, sets, cov.x)

    def test_design_must_fit_training_and_query_widths(self):
        x = stream(15).normal(size=(50, 8))
        model = _model([0.5, 0.5], [0.5, 0.5], [0.5, 0.5])
        spec = PropensitySpec(NONCONFOUNDED, 1.0, irrelevant_index=7)
        message = "irrelevant_index 7 is not one of the 7 features outside the driver sets"
        with pytest.raises(InvalidConfigError, match=message):
            propensity_scores(spec, model, _SETS, x[:, :7])


class TestGenerateDataset:
    def _gen(self, n=200, sigma=0.0, spec=None, omega_pred=1.0, seed=16):
        cov = synth_covariates(n, 10, rng=stream(seed))
        sets = sample_feature_sets(10, 2, stream(seed, 1))
        model = sample_outcome_model(2, 0.0, omega_pred, stream(seed, 2))
        spec = spec or PropensitySpec(UNIFORM)
        ds = generate_dataset(cov, sets, model, spec, sigma, stream(seed, 3))
        return ds

    def test_noiseless_consistency(self):
        ds = self._gen(sigma=0.0)
        t = ds.truth
        assert np.allclose(t.tau, t.y1 - t.y0)
        picked = np.where(ds.w == 1, t.y1, t.y0)
        assert np.array_equal(ds.y, picked)

    def test_zero_predictive_scale_kills_effect(self):
        ds = self._gen(omega_pred=0.0)
        assert np.all(ds.truth.tau == 0.0)

    def test_uniform_treated_fraction(self):
        ds = self._gen(n=10000)
        assert abs(ds.w.mean() - 0.5) < 0.02

    def test_noise_enters_observed_outcome_only(self):
        ds = self._gen(sigma=0.5)
        t = ds.truth
        picked = np.where(ds.w == 1, t.y1, t.y0)
        resid = ds.y - picked
        assert 0.4 < resid.std() < 0.6
        assert np.allclose(t.tau, t.y1 - t.y0)

    def test_positivity(self):
        spec = PropensitySpec(PREDICTIVE_CONFOUNDING, 4.0)
        ds = self._gen(n=5000, spec=spec)
        assert np.all(ds.truth.pi > 0.0) and np.all(ds.truth.pi < 1.0)

    @pytest.mark.parametrize("kind", PROPENSITY_KINDS)
    def test_confounding_preset_keeps_pi_inside_the_unit_interval(self, kind):
        # float64 rounds sigmoid(s) to 1.0 from s = 53 ln 2; the preset's scales stay below it.
        below, above = sigmoid(np.array([36.73, 36.75]))
        assert below < 1.0 and above == 1.0
        config = replace(experiment_preset("confounding"), propensity_kind=kind)
        for value in config.knob_grid:
            pi = build_dataset(config, value, 0).truth.pi
            assert np.all(pi > 0.0) and np.all(pi < 1.0)

    @pytest.mark.parametrize("kind, units", [
        (PREDICTIVE_CONFOUNDING, 158), (PROGNOSTIC_CONFOUNDING, 170), (NONCONFOUNDED, 154),
    ])
    def test_propensity_of_exactly_one_fails_loudly(self, kind, units):
        config = replace(experiment_preset("confounding"), propensity_kind=kind)
        message = (f"positivity fails at omega_pi 20.0: {units} of 5000 units have a propensity "
                   "of exactly 0 or 1")
        with pytest.raises(NumericError, match=re.escape(message)):
            build_dataset(config, 20.0, 0)

    def test_predictive_only_dependence(self):
        ds = self._gen()
        t = ds.truth
        outside = np.setdiff1d(np.arange(10), t.sets.predictive)
        x2 = ds.covariates.x.copy()
        x2[:, outside] += stream(17).normal(size=(ds.n, len(outside)))
        tau2 = true_cate(t.model, t.sets, x2)
        assert np.allclose(tau2, t.tau)

    def test_assignment_depends_on_x_only_through_pi(self):
        # Fresh assignment draws with the same propensities should match the
        # bucket propensity within binomial error.
        spec = PropensitySpec(PROGNOSTIC_CONFOUNDING, 2.0)
        ds = self._gen(n=20000, spec=spec, seed=18)
        pi = ds.truth.pi
        edges = np.quantile(pi, np.linspace(0, 1, 11))
        which = np.clip(np.searchsorted(edges, pi, side="right") - 1, 0, 9)
        for b in range(10):
            mask = which == b
            n_b = int(mask.sum())
            if n_b < 100:
                continue
            p_b = pi[mask].mean()
            se = np.sqrt(p_b * (1 - p_b) / n_b)
            assert abs(ds.w[mask].mean() - p_b) <= 3 * se + 1e-9

    def test_deterministic(self):
        a = self._gen(seed=19)
        b = self._gen(seed=19)
        assert np.array_equal(a.w, b.w) and np.array_equal(a.y, b.y)

    def test_negative_sigma_rejected(self):
        cov = synth_covariates(20, 10, rng=stream(0))
        sets = sample_feature_sets(10, 2, stream(1))
        model = sample_outcome_model(2, 0.0, 1.0, stream(2))
        with pytest.raises(InvalidConfigError):
            generate_dataset(cov, sets, model, PropensitySpec(UNIFORM), -0.1, stream(3))

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_nonfinite_sigma_rejected(self, sigma):
        cov = synth_covariates(20, 10, rng=stream(0))
        sets = sample_feature_sets(10, 2, stream(1))
        model = sample_outcome_model(2, 0.0, 1.0, stream(2))
        with pytest.raises(InvalidConfigError, match="noise sigma must be finite and >= 0"):
            generate_dataset(cov, sets, model, PropensitySpec(UNIFORM), sigma, stream(3))

    def test_weights_must_match_their_index_sets(self):
        cov = synth_covariates(20, 10, rng=stream(0))
        sets = sample_feature_sets(10, 2, stream(1))
        model = sample_outcome_model(2, 0.0, 1.0, stream(2))
        short = OutcomeModel(model.alpha_prog, model.alpha_0[:1], model.alpha_1,
                             model.nonlinearity, model.omega_nl, model.omega_pred)
        with pytest.raises(InvalidConfigError, match=r"alpha_0 has shape \(1,\), but its index"):
            generate_dataset(cov, sets, short, PropensitySpec(UNIFORM), 0.1, stream(3))


# Designs the sidecar reader rejects, as (index sets, irrelevant index) over a valid
# 10-feature design; the generator must reject each with the reader's message.
_SETS = _sets([0, 1], [2, 3], [4, 5])
_OUTSIDE = " is not one of the 10 features outside the driver sets"
_MALFORMED_DESIGNS = {
    "i_1 -1": (_sets([0, 1], [2, 3], [4, -1]), None, "i_1 holds index -1, outside the 10 features"),
    "i_1 d": (_sets([0, 1], [2, 3], [4, 10]), None, "i_1 holds index 10, outside the 10 features"),
    "irrelevant 99": (_SETS, 99, "irrelevant_index 99" + _OUTSIDE),
    "irrelevant driver": (_SETS, 2, "irrelevant_index 2" + _OUTSIDE),
    "irrelevant True": (_SETS, True, "irrelevant_index True" + _OUTSIDE),
    "irrelevant np.int64": (_SETS, np.int64(7), f"irrelevant_index {np.int64(7)!r}" + _OUTSIDE),
}


class TestOneDesignRule:
    """``generate_dataset``, ``propensity_scores`` and ``load_meta`` reject the same designs."""

    @pytest.mark.parametrize("kind", PROPENSITY_KINDS)
    @pytest.mark.parametrize("case", list(_MALFORMED_DESIGNS))
    def test_generator_rejects_what_the_reader_rejects(self, tmp_path, case, kind):
        sets, irrelevant, message = _MALFORMED_DESIGNS[case]
        if irrelevant is None and kind == NONCONFOUNDED:
            irrelevant = 8  # valid, so only the index sets are at fault
        spec = PropensitySpec(kind, 1.0, irrelevant)
        cov = synth_covariates(20, 10, rng=stream(0))
        model = sample_outcome_model(2, 0.0, 1.0, stream(2))
        with pytest.raises(InvalidConfigError) as generated:
            generate_dataset(cov, sets, model, spec, 0.1, stream(3))
        assert str(generated.value) == message
        with pytest.raises(InvalidConfigError) as scored:
            propensity_scores(spec, model, sets, cov.x)
        assert str(scored.value) == message
        if type(spec.irrelevant_index) is np.int64:
            return  # JSON has no numpy integers; the reader sees a plain int
        # The same design written into a valid sidecar fails to load with that message.
        valid = PropensitySpec(kind, 1.0, 8 if kind == NONCONFOUNDED else None)
        ds = generate_dataset(cov, _SETS, model, valid, 0.1, stream(3))
        paths = [tmp_path / n for n in ("data.csv", "truth.csv", "meta.json")]
        save_dataset(ds, *paths)
        meta = json.loads(paths[2].read_text())
        meta["i_1"] = sets.predictive_1.tolist()
        meta["propensity"]["irrelevant_index"] = spec.irrelevant_index
        paths[2].write_text(json.dumps(meta))
        with pytest.raises(ParseError) as read:
            load_dataset(*paths)
        assert str(read.value) == f"{paths[2]}: malformed sidecar: {message}"


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
class TestNonfiniteScalesRejected:
    def test_omega_pred(self, value):
        with pytest.raises(InvalidConfigError, match="omega_pred must be finite and >= 0"):
            _model([0.5], [0.5], [0.5], omega_pred=value)

    def test_omega_pi(self, value):
        for kind in (PREDICTIVE_CONFOUNDING, PROGNOSTIC_CONFOUNDING):
            with pytest.raises(InvalidConfigError, match="omega_pi must be finite and >= 0"):
                PropensitySpec(kind, value)


class TestObservedData:
    _X, _W, _Y = np.zeros((3, 4)), np.array([0, 1, 1]), np.zeros(3)

    def test_valid_arrays_kept(self):
        obs = ObservedData(self._X, self._W, self._Y)
        assert obs.x is self._X and obs.w is self._W and obs.y is self._Y
        assert (obs.n, obs.d) == (3, 4)

    @pytest.mark.parametrize("field, value, error", [
        ("x", np.zeros(3), ShapeError),
        ("x", np.zeros((3, 4, 1)), ShapeError),
        ("w", np.array([0, 1]), ShapeError),
        ("w", np.array([[0], [1], [1]]), ShapeError),
        ("y", np.zeros(4), ShapeError),
        ("w", np.array([0, 2, 1]), InvalidConfigError),
        ("w", np.array([0.0, 0.5, 1.0]), InvalidConfigError),
        ("x", np.where(np.eye(3, 4) > 0, np.nan, 0.0), NumericError),
        ("y", np.array([0.0, np.inf, 1.0]), NumericError),
    ])
    def test_rejects_bad_arrays(self, field, value, error):
        arrays = {"x": self._X, "w": self._W, "y": self._Y, field: value}
        with pytest.raises(error):
            ObservedData(**arrays)


class TestTrainTestSplit:
    def _ds(self):
        cov = synth_covariates(100, 8, rng=stream(20))
        sets = sample_feature_sets(8, 2, stream(21))
        model = sample_outcome_model(2, 0.0, 1.0, stream(22))
        return generate_dataset(cov, sets, model, PropensitySpec(UNIFORM), 0.1, stream(23))

    def test_sizes(self):
        tr, te = train_test_split(self._ds(), 0.2, stream(24))
        assert tr.n == 80 and te.n == 20

    def test_partition(self):
        tr, te = train_test_split(self._ds(), 0.2, stream(25))
        union = np.concatenate([tr.unit_ids, te.unit_ids])
        assert sorted(union.tolist()) == list(range(100))

    def test_truth_rides_along(self):
        ds = self._ds()
        tr, te = train_test_split(ds, 0.2, stream(26))
        for part in (tr, te):
            assert np.allclose(part.truth.tau, part.truth.y1 - part.truth.y0)
            orig = ds.truth.tau[part.unit_ids]
            assert np.array_equal(part.truth.tau, orig)

    def test_deterministic(self):
        ds = self._ds()
        a = train_test_split(ds, 0.2, stream(27))
        b = train_test_split(ds, 0.2, stream(27))
        assert np.array_equal(a[0].unit_ids, b[0].unit_ids)

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidConfigError):
            train_test_split(self._ds(), 0.001, stream(28))


class TestPersistence:
    @pytest.mark.parametrize("kind", PROPENSITY_KINDS)
    def test_round_trip_bit_exact(self, tmp_path, kind):
        cov = synth_covariates(30, 8, rng=stream(29))
        sets = sample_feature_sets(8, 2, stream(30))
        model = sample_outcome_model(2, 0.25, 0.5, stream(31))
        irrelevant = pick_irrelevant_index(8, sets, stream(33)) if kind == NONCONFOUNDED else None
        spec = PropensitySpec(kind, 1.0, irrelevant)
        ds = generate_dataset(cov, sets, model, spec, 0.1, stream(32))
        paths = [tmp_path / n for n in ("data.csv", "truth.csv", "meta.json")]
        save_dataset(ds, *paths)
        back = load_dataset(*paths)
        assert np.array_equal(back.covariates.x, ds.covariates.x)
        assert np.array_equal(back.w, ds.w)
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.truth.tau, ds.truth.tau)
        assert np.array_equal(back.truth.pi, ds.truth.pi)
        assert np.array_equal(back.truth.sets.prognostic, sets.prognostic)
        assert back.truth.model.nonlinearity == model.nonlinearity
        assert back.truth.propensity == spec

    def test_load_observed_only(self, tmp_path):
        ds = TestTrainTestSplit()._ds()
        paths = [tmp_path / n for n in ("data.csv", "truth.csv", "meta.json")]
        save_dataset(ds, *paths)
        obs, names, ids = load_observed(paths[0])
        assert np.array_equal(obs.x, ds.covariates.x)
        assert np.array_equal(obs.w, ds.w)
        assert names == [f"x_{j}" for j in range(8)]

    @pytest.mark.parametrize("w, y", [("0.5", "1.0"), ("2", "1.0"), ("1", "nan")])
    def test_load_observed_rejects_bad_row(self, tmp_path, w, y):
        p = tmp_path / "data.csv"
        p.write_text(f"unit_id,w,y,x_0\n0,1,0.5,1.0\n1,0,0.2,1.5\n2,{w},{y},2.0\n")
        with pytest.raises(ParseError) as err:
            load_observed(p)
        assert err.value.row == 3 and "row 3" in str(err.value)
