import json
import re
from dataclasses import replace

import numpy as np
import pytest

from catebench.dgp import PREDICTIVE_CONFOUNDING
from catebench.errors import InvalidConfigError, NormalizationError, NumericError, ParseError
from catebench.harness import (
    MIN_SYNTH_N,
    TEST_FRACTION,
    ExperimentConfig,
    ResultRecord,
    aggregate,
    build_cell_dataset,
    emit_csv,
    experiment_preset,
    fit_cell,
    fixed_knob_value,
    load_results,
    run_cell,
    run_experiment,
    score_cell,
)
from catebench.learners import MIN_ARM_UNITS, fit_t_learner, parse_learner
from catebench.nn import VALIDATION_FRACTION, TrainConfig, holdout_count, splits
from helpers import constant_tail_csv

TINY_TRAIN = TrainConfig(learning_rate=1e-3, batch_size=128, max_epochs=3, patience=2)


def _untimed(records):
    return [replace(r, wall_ms=0.0) for r in records]


def tiny_config(**overrides):
    base = dict(
        synth_n=240,
        synth_d=10,
        knob="predictive_scale",
        knob_grid=(0.0, 1.0),
        sigma=0.1,
        learners=("t", "s"),
        seeds=1,
        attribution_cap=50,
        train=TINY_TRAIN,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture()
def fit_count(monkeypatch):
    """One entry per network fitted, counted through both ``minibatch_fit`` references."""
    import catebench.learners as learners_mod
    import catebench.nn as nn_mod

    calls = []
    original = nn_mod.minibatch_fit

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(nn_mod, "minibatch_fit", counted)
    monkeypatch.setattr(learners_mod, "minibatch_fit", counted)
    return calls


class TestExperimentConfig:
    def test_round_trip_via_dict(self):
        text = """{
            "synth_n": 240, "synth_d": 10, "knob": "predictive_scale",
            "knob_grid": [0.0, 1.0], "sigma": 0.1, "learners": ["t", "s"],
            "seeds": 1, "attribution_cap": 50,
            "train": {"learning_rate": 0.001, "batch_size": 128, "max_epochs": 3, "patience": 2}
        }"""
        assert ExperimentConfig.from_dict(json.loads(text)) == tiny_config()

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            tiny_config(knob="nope")
        with pytest.raises(InvalidConfigError):
            tiny_config(knob_grid=())
        with pytest.raises(InvalidConfigError):
            tiny_config(seeds=0)
        with pytest.raises(InvalidConfigError):
            tiny_config(knob="nonlinearity_scale", knob_grid=(0.0, 2.0))
        with pytest.raises(InvalidConfigError):
            tiny_config(learners=("qlearner",))
        with pytest.raises(InvalidConfigError, match="learner list must be nonempty"):
            tiny_config(learners=())
        with pytest.raises(InvalidConfigError):
            ExperimentConfig.from_dict({"bogus_field": 1})

    @pytest.mark.parametrize(
        "field, value",
        [("learners", ("s", "s")), ("knob_grid", (1.0, 1.0)), ("knob_grid", (0.0, -0.0))],
    )
    def test_repeats_rejected(self, field, value):
        with pytest.raises(InvalidConfigError, match="repeat"):
            tiny_config(**{field: value})
        # labels compare as written: two spellings of one weight are two learners
        assert tiny_config(learners=("cfrnet", "cfrnet:1")).learners == ("cfrnet", "cfrnet:1")

    def test_from_dict_takes_json_numbers(self):
        cfg = ExperimentConfig.from_dict(
            {"knob_grid": [0, 2], "sigma": 1, "seeds": 2.0, "train": {"max_epochs": 150.0}}
        )
        assert cfg.knob_grid == (0.0, 2.0) and cfg.sigma == 1
        assert type(cfg.seeds) is int and type(cfg.train.max_epochs) is int

    @pytest.mark.parametrize("field, value", [("attribution_cap", 0), ("attribution_cap", -5)])
    def test_attribution_values_below_one_rejected(self, field, value):
        with pytest.raises(InvalidConfigError, match="the attribution row cap must be >= 1"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("key", ["ig_steps", "shapley_permutations"])
    def test_attribution_schedule_keys_unknown(self, key):
        # 50 IG steps and 100 * d Shapley orderings are constants, not settings.
        with pytest.raises(InvalidConfigError, match=f"unknown config key '{key}'"):
            ExperimentConfig.from_dict({key: 50})

    @pytest.mark.parametrize(
        "field, message",
        [("covariates_normalize", "unknown normalization 'bogus'"),
         ("propensity_kind", "unknown propensity kind 'bogus'")],
    )
    def test_unknown_names_rejected_when_built(self, field, message):
        with pytest.raises(InvalidConfigError, match=message):
            tiny_config(**{field: "bogus"})

    @pytest.mark.parametrize(
        "field, value, message",
        [("synth_d", 4, "synth_d must give each driver set floor(0.2 * d) >= 1 covariates, got 4"),
         ("synth_d", 0, "synth_d must give each driver set floor(0.2 * d) >= 1 covariates, got 0"),
         ("synth_rho", 1.0, "synth_rho must lie in [0, 1), got 1.0"),
         ("synth_rho", -0.1, "synth_rho must lie in [0, 1), got -0.1"),
         ("synth_rho", float("nan"), "synth_rho must lie in [0, 1), got nan")],
    )
    def test_synthetic_covariate_settings_rejected_when_built(self, field, value, message):
        with pytest.raises(InvalidConfigError, match=re.escape(message)):
            tiny_config(**{field: value})
        assert tiny_config(synth_d=5, synth_rho=0.0).synth_d == 5  # floor(0.2 * 5) = 1

    def test_cell_follows_the_fixed_fractions(self):
        train, test = build_cell_dataset(tiny_config(synth_d=15), 1.0, 0)
        assert len(train.truth.sets.prognostic) == 3  # floor(0.2 * d) covariates per set
        assert (train.n, test.n) == (192, 48)  # TEST_FRACTION of 240 units held out

    def test_floors_are_the_smallest_sizes_the_split_rule_admits(self):
        def arm_splits(n):  # a validation row out of one arm
            return splits(n, VALIDATION_FRACTION)

        def cell_splits(n):  # a test row out of n, then a validation row out of the rest
            return splits(n, TEST_FRACTION) and arm_splits(n - holdout_count(n, TEST_FRACTION))

        for floor, admits in ((MIN_ARM_UNITS, arm_splits), (MIN_SYNTH_N, cell_splits)):
            assert [n for n in range(1, floor + 1) if admits(n)] == [floor]
        assert (MIN_ARM_UNITS, MIN_SYNTH_N) == (2, 3)

    def test_parse_learner_labels(self):
        for label, parsed in [("s", ("s", 0.0)), ("t", ("t", 0.0)), ("dr", ("dr", 0.0)),
                              ("x", ("x", 0.0)), ("tarnet", ("tarnet", 0.0)),
                              ("cfrnet", ("cfrnet", 1.0)), ("cfrnet:2.5", ("cfrnet", 2.5))]:
            assert parse_learner(label) == parsed
        with pytest.raises(InvalidConfigError):
            parse_learner("cfrnet:zero")
        with pytest.raises(InvalidConfigError):
            parse_learner("cfrnet:-1")

    @pytest.mark.parametrize("label", ["cfrnet:nan", "cfrnet:inf", "cfrnet:1e400"])
    def test_nonfinite_balancing_weight_rejected(self, label):
        with pytest.raises(InvalidConfigError):
            parse_learner(label)
        with pytest.raises(InvalidConfigError):
            tiny_config(learners=("s", label))

    def test_presets(self):
        one = experiment_preset("predictive_scale")
        assert one.knob_grid == (1e-3, 1e-2, 1e-1, 0.5, 1.0)
        assert one.seeds == 30
        two = experiment_preset("nonlinearity")
        assert two.knob == "nonlinearity_scale"
        three = experiment_preset("confounding")
        assert three.propensity_kind == PREDICTIVE_CONFOUNDING
        assert "cfrnet:10" in three.learners
        assert three.seeds == 10
        for name in ("four", "1", "2", "3"):  # each preset has one name
            with pytest.raises(InvalidConfigError):
                experiment_preset(name)


class TestRunCell:
    def test_zero_predictive_scale_pehe_is_rms_of_estimate(self):
        cfg = tiny_config(learners=("t",))
        [rec] = run_cell(cfg, 0.0, seed=3)
        train, test = build_cell_dataset(cfg, 0.0, 3)
        assert np.all(test.truth.tau == 0.0)
        assert rec.pehe >= 0.0  # equals RMS of tau_hat since tau is 0
        from catebench.rng import float_key, label_key, stream

        est = fit_t_learner(train.observed, cfg.train, stream(3, float_key(0.0), 7, label_key("t")))
        rms = float(np.sqrt(np.mean(est.predict_cate(test.covariates.x) ** 2)))
        assert rec.pehe == pytest.approx(rms)

    def test_deterministic_records(self):
        cfg = tiny_config()
        a = run_cell(cfg, 1.0, seed=5)
        b = run_cell(cfg, 1.0, seed=5)
        assert _untimed(a) == _untimed(b)

    def test_record_cardinality(self):
        cfg = tiny_config(learners=("t", "s"))
        recs = run_cell(cfg, 1.0, seed=0)
        assert len(recs) == 2
        assert {r.learner for r in recs} == {"t", "s"}
        assert all(r.attr_method == cfg.attribution_method for r in recs)

    def test_learners_share_dataset_and_split(self):
        cfg = tiny_config()
        tr1, te1 = build_cell_dataset(cfg, 1.0, 2)
        tr2, te2 = build_cell_dataset(cfg, 1.0, 2)
        assert np.array_equal(tr1.unit_ids, tr2.unit_ids)
        assert np.array_equal(te1.y, te2.y)

    def test_fixed_knob_value(self):
        assert fixed_knob_value(tiny_config(omega_pred=0.7)) == 0.7
        cfg = tiny_config(knob="propensity_scale", knob_grid=(0.0, 1.0), omega_pi=2.0)
        assert fixed_knob_value(cfg) == 2.0

    @staticmethod
    def _failing_learners(monkeypatch, error):
        import catebench.learners as learners_mod

        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(learners_mod, "fit_learner", broken)

    def test_failing_learner_yields_flagged_record(self, monkeypatch):
        self._failing_learners(monkeypatch, NumericError("boom"))
        [rec] = run_cell(tiny_config(learners=("s",)), 1.0, 0)
        assert np.isnan(rec.attr_pred) and np.isnan(rec.attr_prog) and np.isnan(rec.pehe)

    def test_programming_error_propagates(self, monkeypatch):
        self._failing_learners(monkeypatch, RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            run_cell(tiny_config(learners=("s",)), 1.0, 0)


    def test_failed_dataset_flags_every_record_of_its_cell(self, fit_count, caplog):
        cfg = tiny_config(knob="propensity_scale", knob_grid=(0.0, 100.0),
                          propensity_kind=PREDICTIVE_CONFOUNDING, learners=("s", "dr"))
        records = run_experiment(cfg, workers=1)
        assert {(r.knob_value, r.learner) for r in records if r.failed} == {
            (100.0, "s"), (100.0, "dr")}
        assert len(fit_count) == 5  # the 0.0 cell's alone: S 1, first stage 3, DR 1
        assert "positivity fails at omega_pi 100.0" in caplog.text

    def test_constant_propensity_signal_flags_its_cell(self, tmp_path, fit_count):
        # Seed 0 draws covariate 6, a constant column, as its nonconfounded
        # confounder; seed 1 draws a column that varies.
        cfg = tiny_config(covariates_csv=str(constant_tail_csv(tmp_path / "cov.csv")),
                          propensity_kind="nonconfounded", knob="propensity_scale",
                          knob_grid=(1.0,), learners=("s",), attribution_cap=20)
        failed = fit_cell(cfg, 1.0, 0)
        assert fit_count == [] and failed.test is None
        [(_, err, _)] = failed.fits
        assert isinstance(err, NormalizationError) and "(column 6)" in str(err)
        [record] = score_cell(failed, cfg.attribution_method)
        assert record.failed and np.isnan(record.pehe)
        assert not score_cell(fit_cell(cfg, 1.0, 1), cfg.attribution_method)[0].failed
        assert len(fit_count) == 1


class TestSharedFirstStage:
    SIX = ("s", "t", "tarnet", "dr", "x", "cfrnet:10")

    def test_six_learner_cell_fits_nine_networks(self, fit_count):
        run_cell(tiny_config(learners=self.SIX), 1.0, 0)
        # S 1, TARNet 1, CFRNet 1, shared mu0/mu1/pi 3, DR stage 2 1, X tau0/tau1 2.
        assert len(fit_count) == 9

    @pytest.mark.parametrize("labels, networks", [(("s", "t"), 3), (("t",), 2)])
    def test_cell_without_dr_or_x_fits_no_propensity(self, labels, networks, fit_count):
        # T fits the stage's two arms from the same stream, so its record is
        # the one a cell that also fits DR and X gives.
        records = run_cell(tiny_config(learners=labels), 1.0, 5)
        assert len(fit_count) == networks  # S 1, T's arms 2
        with_stage = run_cell(tiny_config(learners=labels + ("dr", "x")), 1.0, 5)
        assert _untimed(records) == _untimed(with_stage[: len(labels)])

    def test_t_dr_x_cell_fits_t_and_propensity_once(self, monkeypatch):
        import catebench.learners as learners_mod

        calls = []
        for name in ("fit_t_learner", "fit_propensity"):
            original = getattr(learners_mod, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(learners_mod, name, counted)
        run_cell(tiny_config(learners=("t", "dr", "x")), 1.0, 0)
        assert sorted(calls) == ["fit_propensity", "fit_t_learner"]

    def test_dr_and_x_records_are_fits_on_fit_nuisances(self):
        """The stage is fit_nuisances from T's stream and the propensity stream."""
        from catebench import attribution, learners, metrics
        from catebench.rng import float_key, label_key, stream

        cfg = tiny_config(learners=("dr", "x"))
        records = run_cell(cfg, 1.0, 6)
        train, test = build_cell_dataset(cfg, 1.0, 6)
        bits = float_key(1.0)
        stage = learners.fit_nuisances(
            train.observed, cfg.train, stream(6, bits, 7, label_key("t")), stream(6, bits, 9)
        )
        seed = int(stream(6, bits, 8).integers(2**63))
        for rec, fit in zip(records, (learners.fit_dr_learner, learners.fit_x_learner)):
            rng = stream(6, bits, 7, label_key(rec.learner))
            est = fit(train.observed, cfg.train, rng, stage)
            mat = attribution.attribute_batch(cfg.attribution_method, est, test.covariates.x,
                                              max_rows=cfg.attribution_cap, seed=seed)
            assert rec.pehe == metrics.pehe(est.predict_cate(test.covariates.x), test.truth.tau)
            assert rec.attr_pred == metrics.attr_pred(mat, test.truth.sets.predictive)
            assert rec.attr_prog == metrics.attr_prog(mat, test.truth.sets.prognostic)

    def test_other_records_do_not_depend_on_dr_and_x(self):
        with_two_stage = run_cell(tiny_config(learners=self.SIX), 1.0, 4)
        without = run_cell(tiny_config(learners=("s", "t", "tarnet", "cfrnet:10")), 1.0, 4)
        kept = [r for r in with_two_stage if r.learner not in ("dr", "x")]
        assert _untimed(kept) == _untimed(without)

    def test_t_record_is_the_standalone_t_fit(self):
        cfg = tiny_config(learners=("x", "t"))  # X fits the shared stage first
        [_, rec] = run_cell(cfg, 1.0, 2)
        [alone] = run_cell(tiny_config(learners=("t",)), 1.0, 2)
        assert _untimed([rec]) == _untimed([alone])

    def test_failed_first_stage_flags_each_user_once(self, monkeypatch, caplog):
        import catebench.learners as learners_mod

        calls = []

        def broken(*args, **kwargs):
            calls.append(1)
            raise NumericError("propensity diverged")

        monkeypatch.setattr(learners_mod, "fit_propensity", broken)
        recs = {r.learner: r for r in run_cell(tiny_config(learners=self.SIX), 1.0, 0)}
        assert len(calls) == 1
        for learner in ("t", "dr", "x"):
            r = recs[learner]
            assert np.isnan(r.attr_pred) and np.isnan(r.attr_prog) and np.isnan(r.pehe)
        for learner in ("s", "tarnet", "cfrnet:10"):
            assert np.isfinite(recs[learner].pehe)
        failed = [m for m in caplog.messages if m.startswith("learner ")]
        assert sorted(m.split()[1] for m in failed) == ["dr", "t", "x"]


class TestFitThenScore:
    SIX = TestSharedFirstStage.SIX
    METHODS = ("saliency", "integrated_gradients", "feature_ablation", "feature_permutation")

    def test_one_fit_scored_by_each_method_equals_its_own_cell(self, fit_count):
        cell = fit_cell(tiny_config(learners=self.SIX), 1.0, 3)
        assert len(fit_count) == 9
        scored = {method: score_cell(cell, method) for method in self.METHODS}
        assert len(fit_count) == 9  # scoring fits nothing
        for method, records in scored.items():
            alone = run_cell(tiny_config(learners=self.SIX, attribution_method=method), 1.0, 3)
            assert _untimed(records) == _untimed(alone), method
            assert all(np.isfinite(r.attr_pred) for r in records), method


class TestRunExperiment:
    def test_cardinality_and_order(self):
        cfg = tiny_config(knob_grid=(0.0, 0.5, 1.0), seeds=2)
        recs = run_experiment(cfg, workers=1)
        assert len(recs) == 3 * 2 * 2
        assert [r.key for r in recs] == sorted(r.key for r in recs)

    def test_parallel_matches_serial(self):
        for learners in (("t", "s"), ("s", "t", "dr", "x")):
            cfg = tiny_config(seeds=2, learners=learners)
            serial = run_experiment(cfg, workers=1)
            parallel = run_experiment(cfg, workers=2)
            assert _untimed(serial) == _untimed(parallel), learners

    @pytest.mark.parametrize("workers", [1, 2])
    def test_covariate_csv_read_once_per_sweep(self, workers, tmp_path, monkeypatch):
        # The records equal run_cell's on each cell reading the file itself;
        # the sweep's one read deletes the file, so a second read, in a
        # cell or a pool worker, would fail.
        import catebench.harness as harness_mod

        x = np.random.default_rng(0).normal(size=(240, 10))
        path = tmp_path / "cov.csv"
        path.write_text(",".join(f"c{j}" for j in range(10)) + "\n"
                        + "".join(",".join(map(repr, row.tolist())) + "\n" for row in x))
        cfg = tiny_config(covariates_csv=str(path), seeds=2)
        alone = sorted((r for v in cfg.knob_grid for s in range(2) for r in run_cell(cfg, v, s)),
                       key=lambda r: r.key)
        load = harness_mod.dgp.load_covariates_csv

        def load_then_delete(*args):
            try:
                return load(*args)
            finally:
                path.unlink()

        monkeypatch.setattr(harness_mod.dgp, "load_covariates_csv", load_then_delete)
        assert _untimed(run_experiment(cfg, workers=workers)) == _untimed(alone)
        assert not path.exists()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(InvalidConfigError):
            run_experiment(tiny_config(), workers=workers)

    def test_default_pool_follows_cpu_affinity(self, monkeypatch):
        import concurrent.futures

        import catebench.harness as harness_mod

        def no_pool(*args, **kwargs):
            raise AssertionError("one usable CPU must run the sweep serially")

        monkeypatch.setattr(harness_mod.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(harness_mod.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(harness_mod, "run_cell", lambda config, value, seed: [])
        assert run_experiment(tiny_config(seeds=2)) == []

    def test_aggregate_constant_metric(self):
        recs = [
            ResultRecord("d", "t", "m", "k", 1.0, s, 0.5, 0.25, 1.0, 0.0) for s in range(4)
        ]
        [row] = aggregate(recs)
        assert row.attr_pred_mean == 0.5
        assert row.attr_pred_se == 0.0
        assert row.n_seeds == 4

    def test_aggregate_matches_direct_recomputation(self):
        vals = [0.3, 0.5, 0.9]
        recs = [
            ResultRecord("d", "t", "m", "k", 1.0, s, v, 0.1, 2.0, 0.0)
            for s, v in enumerate(vals)
        ]
        [row] = aggregate(recs)
        assert row.attr_pred_mean == pytest.approx(np.mean(vals))
        assert row.attr_pred_se == pytest.approx(np.std(vals, ddof=1) / np.sqrt(3))

    def test_aggregate_skips_nan(self):
        recs = [
            ResultRecord("d", "t", "m", "k", 1.0, 0, float("nan"), 0.1, 2.0, 0.0),
            ResultRecord("d", "t", "m", "k", 1.0, 1, 0.4, 0.1, 2.0, 0.0),
        ]
        [row] = aggregate(recs)
        assert row.attr_pred_mean == pytest.approx(0.4)
        assert row.n_seeds == 2
        assert row.n_failed == 1

    def test_aggregate_counts_records_with_any_nonfinite_score(self):
        nan = float("nan")
        scores = [(0.4, 0.1, 2.0), (nan, 0.1, 2.0), (0.4, nan, 2.0), (0.4, 0.1, float("inf")),
                  (nan, nan, nan)]
        recs = [ResultRecord("d", "t", "m", "k", 1.0, s, *v, 0.0) for s, v in enumerate(scores)]
        assert [r.failed for r in recs] == [False, True, True, True, True]
        [row] = aggregate(recs)
        assert (row.n_seeds, row.n_failed) == (5, 4)


class TestCsv:
    def _records(self):
        return [
            ResultRecord("synthetic", "t", "integrated_gradients", "predictive_scale",
                         0.001, 0, 0.512345678901234, 0.25, 1.5, 123.4),
            ResultRecord("synthetic", "s", "integrated_gradients", "predictive_scale",
                         1.0, 1, float("nan"), 0.1, 0.7, 56.0),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv(self._records(), path)
        back = load_results(path)
        orig = self._records()
        for a, b in zip(back, orig):
            assert a.learner == b.learner
            assert a.knob_value == b.knob_value
            assert (a.attr_pred == b.attr_pred) or (
                np.isnan(a.attr_pred) and np.isnan(b.attr_pred)
            )
            assert a.pehe == b.pehe
            assert np.isnan(a.wall_ms)  # timing redacted by default

    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv([], path)
        assert path.read_text().strip() == (
            "dataset,learner,attr_method,knob,knob_value,seed,"
            "attr_pred,attr_prog,pehe,wall_ms"
        )

    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv(self._records()[:1], path)
        assert len(path.read_text().strip().split("\n")) == 2

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(self._records(), a)
        emit_csv(self._records(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_timing_opt_in(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv(self._records(), path, include_timing=True)
        assert "123.4" in path.read_text()

    def test_load_rejects_other_headers(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError):
            load_results(path)

    def test_load_rejects_a_nonfinite_knob_value(self, tmp_path):
        records = [replace(self._records()[0], knob_value=v) for v in (float("nan"), 1.0, np.inf)]
        path = tmp_path / "r.csv"
        emit_csv(records, path)
        with pytest.raises(ParseError) as err:
            load_results(path)
        assert (err.value.row, err.value.col) == (1, 4)
        assert str(err.value) == f"{path}: non-finite cell 'nan' at row 1, column 4"
        emit_csv(records[1:], path)
        with pytest.raises(ParseError, match="non-finite cell 'inf' at row 2, column 4"):
            load_results(path)
