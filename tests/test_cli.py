import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import catebench
import catebench.metrics
from catebench.cli import main
from catebench.dgp import PROPENSITY_KINDS, load_observed
from catebench.errors import UndefinedMetricError
from catebench.harness import ResultRecord, emit_csv
from catebench.learners import (
    NuisanceSet,
    fit_dr_learner,
    fit_nuisances,
    fit_propensity,
    fit_s_learner,
    fit_t_learner,
    fit_tarnet,
    fit_x_learner,
    load_estimator,
    save_estimator,
)
from catebench.nn import TrainConfig
from catebench.rng import label_key, stream
from helpers import constant_tail_csv

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_config(path, **overrides):
    base = {
        "synth_n": 240,
        "synth_d": 10,
        "knob": "predictive_scale",
        "knob_grid": [0.0, 1.0],
        "sigma": 0.1,
        "learners": ["t"],
        "seeds": 1,
        "attribution_cap": 50,
        "train": {
            "learning_rate": 1e-3,
            "batch_size": 128,
            "max_epochs": 3,
            "patience": 2,
        },
    }
    base.update(overrides)
    path.write_text(json.dumps(base))
    return path


class TestGenerate:
    def test_deterministic_files(self, workdir, capsys):
        cfg = write_config(workdir / "cfg.json")
        for tag in ("a", "b"):
            code = main([
                "generate", "--config", str(cfg), "--seed", "7",
                "--out-data", f"{tag}.csv", "--out-truth", f"{tag}_truth.csv",
                "--out-meta", f"{tag}_meta.json",
            ])
            assert code == 0
        assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()
        assert (workdir / "a_truth.csv").read_bytes() == (workdir / "b_truth.csv").read_bytes()
        assert (workdir / "a_meta.json").read_bytes() == (workdir / "b_meta.json").read_bytes()

    def test_missing_config_exits_1(self, workdir, capsys):
        assert main(["generate", "--config", "nope.json"]) == 1
        assert "not found" in capsys.readouterr().err


class TestPipeline:
    @pytest.mark.parametrize("kind", PROPENSITY_KINDS)
    def test_generate_fit_attribute_evaluate(self, workdir, capsys, kind):
        cfg = write_config(workdir / "cfg.json", propensity_kind=kind, omega_pi=1.0)
        assert main(["generate", "--config", str(cfg), "--seed", "1"]) == 0
        assert main([
            "fit", "--data", "data.csv", "--learner", "t",
            "--config", str(cfg), "--seed", "2", "--out-dir", "model",
        ]) == 0
        assert (workdir / "model" / "manifest.json").exists()
        assert main([
            "attribute", "--model", "model", "--data", "data.csv",
            "--method", "saliency", "--out", "attr.csv",
        ]) == 0
        assert main([
            "evaluate", "--attributions", "attr.csv", "--meta", "meta.json",
            "--model", "model", "--data", "data.csv", "--truth", "truth.csv",
            "--out", "metrics.json",
        ]) == 0
        text = (workdir / "metrics.json").read_text()
        metrics = json.loads(text)
        assert text == json.dumps(metrics, indent=2) + "\n"
        assert set(metrics) == {"attr_pred", "attr_prog", "n_eval", "pehe"}
        assert 0.0 <= metrics["attr_pred"] <= 1.0
        assert metrics["pehe"] >= 0.0

    @pytest.mark.parametrize("learner", ["dr", "x", "s", "t", "tarnet", "cfrnet:2.5"])
    def test_fit_two_stage_learner_streams(self, workdir, learner):
        """`fit --learner L --seed 2` fits L from stream(2, 7, label_key(L)), as a sweep cell
        does under its root; DR and X's first stage has T's arms and stream(2, 9)'s propensity."""
        cfg = write_config(workdir / "cfg.json")
        assert main(["generate", "--config", str(cfg), "--seed", "1"]) == 0
        assert main(["fit", "--data", "data.csv", "--learner", learner,
                     "--config", str(cfg), "--seed", "2", "--out-dir", "model"]) == 0
        obs, _, _ = load_observed("data.csv")
        train = TrainConfig(**json.loads(cfg.read_text())["train"])
        rng = stream(2, 7, label_key(learner))
        if learner in ("dr", "x"):
            stage = fit_nuisances(obs, train, stream(2, 7, label_key("t")), stream(2, 9))
            fit = fit_dr_learner if learner == "dr" else fit_x_learner
            est = fit(obs, train, rng, stage)
        elif learner in ("s", "t"):
            est = (fit_s_learner if learner == "s" else fit_t_learner)(obs, train, rng)
        else:
            gamma = 0.0 if learner == "tarnet" else 2.5
            est = fit_tarnet(obs, gamma, train, rng)
        save_estimator(est, "by_hand")
        weights = (workdir / "model" / "weights.npz").read_bytes()
        assert weights == (workdir / "by_hand" / "weights.npz").read_bytes()

    def test_fitted_t_is_the_first_stage_of_fitted_dr_and_x(self, workdir):
        """DR and X rebuilt by hand on the saved T's arms give the CLI's DR and X bytes."""
        cfg = write_config(workdir / "cfg.json")
        assert main(["generate", "--config", str(cfg), "--seed", "1"]) == 0
        for learner in ("t", "dr", "x"):
            assert main(["fit", "--data", "data.csv", "--learner", learner, "--config", str(cfg),
                         "--seed", "4", "--out-dir", learner]) == 0
        obs, _, _ = load_observed("data.csv")
        train = TrainConfig(**json.loads(cfg.read_text())["train"])
        t = load_estimator("t")
        stage = NuisanceSet(t.mu0, t.mu1, fit_propensity(obs, train, stream(4, 9)))
        for learner, fit in (("dr", fit_dr_learner), ("x", fit_x_learner)):
            save_estimator(fit(obs, train, stream(4, 7, label_key(learner)), stage), "by_hand")
            weights = (workdir / learner / "weights.npz").read_bytes()
            assert weights == (workdir / "by_hand" / "weights.npz").read_bytes(), learner

    def test_fit_failing_on_its_data_exits_2(self, workdir, capsys):
        # One treated unit: the first stage's treated arm is too small to split.
        rows = "".join(f"{i},{int(i == 0)},{i / 10},{i % 3}.5\n" for i in range(12))
        (workdir / "data.csv").write_text("unit_id,w,y,x_0\n" + rows)
        assert main(["fit", "--data", "data.csv", "--learner", "dr", "--out-dir", "model"]) == 2
        assert capsys.readouterr().err == (
            "runtime error: arm w=1 holds 1 of the 2 units the fit needs\n")


class TestExperiment:
    def test_seeds_override_and_outputs(self, workdir, capsys):
        cfg = write_config(workdir / "cfg.json")
        code = main([
            "experiment", "--config", str(cfg), "--seeds", "2", "--workers", "1",
            "--out-csv", "results.csv", "--out-svg-prefix", "plot",
        ])
        assert code == 0
        lines = (workdir / "results.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2 * 1  # header + grid(2) x seeds(2) x learners(1)
        for metric in ("attr_pred", "attr_prog", "pehe"):
            assert (workdir / f"plot_{metric}.svg").exists()

    def test_rerun_byte_identical(self, workdir):
        cfg = write_config(workdir / "cfg.json")
        for out in ("r1.csv", "r2.csv"):
            assert main([
                "experiment", "--config", str(cfg), "--workers", "1", "--out-csv", out,
            ]) == 0
        assert (workdir / "r1.csv").read_bytes() == (workdir / "r2.csv").read_bytes()

    def test_plot_from_results(self, workdir):
        cfg = write_config(workdir / "cfg.json")
        assert main(["experiment", "--config", str(cfg), "--workers", "1",
                     "--out-csv", "results.csv"]) == 0
        assert main(["plot", "--results", "results.csv", "--metric", "pehe",
                     "--out", "pehe.svg"]) == 0
        assert (workdir / "pehe.svg").read_text().startswith("<svg")

    def test_plot_of_failed_records_exits_2(self, workdir, capsys):
        # Three units cannot fill both treatment groups: every learner fails on its data.
        cfg = write_config(workdir / "cfg.json", synth_n=3, learners=["s", "t"], knob_grid=[1.0])
        assert main(["experiment", "--config", str(cfg), "--workers", "1"]) == 2
        capsys.readouterr()
        assert main(["plot", "--results", "results.csv", "--out", "p.svg"]) == 2
        assert not (workdir / "p.svg").exists()  # no record has a finite attr_pred
        assert capsys.readouterr().err == (
            "runtime error: 2 of 2 records failed with a non-finite score at "
            "(learner, predictive_scale, seed): (s, 1.0, 0), (t, 1.0, 0)\n"
        )

    def test_plot_draws_the_chart_then_names_a_failed_record(self, workdir, capsys):
        records = [ResultRecord("synthetic", learner, "saliency", "predictive_scale", value, 0,
                                0.5, 0.25, 1.0, 0.0)
                   for learner in ("s", "t") for value in (0.5, 1.0)]
        records[0] = dataclasses.replace(records[0], attr_pred=float("nan"))
        emit_csv(records, "results.csv")
        assert main(["plot", "--results", "results.csv", "--out", "p.svg"]) == 2
        assert (workdir / "p.svg").read_text().startswith("<svg")
        out, err = capsys.readouterr()
        assert out == "wrote p.svg\n"
        assert err == ("runtime error: 1 of 4 records failed with a non-finite score at "
                       "(learner, predictive_scale, seed): (s, 0.5, 0)\n")

    def test_plot_of_a_nonfinite_knob_value_exits_2(self, workdir, capsys):
        records = [ResultRecord("synthetic", "s", "saliency", "predictive_scale", value, 0,
                                0.5, 0.25, 1.0, 0.0) for value in (float("nan"), 1.0, np.inf)]
        emit_csv(records, "results.csv")
        assert main(["plot", "--results", "results.csv", "--out", "p.svg"]) == 2
        assert capsys.readouterr().err == (
            "runtime error: results.csv: non-finite cell 'nan' at row 1, column 4\n")
        assert not (workdir / "p.svg").exists()

    def test_failed_records_exit_2_after_writing_outputs(self, workdir, capsys):
        # Three units cannot fill both treatment groups: every learner fails on its data.
        cfg = write_config(workdir / "cfg.json", synth_n=3, learners=["s", "t"], knob_grid=[1.0])
        assert main(["experiment", "--config", str(cfg), "--workers", "1",
                     "--out-svg-prefix", "plot"]) == 2
        lines = (workdir / "results.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2
        assert not list(workdir.glob("plot_*.svg"))  # no metric has a finite value
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("runtime error: ")] == [
            "runtime error: 2 of 2 records failed with a non-finite score at "
            "(learner, predictive_scale, seed): (s, 1.0, 0), (t, 1.0, 0)"
        ]

    def test_arm_too_small_to_split_fails_its_record(self, workdir, capsys):
        # Two training units: T's arms hold one unit each or leave one arm empty,
        # and no arm of one unit can hold out a validation row. Every seed's
        # record fails; none stops the sweep.
        cfg = write_config(workdir / "cfg.json", synth_n=3, knob_grid=[1.0], seeds=4,
                           train={"max_epochs": 2})
        assert main(["experiment", "--config", str(cfg), "--workers", "1"]) == 2
        lines = (workdir / "results.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 4
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith(("runtime error: ", "error: "))] == [
            "runtime error: 4 of 4 records failed with a non-finite score at "
            "(learner, predictive_scale, seed): (t, 1.0, 0), (t, 1.0, 1), (t, 1.0, 2), (t, 1.0, 3)"
        ]

    def test_charts_drawn_for_metrics_with_a_finite_value(self, workdir, capsys, monkeypatch):
        def undefined(*args):
            raise UndefinedMetricError("every attribution row is zero")

        monkeypatch.setattr(catebench.metrics, "attr_pred", undefined)
        cfg = write_config(workdir / "cfg.json", knob_grid=[1.0])
        assert main(["experiment", "--config", str(cfg), "--workers", "1",
                     "--out-svg-prefix", "plot"]) == 2
        # All-zero attributions leave both attribution shares undefined; the RMSE is finite.
        assert [p.name for p in workdir.glob("plot_*.svg")] == ["plot_pehe.svg"]
        assert "(t, 1.0, 0)" in capsys.readouterr().err

    def test_positivity_failure_exits_2(self, workdir, capsys):
        cfg = write_config(workdir / "cfg.json", knob="propensity_scale", knob_grid=[0.0, 100.0],
                           propensity_kind="predictive_confounding", omega_pi=100.0)
        assert main(["generate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: positivity fails at omega_pi 100.0: ")
        assert not (workdir / "data.csv").exists()
        assert main(["experiment", "--config", str(cfg), "--workers", "1"]) == 2
        assert "1 of 2 records failed" in capsys.readouterr().err
        assert len((workdir / "results.csv").read_text().splitlines()) == 3

    def test_constant_propensity_signal_flags_its_cells(self, workdir, capsys):
        # Columns 5-9 are constant; seeds 0 and 2 draw one of them as their
        # nonconfounded confounder, seeds 1 and 3 a column that varies.
        constant_tail_csv(workdir / "cov.csv")
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({
            "covariates_csv": "cov.csv", "propensity_kind": "nonconfounded",
            "knob": "propensity_scale", "knob_grid": [1.0], "seeds": 4, "learners": ["s"],
            "attribution_cap": 20, "train": {"max_epochs": 2},
        }))
        assert main(["experiment", "--config", str(cfg), "--workers", "1"]) == 2
        assert len((workdir / "results.csv").read_text().splitlines()) == 1 + 4
        err = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith(("runtime error: ", "error: "))]
        assert err == ["runtime error: 2 of 4 records failed with a non-finite score at "
                       "(learner, propensity_scale, seed): (s, 1.0, 0), (s, 1.0, 2)"]

    def test_preset_and_config_conflict(self, workdir, capsys):
        cfg = write_config(workdir / "cfg.json")
        assert main(["experiment", "--config", str(cfg), "--preset", "predictive_scale"]) == 1


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        assert main(["experiment", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "experiment"])
    def test_sigma_flag_removed(self, workdir, capsys, command):
        cfg = write_config(workdir / "cfg.json")
        workers = ["--workers", "1"] if command == "experiment" else []
        assert main([command, "--config", str(cfg), "--sigma", "0.5", *workers]) == 1
        assert "unrecognized arguments: --sigma" in capsys.readouterr().err
        assert [p.name for p in workdir.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command", ["generate", "plot", "fit"])
    def test_path_the_os_refuses_exits_1(self, workdir, capsys, monkeypatch, command):
        # A directory where a file is written or read, or a file where the model directory goes.
        cfg = write_config(workdir / "cfg.json")
        (workdir / "a_dir").mkdir()
        fits = []
        if command == "fit":
            assert main(["generate", "--config", str(cfg)]) == 0
            (workdir / "a_file").write_text("")
            for module in (catebench.nn, catebench.learners):
                monkeypatch.setattr(module, "minibatch_fit", lambda *a, **k: fits.append(1))
        argv = {
            "generate": ["generate", "--config", str(cfg), "--out-data", "a_dir"],
            "plot": ["plot", "--results", "a_dir", "--out", "p.svg"],
            "fit": ["fit", "--data", "data.csv", "--learner", "t", "--config", str(cfg),
                    "--out-dir", "a_file"],
        }[command]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert fits == []  # the model directory is checked before any network is fitted

    def test_runtime_error_exits_2(self, workdir, capsys):
        # Exact Shapley enumeration is capped at 15 features; 16 must fail
        # at runtime, not at configuration time.
        cfg = write_config(workdir / "cfg.json", synth_d=16)
        assert main(["generate", "--config", str(cfg), "--seed", "1"]) == 0
        assert main([
            "fit", "--data", "data.csv", "--learner", "t",
            "--config", str(cfg), "--seed", "2", "--out-dir", "model",
        ]) == 0
        code = main([
            "attribute", "--model", "model", "--data", "data.csv",
            "--method", "shapley_exact", "--out", "attr.csv",
        ])
        assert code == 2
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.parametrize("learner", ["t", "tarnet"])
    def test_model_width_mismatch_exits_2(self, workdir, capsys, learner):
        for d in (6, 5):
            cfg = write_config(workdir / f"cfg{d}.json", synth_d=d)
            assert main(["generate", "--config", str(cfg), "--out-data", f"data{d}.csv",
                         "--out-truth", f"truth{d}.csv", "--out-meta", f"meta{d}.json"]) == 0
        assert main(["fit", "--data", "data6.csv", "--learner", learner,
                     "--config", "cfg6.json", "--out-dir", "model"]) == 0
        for method in ("saliency", "feature_ablation"):  # gradient and prediction paths
            code = main(["attribute", "--model", "model", "--data", "data5.csv",
                         "--method", method, "--out", "attr.csv"])
            assert code == 2
            assert "runtime error: input has 5 columns, network expects 6" in capsys.readouterr().err

    def test_malformed_data_exits_2(self, workdir, capsys):
        (workdir / "data.csv").write_text("unit_id,w,y,x_0\n0,1,0.5,1.0\n1,0,oops,1.5\n")
        code = main(["fit", "--data", "data.csv", "--learner", "t", "--out-dir", "model"])
        assert code == 2
        err = capsys.readouterr().err
        assert "runtime error:" in err and "row 2" in err

    def test_malformed_model_exits_2(self, workdir, capsys):
        (workdir / "data.csv").write_text("unit_id,w,y,x_0\n0,1,0.5,1.0\n1,0,0.25,1.5\n")
        (workdir / "model").mkdir()
        (workdir / "model" / "manifest.json").write_text('{"strategy": "tarnet", "gamma": 0.0}')
        np.savez(workdir / "model" / "weights.npz", mu0_w0=np.ones((1, 1)), mu0_b0=np.ones(1))
        code = main(["attribute", "--model", "model", "--data", "data.csv", "--out", "attr.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert "runtime error:" in err and "weights.npz" in err and "'trunk_w'" in err

        # A T model whose second mu0 layer was cut from 3 rows to 2.
        (workdir / "model" / "manifest.json").write_text('{"strategy": "t"}')
        net = {"w0": np.ones((1, 3)), "b0": np.ones(3), "w1": np.ones((3, 1)), "b1": np.ones(1)}
        arrays = {f"{arm}_{k}": a for arm in ("mu0", "mu1") for k, a in net.items()}
        arrays["mu0_w1"] = np.ones((2, 1))
        np.savez(workdir / "model" / "weights.npz", **arrays)
        code = main(["attribute", "--model", "model", "--data", "data.csv", "--out", "attr.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert "runtime error:" in err and "weights.npz" in err and "'mu0_w1'" in err

    @pytest.mark.parametrize("name", ["manifest.json", "meta.json"])
    def test_truncated_json_exits_2(self, workdir, capsys, name):
        fit_model(workdir)
        assert main(["attribute", "--model", "model", "--data", "data.csv",
                     "--method", "saliency", "--out", "attr.csv"]) == 0
        path = workdir / "model" / name if name == "manifest.json" else workdir / name
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        capsys.readouterr()
        if name == "manifest.json":
            code = main(["attribute", "--model", "model", "--data", "data.csv", "--out", "a.csv"])
        else:
            code = main(["evaluate", "--attributions", "attr.csv", "--meta", "meta.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"runtime error: {path.relative_to(workdir)}: not JSON (")
        assert err.count("\n") == 1

    def test_unknown_learner_exits_1(self, workdir, capsys):
        cfg = write_config(workdir / "cfg.json", learners=["qlearner"])
        assert main(["experiment", "--config", str(cfg)]) == 1

    def test_bad_json_exits_1(self, workdir, capsys):
        (workdir / "bad.json").write_text("{not json")
        assert main(["experiment", "--config", "bad.json"]) == 1


def fit_model(workdir):
    cfg = write_config(workdir / "cfg.json")
    assert main(["generate", "--config", str(cfg), "--seed", "1"]) == 0
    assert main(["fit", "--data", "data.csv", "--learner", "t", "--config", str(cfg),
                 "--out-dir", "model"]) == 0


class TestRejectedSettings:
    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_attribute_cap_below_one_exits_1(self, workdir, capsys, cap):
        fit_model(workdir)
        capsys.readouterr()
        code = main(["attribute", "--model", "model", "--data", "data.csv", "--cap", cap,
                     "--out", "attr.csv"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: the attribution row cap must be >= 1")
        assert not (workdir / "attr.csv").exists()

    def test_row_cap_default_is_one_constant(self):
        from catebench import attribution, cli, harness

        args = cli._build_parser().parse_args(["attribute", "--model", "m", "--data", "d",
                                               "--out", "o"])
        batch_default = inspect.signature(attribution.attribute_batch).parameters["max_rows"]
        assert (args.cap == harness.ExperimentConfig().attribution_cap
                == batch_default.default == attribution.DEFAULT_ROW_CAP)

    def test_attribute_permutation_of_one_row_exits_1_before_reading(self, workdir, capsys):
        # Neither file exists: the rows rule is applied before either is read.
        code = main(["attribute", "--model", "model", "--data", "data.csv",
                     "--method", "feature_permutation", "--cap", "1", "--out", "attr.csv"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --method with --cap: feature_permutation needs at least 2 scored rows, got 1\n"
        )
        assert not (workdir / "attr.csv").exists()

    @pytest.mark.parametrize("field, value", [("attribution_cap", -5)])
    def test_config_value_below_one_exits_1(self, workdir, capsys, field, value):
        cfg = write_config(workdir / "cfg.json", **{field: value})
        assert main(["experiment", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (workdir / "results.csv").exists()

    @pytest.mark.parametrize("rate", [0.0, -1e-3, float("nan")])
    def test_bad_learning_rate_exits_1(self, workdir, capsys, rate):
        cfg = write_config(workdir / "cfg.json")
        config = json.loads(cfg.read_text())
        config["train"]["learning_rate"] = rate
        cfg.write_text(json.dumps(config))  # NaN is written as the bare token NaN
        assert main(["experiment", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: learning_rate must be finite and > 0")
        assert not (workdir / "results.csv").exists()

    @pytest.mark.parametrize("label", ["cfrnet:nan", "cfrnet:inf", "cfrnet:1e400"])
    def test_nonfinite_balancing_weight_exits_1(self, workdir, capsys, label):
        cfg = write_config(workdir / "cfg.json")
        assert main(["experiment", "--config", str(cfg), "--learners", label]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cfrnet needs a finite, positive balancing weight")
        assert not (workdir / "results.csv").exists()
        assert main(["generate", "--config", str(cfg)]) == 0
        assert main(["fit", "--data", "data.csv", "--learner", label, "--config", str(cfg),
                     "--out-dir", "model"]) == 1
        assert not (workdir / "model").exists()

    @pytest.mark.parametrize(
        "value, message",
        [
            ([1], "cfg.json: expected a JSON object, got list"),
            ({"train": 5}, "config key 'train' must be a JSON object, got 5"),
            ({"train": {"bogus": 1}}, "unknown config key 'train.bogus'"),
            ({"seeds": 2.5}, "config key 'seeds' must be an integer, got 2.5"),
            ({"synth_n": "100"}, "config key 'synth_n' must be an integer"),
            ({"train": {"learning_rate": "abc"}}, "config key 'train.learning_rate' must be a number"),
            ({"train": {"batch_size": 1.5}}, "config key 'train.batch_size' must be an integer"),
            ({"knob_grid": 5}, "config key 'knob_grid' must be an array, got 5"),
            ({"knob_grid": [0.0, "1"]}, "config key 'knob_grid' must be a number"),
            ({"learners": "st"}, "config key 'learners' must be an array"),
            ({"seeds": True}, "config key 'seeds' must be an integer, got True"),
            ({"attribution_method": None}, "config key 'attribution_method' must be a string"),
            ({"learners": ["s", "s"]}, "learner labels repeat"),
            ({"knob_grid": [1.0, 1.0]}, "knob values repeat"),
            ({"knob_grid": [0.0, -0.0]}, "knob values repeat"),
            ({"sigma": float("nan")}, "sigma must be finite and >= 0, got nan"),
            ({"omega_pi": float("nan")}, "omega_pi must be finite and >= 0, got nan"),
            ({"omega_pred": float("inf")}, "omega_pred must be finite and >= 0, got inf"),
            ({"knob_grid": [float("inf")]},
             "knob_grid value for omega_pred must be finite and >= 0, got inf"),
            ({"covariates_normalize": "bogus"}, "unknown normalization 'bogus'"),
            ({"propensity_kind": "bogus"}, "unknown propensity kind 'bogus'"),
            ({"n_i": 2}, "unknown config key 'n_i'"),
            ({"test_fraction": 0.2}, "unknown config key 'test_fraction'"),
            ({"train": {"val_fraction": 0.3}}, "unknown config key 'train.val_fraction'"),
            ({"ig_steps": 50}, "unknown config key 'ig_steps'"),
            ({"shapley_permutations": 0}, "unknown config key 'shapley_permutations'"),
            ({"synth_d": 4}, "synth_d must give each driver set floor(0.2 * d) >= 1 covariates"),
            ({"synth_rho": 1.0}, "synth_rho must lie in [0, 1), got 1.0"),
            ({"synth_rho": -0.5}, "synth_rho must lie in [0, 1), got -0.5"),
            ({"learners": []}, "learner list must be nonempty"),
            ({"synth_n": -1}, "synth_n must be >= 3, got -1"),
            ({"synth_n": 0}, "synth_n must be >= 3, got 0"),
            ({"synth_n": 1}, "synth_n must be >= 3, got 1"),
            ({"synth_n": 2}, "synth_n must be >= 3, got 2"),
            ({"synth_d": 30, "attribution_method": "shapley_exact"},
             "attribution_method with synth_d, synth_n and attribution_cap: "
             "shapley_exact enumerates at most 15 covariates, got 30"),
            ({"attribution_method": "feature_permutation", "attribution_cap": 1},
             "attribution_method with synth_d, synth_n and attribution_cap: "
             "feature_permutation needs at least 2 scored rows, got 1"),
            ({"attribution_method": "feature_permutation", "synth_n": 7},  # 1 test row
             "feature_permutation needs at least 2 scored rows, got 1"),
        ],
    )
    def test_bad_config_value_exits_1(self, workdir, capsys, value, message):
        cfg = workdir / "cfg.json"
        if isinstance(value, dict):
            write_config(cfg, **value)
        else:
            cfg.write_text(json.dumps(value))
        assert main(["experiment", "--config", str(cfg), "--workers", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (workdir / "results.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_1(self, workdir, capsys, workers):
        cfg = write_config(workdir / "cfg.json")
        assert main(["experiment", "--config", str(cfg), "--workers", workers]) == 1
        assert capsys.readouterr().err == f"error: workers must be >= 1, got {workers}\n"

    @pytest.mark.parametrize("command", [["experiment", "--workers", "1"], ["generate"]],
                             ids=["experiment", "generate"])
    def test_covariate_csv_too_narrow_exits_1(self, workdir, capsys, command):
        # floor(0.2 * 4) = 0: four columns leave every driver set empty.
        (workdir / "narrow.csv").write_text("a,b,c,d\n" + "0,1,2,3\n1,0,3,2\n" * 20)
        cfg = write_config(workdir / "cfg.json", covariates_csv="narrow.csv")
        assert main([*command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: covariates_csv narrow.csv must give each driver set floor(0.2 * d) >= 1 "
            "covariates, got 4\n"
        )
        assert sorted(p.name for p in workdir.iterdir()) == ["cfg.json", "narrow.csv"]

    def test_covariate_csv_no_cell_can_score_exits_1(self, workdir, capsys, monkeypatch):
        # Exact Shapley enumerates at most 15 covariates; the CSV has 16.
        def no_fit(*args, **kwargs):
            raise AssertionError("no network may be fitted")

        monkeypatch.setattr(catebench.nn, "minibatch_fit", no_fit)
        monkeypatch.setattr(catebench.learners, "minibatch_fit", no_fit)
        rows = stream(0).normal(size=(40, 16))
        (workdir / "wide.csv").write_text(",".join(f"c{j}" for j in range(16)) + "\n" + "".join(
            ",".join(map(repr, row.tolist())) + "\n" for row in rows))
        cfg = write_config(workdir / "cfg.json", covariates_csv="wide.csv",
                           attribution_method="shapley_exact")
        assert main(["experiment", "--config", str(cfg), "--workers", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: attribution_method with attribution_cap and covariates_csv wide.csv: "
            "shapley_exact enumerates at most 15 covariates, got 16\n"
        )
        assert not (workdir / "results.csv").exists()

    @pytest.mark.parametrize("command", [["experiment", "--workers", "1"], ["generate"]],
                             ids=["experiment", "generate"])
    def test_covariate_csv_too_short_to_split_exits_1(self, workdir, capsys, monkeypatch,
                                                      command):
        # A cell needs harness.MIN_SYNTH_N = 3 units to hold out a test and a validation row.
        def no_fit(*args, **kwargs):
            raise AssertionError("no network may be fitted")

        monkeypatch.setattr(catebench.nn, "minibatch_fit", no_fit)
        monkeypatch.setattr(catebench.learners, "minibatch_fit", no_fit)
        (workdir / "short.csv").write_text("a,b,c,d,e\n0,1,2,3,4\n1,0,3,2,4\n")
        cfg = write_config(workdir / "cfg.json", covariates_csv="short.csv")
        assert main([*command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: covariates_csv short.csv must hold >= 3 rows, got 2\n")
        assert sorted(p.name for p in workdir.iterdir()) == ["cfg.json", "short.csv"]


class TestBadInputFiles:
    """Each malformed input file exits 2 with one ``runtime error:`` line naming it."""

    @pytest.fixture()
    def scored(self, workdir, capsys):
        fit_model(workdir)
        assert main(["attribute", "--model", "model", "--data", "data.csv",
                     "--method", "saliency", "--out", "attr.csv"]) == 0
        capsys.readouterr()
        return workdir

    @staticmethod
    def _evaluate(with_model=False):
        model = ["--model", "model", "--data", "data.csv", "--truth", "truth.csv"]
        return main(["evaluate", "--attributions", "attr.csv", "--meta", "meta.json",
                     *(model if with_model else [])])

    @staticmethod
    def _error(capsys):
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("omega_pi", -1.0, "omega_pi must be finite and >= 0, got -1.0"),
            ("i_prog", [0, 0], "index sets must"),
            ("sigma", float("nan"), "noise sigma must be finite and >= 0, got nan"),
            ("irrelevant_index", 99, "irrelevant_index 99 is not one of the 10 features"),
            ("irrelevant_index", True, "irrelevant_index True is not one of the 10 features"),
        ],
    )
    def test_meta_value_out_of_domain(self, scored, capsys, key, value, message):
        meta = json.loads((scored / "meta.json").read_text())
        (meta["propensity"] if key in ("omega_pi", "irrelevant_index") else meta)[key] = value
        (scored / "meta.json").write_text(json.dumps(meta))
        assert self._evaluate() == 2
        err = self._error(capsys)
        assert err.startswith("runtime error: meta.json: ") and message in err

    @pytest.mark.parametrize("with_model", [False, True])
    @pytest.mark.parametrize("index", [40, -1])
    def test_meta_index_outside_features(self, scored, capsys, index, with_model):
        meta = json.loads((scored / "meta.json").read_text())
        meta["i_1"][0] = index  # 10 features
        (scored / "meta.json").write_text(json.dumps(meta))
        assert self._evaluate(with_model) == 2
        assert self._error(capsys) == (
            f"runtime error: meta.json: malformed sidecar: i_1 holds index {index}, "
            "outside the 10 features\n"
        )

    @pytest.mark.parametrize("learner, manifest", [
        ("cfrnet", '{"strategy": "cfrnet", "gamma": 0}'),
        ("tarnet", '{"strategy": "tarnet", "gamma": 5.0}'),
    ])
    def test_manifest_gamma_contradicts_strategy(self, workdir, capsys, learner, manifest):
        cfg = write_config(workdir / "cfg.json")
        assert main(["generate", "--config", str(cfg), "--seed", "1"]) == 0
        assert main(["fit", "--data", "data.csv", "--learner", learner, "--config", str(cfg),
                     "--out-dir", "model"]) == 0
        capsys.readouterr()
        (workdir / "model" / "manifest.json").write_text(manifest)
        code = main(["attribute", "--model", "model", "--data", "data.csv", "--out", "a.csv"])
        assert code == 2
        err = self._error(capsys)
        assert err.startswith(f"runtime error: {Path('model') / 'manifest.json'}: 'gamma' is ")
        assert not (workdir / "a.csv").exists()

    def test_nonfinite_truth_cell(self, scored, capsys):
        lines = (scored / "truth.csv").read_text().split("\n")
        cells = lines[1].split(",")
        cells[3] = "nan"  # tau
        lines[1] = ",".join(cells)
        (scored / "truth.csv").write_text("\n".join(lines))
        assert self._evaluate(with_model=True) == 2
        assert "truth.csv: non-finite cell 'nan' at row 1, column 3" in self._error(capsys)

    def test_nonfinite_weight(self, scored, capsys):
        path = scored / "model" / "weights.npz"
        with np.load(path) as blob:
            arrays = {k: blob[k] for k in blob.files}
        arrays["mu0_w0"][0, 0] = np.nan
        np.savez(path, **arrays)
        assert self._evaluate(with_model=True) == 2
        assert "weights.npz: 'mu0_w0' holds a non-finite entry" in self._error(capsys)
        assert main(["attribute", "--model", "model", "--data", "data.csv",
                     "--out", "attr2.csv"]) == 2
        assert "weights.npz: 'mu0_w0' holds a non-finite entry" in self._error(capsys)

    @pytest.mark.parametrize(
        "defect, message",
        [
            ("nan", "attr.csv: non-finite cell 'nan' at row 1, column 2"),
            ("method", "attr.csv: row 2 names method 'shapley_mc', row 1 'saliency'"),
            ("narrow", "attr.csv: 9 score columns, but meta.json names 10 features"),
        ],
    )
    def test_malformed_attributions(self, scored, capsys, defect, message):
        path = scored / "attr.csv"
        rows = [line.split(",") for line in path.read_text().strip().split("\n")]
        if defect == "nan":
            rows[1][2] = "nan"
        elif defect == "method":
            rows[2][1] = "shapley_mc"
        else:
            rows = [row[:-1] for row in rows]
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        assert self._evaluate() == 2
        assert message in self._error(capsys)


class TestStartup:
    def test_cli_import_leaves_out_harness_and_pool(self):
        # attribute and evaluate run once per model and method; they load
        # neither the sweep harness, nor the plots, nor the process pool.
        probe = ("import sys, catebench.cli; print(sorted(m for m in sys.modules if m in "
                 "('catebench.harness', 'catebench.svgplot', 'multiprocessing')))")
        env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "[]"

    def test_generate_and_load_meta_leave_out_numpy_ma(self, workdir):
        # np.unique and np.setdiff1d import numpy.ma (16-27 ms). Every
        # generate and evaluate process checks driver sets, and generate
        # picks the nonconfounded kind's irrelevant index; neither uses them.
        cfg = write_config(workdir / "cfg.json", propensity_kind="nonconfounded")
        probe = ("import sys; from catebench import cli, dgp; "
                 f"assert cli.main(['generate', '--config', {str(cfg)!r}]) == 0; "
                 "dgp.load_meta('meta.json'); print('numpy.ma' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.splitlines()[-1] == "False"

    def test_one_worker_commands_leave_out_the_process_pool(self, workdir):
        # harness loads the pool only when a sweep starts one; generate, fit
        # and a one-worker experiment run without it.
        cfg = write_config(workdir / "cfg.json")
        probe = ("import sys; from catebench import cli; "
                 f"assert cli.main(['generate', '--config', {str(cfg)!r}]) == 0; "
                 "assert cli.main(['fit', '--data', 'data.csv', '--learner', 't', "
                 "'--out-dir', 'model']) == 0; "
                 f"assert cli.main(['experiment', '--config', {str(cfg)!r}, "
                 "'--workers', '1']) == 0; "
                 "print(sorted(m for m in sys.modules "
                 "if m in ('concurrent.futures.process', 'multiprocessing')))")
        env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.splitlines()[-1] == "[]"

    def test_every_public_name_resolves(self):
        assert catebench.__all__
        for name in catebench.__all__:
            value = getattr(catebench, name)
            module = importlib.import_module(f"catebench.{catebench._HOME[name]}")
            assert value is getattr(module, name), name
        assert set(catebench.__all__) <= set(dir(catebench))
        for module in ("svgplot", "tables"):
            assert getattr(catebench, module) is importlib.import_module(f"catebench.{module}")
        with pytest.raises(AttributeError):
            catebench.no_such_name
