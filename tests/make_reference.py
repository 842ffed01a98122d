"""Write the pinned reference results under ``tests/reference/``.

The files are written once, by the code they pin, and ``test_reference``
recomputes each one and compares:

- ``results_<kind>.csv``: the result CSV of a small confounding sweep
  (six learners, ``propensity_scale`` 0 and 2, two seeds) for each of the
  four propensity kinds;
- ``truth_<kind>.csv``: the assignment and propensity (``unit_id, w,
  pi``) of that sweep's dataset at ``propensity_scale`` 2, seed 0, for
  each kind; a change to the propensity that flips no assignment in a
  small sweep still moves ``pi``;
- ``attributions_<method>.csv``: one X estimator, fitted on the
  predictive-confounding dataset at scale 2, scored with each of the six
  attribution methods on 20 test rows (d=12, so ``shapley_exact`` runs).

Run ``PYTHONPATH=src python tests/make_reference.py`` from the repository
root to rewrite them; a change that alters a pinned number is a change to
the reference and must say why.
"""

from __future__ import annotations

from pathlib import Path

from catebench import attribution, dgp, harness, learners, tables
from catebench.nn import TrainConfig
from catebench.rng import stream

REFERENCE_DIR = Path(__file__).parent / "reference"
KINDS = dgp.PROPENSITY_KINDS
METHODS = attribution.METHODS
ATTRIBUTION_ROWS = 20


def sweep_config(kind: str) -> harness.ExperimentConfig:
    """The reference sweep for one propensity kind: 6 learners x 2 scales x 2 seeds."""
    return harness.ExperimentConfig(
        dataset_tag="reference",
        synth_n=400,
        synth_d=12,
        knob=harness.KNOB_PROPENSITY_SCALE,
        knob_grid=(0.0, 2.0),
        propensity_kind=kind,
        learners=("s", "t", "tarnet", "dr", "x", "cfrnet:10"),
        seeds=2,
        attribution_cap=50,
        train=TrainConfig(learning_rate=1e-3, batch_size=128, max_epochs=5, patience=3),
    )


def write_results(kind: str, path: Path) -> None:
    config = sweep_config(kind)
    harness.emit_csv(harness.run_experiment(config, workers=1), path)


def write_truth(kind: str, path: Path) -> None:
    ds = harness.build_dataset(sweep_config(kind), 2.0, 0)
    tables.write_table(
        path,
        ("unit_id", "w", "pi"),
        zip(ds.unit_ids.tolist(), ds.w.tolist(), ds.truth.pi.tolist()),
    )


def fit_reference_x():
    """The X estimator and test covariates every reference matrix scores."""
    config = sweep_config(dgp.PREDICTIVE_CONFOUNDING)
    train, test = harness.build_cell_dataset(config, 2.0, 0)
    nuisances = learners.fit_nuisances(train.observed, config.train, stream(7, 1), stream(7, 2))
    est = learners.fit_learner("x", train.observed, config.train, stream(7, 3), lambda: nuisances)
    return est, test


def write_attributions(est, test, method: str, path: Path) -> None:
    matrix = attribution.attribute_batch(
        method, est, test.covariates.x, max_rows=ATTRIBUTION_ROWS, seed=11
    )
    attribution.save_attributions(matrix, test.unit_ids[matrix.row_indices], path)


def results_path(kind: str) -> Path:
    return REFERENCE_DIR / f"results_{kind}.csv"


def truth_path(kind: str) -> Path:
    return REFERENCE_DIR / f"truth_{kind}.csv"


def attributions_path(method: str) -> Path:
    return REFERENCE_DIR / f"attributions_{method}.csv"


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for kind in KINDS:
        write_results(kind, results_path(kind))
        write_truth(kind, truth_path(kind))
    est, test = fit_reference_x()
    for method in METHODS:
        write_attributions(est, test, method, attributions_path(method))


if __name__ == "__main__":
    main()
