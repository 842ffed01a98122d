"""Benchmarking engine for feature attributions of neural CATE estimators.

Generates semi-synthetic treatment-effect datasets with known predictive
and prognostic covariates, fits neural effect estimators, explains them
with post-hoc attribution methods, and scores how much importance mass
each estimator puts on the true effect drivers.

Importing the package runs BLAS on one thread in this process and in every
process it starts (``OPENBLAS_NUM_THREADS=1``, and numpy's bundled
OpenBLAS set to one thread if numpy is already loaded). The networks are
too small to gain from more. Commands scale through worker processes,
which run a sweep's cells and fit a learner's independent networks side
by side, and result bytes are the same on every machine, for every worker
count, whatever the caller's ``OPENBLAS_NUM_THREADS`` says.
"""

import importlib

from ._blas import pin_one_thread

pin_one_thread()  # before any submodule imports numpy

# Public names and the submodule that defines each. They resolve on first
# use (PEP 562), so a command imports only the layers it runs: ``catebench
# attribute`` never loads the sweep harness or its process pool.
_EXPORTS = {
    "attribution": (
        "AttributionMatrix", "attribute_batch", "feature_ablation", "feature_permutation",
        "integrated_gradients", "saliency", "shapley_exact", "shapley_mc",
    ),
    "dgp": (
        "CovariateMatrix", "FeatureIndexSets", "ObservedData", "OutcomeModel",
        "PropensitySpec", "SemiSyntheticDataset", "generate_dataset", "load_covariates_csv",
        "sample_feature_sets", "sample_outcome_model", "synth_covariates", "train_test_split",
    ),
    "harness": (
        "ExperimentConfig", "FittedCell", "ResultRecord", "aggregate", "emit_csv",
        "experiment_preset", "fit_cell", "run_cell", "run_experiment", "score_cell",
    ),
    "learners": (
        "CateEstimator", "dr_pseudo_outcome", "fit_dr_learner", "fit_nuisances",
        "fit_s_learner", "fit_t_learner", "fit_tarnet", "fit_x_learner",
    ),
    "metrics": ("attr_pred", "attr_prog", "pehe"),
    "nn": ("MlpParams", "TrainConfig"),
    "svgplot": ("emit_plot_svg",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "errors", "rng", "tables"}  # reachable as catebench.<name>
__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
