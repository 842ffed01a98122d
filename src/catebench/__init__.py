"""Benchmarking engine for feature attributions of neural CATE estimators.

Generates semi-synthetic treatment-effect datasets with known predictive
and prognostic covariates, fits neural effect estimators, explains them
with post-hoc attribution methods, and scores how much importance mass
each estimator puts on the true effect drivers.

Importing the package runs BLAS on one thread in this process and in every
process it starts (``OPENBLAS_NUM_THREADS=1``, and numpy's bundled
OpenBLAS set to one thread if numpy is already loaded). The networks are
too small to gain from more, sweeps scale through their process pool
instead, and result bytes are the same on every machine whatever the
caller's ``OPENBLAS_NUM_THREADS`` says.
"""

from ._blas import pin_one_thread

pin_one_thread()  # before any submodule imports numpy

from .attribution import (
    AttributionMatrix,
    AttributionSettings,
    attribute_batch,
    feature_ablation,
    feature_permutation,
    integrated_gradients,
    saliency,
    shapley_exact,
    shapley_mc,
)
from .dgp import (
    CovariateMatrix,
    FeatureIndexSets,
    ObservedData,
    OutcomeModel,
    PropensitySpec,
    SemiSyntheticDataset,
    generate_dataset,
    load_covariates_csv,
    sample_feature_sets,
    sample_outcome_model,
    synth_covariates,
    train_test_split,
)
from .harness import (
    ExperimentConfig,
    ResultRecord,
    aggregate,
    emit_csv,
    experiment_preset,
    run_cell,
    run_experiment,
)
from .learners import (
    CateEstimator,
    dr_pseudo_outcome,
    fit_dr_learner,
    fit_nuisances,
    fit_s_learner,
    fit_t_learner,
    fit_tarnet,
    fit_x_learner,
)
from .metrics import attr_pred, attr_prog, pehe
from .nn import MlpParams, TrainConfig
from .svgplot import emit_plot_svg

__version__ = "0.1.0"
