"""Semi-synthetic treatment-effect data generation.

Covariates come from a CSV file or a synthetic Gaussian sampler; outcomes
and assignments are simulated on top of them from sampled prognostic and
predictive components, so the true potential outcomes, effect function,
propensities and driver indices are all known. Ground truth travels in a
sealed sidecar of the dataset: model fitting only ever sees (X, W, Y).
A saved dataset is three files, all written and read through ``tables``:
the observed table, the truth table, and a JSON sidecar that only
``load_meta`` reads. Each rule on one value (a scale, omega_nl, the
covariate correlation, a propensity kind, a normalization) is one
``check_*`` function, which ``harness.ExperimentConfig`` calls too. One
function, ``_check_design``, decides whether index sets, weights and a
propensity spec fit d features; ``generate_dataset``,
``propensity_scores`` and ``load_meta`` all call it, so every dataset the
generator accepts reads back. A propensity z-scores its kind's signal over
the units it assigns, from the outcome components already evaluated for
them. ``train_test_split`` draws its partition through
``nn.holdout_split``, the package's one seeded split.

Because assignment and outcomes are simulated, the usual identifying
assumptions hold by construction rather than by hope:

- consistency: the observed outcome is exactly the potential outcome of
  the assigned arm (plus additive noise drawn independently of W);
- ignorability: W is drawn from Bernoulli(pi(X)) with fresh randomness,
  so (Y(0), Y(1)) are independent of W given X — there is nothing the
  assignment could depend on beyond the covariates;
- positivity: pi(x) = sigmoid(omega_pi * z(x)) is strictly inside (0, 1)
  in exact arithmetic. In float64 it rounds to exactly 1.0 once
  omega_pi * z(x) exceeds 53 ln 2 (about 36.74), and to 0.0 below about
  -745. ``generate_dataset`` raises ``NumericError``, naming omega_pi and
  the count, when any unit's pi is exactly 0 or 1; the presets' largest
  scale, 4, keeps every pi inside (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tables
from .errors import (
    InvalidConfigError,
    NormalizationError,
    NumericError,
    ParseError,
    ShapeError,
)
from .nn import holdout_split, sigmoid

NORM_NONE = "none"
NORM_MINMAX = "minmax"
NORM_ZSCORE = "zscore"
NORMALIZATIONS = (NORM_NONE, NORM_MINMAX, NORM_ZSCORE)

UNIFORM = "uniform"
PREDICTIVE_CONFOUNDING = "predictive_confounding"
PROGNOSTIC_CONFOUNDING = "prognostic_confounding"
NONCONFOUNDED = "nonconfounded"
PROPENSITY_KINDS = (UNIFORM, PREDICTIVE_CONFOUNDING, PROGNOSTIC_CONFOUNDING, NONCONFOUNDED)

# Scalar nonlinearities the outcome components can mix in, with derivatives
# (used only by the oracle effect function, never by fitted models).
NONLINEARITIES: dict[str, tuple] = {
    "abs": (np.abs, np.sign),
    "gaussian": (lambda s: np.exp(-(s**2)), lambda s: -2.0 * s * np.exp(-(s**2))),
    "inverse_quadratic": (lambda s: 1.0 / (1.0 + s**2), lambda s: -2.0 * s / (1.0 + s**2) ** 2),
    "cos": (np.cos, lambda s: -np.sin(s)),
    "sin": (np.sin, np.cos),
    "arctan": (np.arctan, lambda s: 1.0 / (1.0 + s**2)),
    "tanh": (np.tanh, lambda s: 1.0 / np.cosh(s) ** 2),
    "log_quadratic": (lambda s: np.log1p(s**2), lambda s: 2.0 * s / (1.0 + s**2)),
    "sqrt_quadratic": (lambda s: np.sqrt(1.0 + s**2), lambda s: s / np.sqrt(1.0 + s**2)),
    "cosh": (np.cosh, np.sinh),
}
NONLINEARITY_NAMES = tuple(NONLINEARITIES)


# --- Value rules ----------------------------------------------------------
# ``key`` names the value as its caller knows it (a config key, say).


def check_scale(key: str, value: float) -> None:
    """The rule of omega_pred, omega_pi and sigma: finite and >= 0."""
    if not 0.0 <= value < float("inf"):  # NaN included
        raise InvalidConfigError(f"{key} must be finite and >= 0, got {value}")


def check_omega_nl(key: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:  # NaN included
        raise InvalidConfigError(f"{key} must lie in [0, 1], got {value}")


def check_correlation(key: str, value: float) -> None:
    """The synthetic covariates' pairwise correlation: in [0, 1)."""
    if not 0.0 <= value < 1.0:  # NaN included
        raise InvalidConfigError(f"{key} must lie in [0, 1), got {value}")


def check_propensity_kind(kind: str) -> None:
    if kind not in PROPENSITY_KINDS:
        raise InvalidConfigError(f"unknown propensity kind {kind!r}")


def check_normalization(normalize: str) -> None:
    if normalize not in NORMALIZATIONS:
        raise InvalidConfigError(f"unknown normalization {normalize!r}")


@dataclass
class CovariateMatrix:
    """N x d covariate block plus feature names."""

    x: np.ndarray
    feature_names: list[str]

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 2:
            raise ShapeError("covariates must be a 2-D matrix")
        n, d = self.x.shape
        if n < 1 or d < 4:
            raise InvalidConfigError(f"need N >= 1 and d >= 4 covariates, got {n} x {d}")
        if len(self.feature_names) != d:
            raise ShapeError("feature name count does not match column count")
        if not np.all(np.isfinite(self.x)):
            raise NumericError("covariates contain non-finite entries")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class FeatureIndexSets:
    """Disjoint prognostic / control-arm / treated-arm driver indices."""

    prognostic: np.ndarray
    predictive_0: np.ndarray
    predictive_1: np.ndarray

    def __post_init__(self):
        for name in ("prognostic", "predictive_0", "predictive_1"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=int))
        a, b, c = self.prognostic, self.predictive_0, self.predictive_1
        if not (len(a) == len(b) == len(c)):
            raise InvalidConfigError("index sets must have equal sizes")
        union = np.sort(np.concatenate([a, b, c]))  # np.unique would import numpy.ma
        if (union[1:] == union[:-1]).any():
            raise InvalidConfigError("index sets must be pairwise disjoint")

    @property
    def predictive(self) -> np.ndarray:
        """All effect-driving indices (both arms)."""
        return np.sort(np.concatenate([self.predictive_0, self.predictive_1]))

    @property
    def all_relevant(self) -> np.ndarray:
        return np.sort(
            np.concatenate([self.prognostic, self.predictive_0, self.predictive_1])
        )


@dataclass(frozen=True)
class OutcomeModel:
    """Sampled weights and nonlinearity defining the outcome components."""

    alpha_prog: np.ndarray
    alpha_0: np.ndarray
    alpha_1: np.ndarray
    nonlinearity: str
    omega_nl: float
    omega_pred: float

    def __post_init__(self):
        for name in ("alpha_prog", "alpha_0", "alpha_1"):
            v = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, v)
            if np.abs(v).max(initial=0.0) > 1.0:
                raise InvalidConfigError(f"{name} entries must lie in [-1, 1]")
        if self.nonlinearity not in NONLINEARITIES:
            raise InvalidConfigError(f"unknown nonlinearity {self.nonlinearity!r}")
        check_omega_nl("omega_nl", self.omega_nl)
        check_scale("omega_pred", self.omega_pred)


@dataclass(frozen=True)
class PropensitySpec:
    kind: str = UNIFORM
    omega_pi: float = 0.0
    irrelevant_index: int | None = None

    def __post_init__(self):
        check_propensity_kind(self.kind)
        check_scale("omega_pi", self.omega_pi)
        if self.kind == NONCONFOUNDED and self.irrelevant_index is None:
            raise InvalidConfigError("nonconfounded propensity needs irrelevant_index")


@dataclass(frozen=True)
class ObservedData:
    """What estimators are allowed to see: finite x (n, d), w in {0, 1} and finite y (n,)."""

    x: np.ndarray
    w: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in ("x", "w", "y"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        if self.x.ndim != 2:
            raise ShapeError(f"x must be a 2-D matrix, got shape {self.x.shape}")
        for name in ("w", "y"):
            if getattr(self, name).shape != (self.n,):
                raise ShapeError(f"{name} must have shape ({self.n},) like x's rows, "
                                 f"got {getattr(self, name).shape}")
        if not np.isin(self.w, (0, 1)).all():
            raise InvalidConfigError("w must hold only 0 and 1")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise NumericError("x and y must be finite")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class GroundTruth:
    """Sealed generation record; only metrics should consume this."""

    y0: np.ndarray
    y1: np.ndarray
    tau: np.ndarray
    pi: np.ndarray
    sets: FeatureIndexSets
    model: OutcomeModel
    noise_sigma: float
    propensity: PropensitySpec


@dataclass(frozen=True)
class SemiSyntheticDataset:
    covariates: CovariateMatrix
    w: np.ndarray
    y: np.ndarray
    truth: GroundTruth
    unit_ids: np.ndarray

    @property
    def n(self) -> int:
        return self.covariates.n

    @property
    def d(self) -> int:
        return self.covariates.d

    @property
    def observed(self) -> ObservedData:
        return ObservedData(self.covariates.x, self.w, self.y)


# --- Covariate sourcing ---------------------------------------------------


def load_covariates_csv(path: str | Path, normalize: str = NORM_NONE) -> CovariateMatrix:
    """Read a numeric CSV with a header row of feature names."""
    check_normalization(normalize)

    def check_header(header):
        if _all_numeric(header):
            raise ParseError(f"{path}: first row is numeric; a header row is required", row=0)

    header, _, body = tables.read_floats(path, check_header)
    if normalize == NORM_MINMAX:
        lo, hi = body.min(axis=0), body.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)  # constant columns map to 0
        body = (body - lo) / span
    elif normalize == NORM_ZSCORE:
        std = body.std(axis=0)
        if np.any(std == 0.0):
            col = int(np.nonzero(std == 0.0)[0][0])
            raise NormalizationError(f"{path}: column {col} is constant, z-score undefined")
        body = (body - body.mean(axis=0)) / std
    return CovariateMatrix(body, [h.strip() for h in header])


def _all_numeric(cells: list[str]) -> bool:
    if not cells:
        return False
    for cell in cells:
        try:
            float(cell)
        except ValueError:
            return False
    return True


def synth_covariates(
    n: int, d: int, pairwise_correlation: float = 0.0, rng: np.random.Generator | None = None
) -> CovariateMatrix:
    """Zero-mean unit-variance Gaussians with constant pairwise correlation."""
    if rng is None:
        raise InvalidConfigError("synth_covariates requires a seeded generator")
    rho = float(pairwise_correlation)
    check_correlation("pairwise_correlation", rho)
    shared = rng.normal(size=(n, 1))
    own = rng.normal(size=(n, d))
    x = np.sqrt(rho) * shared + np.sqrt(1.0 - rho) * own
    return CovariateMatrix(x, [f"x_{j}" for j in range(d)])


# --- Outcome machinery ----------------------------------------------------


def sample_feature_sets(d: int, n_i: int, rng: np.random.Generator) -> FeatureIndexSets:
    """Three disjoint driver index sets, sampled without replacement."""
    if n_i < 1:
        raise InvalidConfigError("n_i must be >= 1")
    if not d > 3 * n_i:
        raise InvalidConfigError(f"need d > 3 * n_i, got d={d}, n_i={n_i}")
    picked = rng.choice(d, size=3 * n_i, replace=False)
    return FeatureIndexSets(
        np.sort(picked[:n_i]), np.sort(picked[n_i : 2 * n_i]), np.sort(picked[2 * n_i :])
    )


def sample_outcome_model(
    n_i: int, omega_nl: float, omega_pred: float, rng: np.random.Generator
) -> OutcomeModel:
    """Uniform weights on [-1, 1] and one shared nonlinearity for all parts."""
    alpha_prog = rng.uniform(-1.0, 1.0, size=n_i)
    alpha_0 = rng.uniform(-1.0, 1.0, size=n_i)
    alpha_1 = rng.uniform(-1.0, 1.0, size=n_i)
    chi = NONLINEARITY_NAMES[int(rng.integers(len(NONLINEARITY_NAMES)))]
    return OutcomeModel(alpha_prog, alpha_0, alpha_1, chi, float(omega_nl), float(omega_pred))


def _component(model: OutcomeModel, alpha: np.ndarray, x_sub: np.ndarray) -> np.ndarray:
    s = x_sub @ alpha
    chi, _ = NONLINEARITIES[model.nonlinearity]
    return (1.0 - model.omega_nl) * s + model.omega_nl * chi(s)


def eval_components(model: OutcomeModel, sets: FeatureIndexSets, x: np.ndarray):
    """Prognostic and per-arm predictive components of an (N, d) batch: three length-N vectors."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"covariates must be an (N, d) batch, got shape {x.shape}")
    if x.shape[1] <= int(sets.all_relevant.max()):
        raise ShapeError("covariate vector shorter than the largest driver index")
    mu = _component(model, model.alpha_prog, x[:, sets.prognostic])
    f0 = _component(model, model.alpha_0, x[:, sets.predictive_0])
    f1 = _component(model, model.alpha_1, x[:, sets.predictive_1])
    return mu, f0, f1


def true_cate(model: OutcomeModel, sets: FeatureIndexSets, x: np.ndarray) -> np.ndarray:
    """Noiseless effect values: predictive scale times the arm contrast."""
    _, f0, f1 = eval_components(model, sets, np.atleast_2d(x))
    return model.omega_pred * (f1 - f0)


def true_cate_gradient(model: OutcomeModel, sets: FeatureIndexSets, x: np.ndarray) -> np.ndarray:
    """Exact gradient of the true effect function, row per input row."""
    xm = np.atleast_2d(np.asarray(x, dtype=float))
    _, dchi = NONLINEARITIES[model.nonlinearity]
    grad = np.zeros_like(xm)
    for sign, idx, alpha in (
        (1.0, sets.predictive_1, model.alpha_1),
        (-1.0, sets.predictive_0, model.alpha_0),
    ):
        s = xm[:, idx] @ alpha
        scale = (1.0 - model.omega_nl) + model.omega_nl * dchi(s)
        grad[:, idx] += sign * model.omega_pred * scale[:, None] * alpha
    return grad


# --- Propensity -----------------------------------------------------------


def propensity_scores(
    spec: PropensitySpec, model: OutcomeModel, sets: FeatureIndexSets, x: np.ndarray
) -> np.ndarray:
    """Assignment probabilities of the units in ``x``, the signal z-scored over those units."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    _check_design(sets, model, spec, x.shape[1])
    return _propensity(spec, x, *eval_components(model, sets, x))


def _propensity(spec: PropensitySpec, x: np.ndarray, mu, f0, f1) -> np.ndarray:
    """sigmoid(omega_pi * z) per unit, from ``eval_components(model, sets, x)``'s output.

    z is the kind's signal (f1 - f0, mu or the irrelevant column) z-scored
    over the units of ``x``; the design is already checked against ``x``.
    A constant signal is a ``NormalizationError`` naming the kind (and the
    column, for nonconfounded).
    """
    if spec.kind == UNIFORM:
        return np.full(x.shape[0], 0.5)
    if spec.kind == PREDICTIVE_CONFOUNDING:
        psi = f1 - f0
    elif spec.kind == PROGNOSTIC_CONFOUNDING:
        psi = mu
    else:
        psi = x[:, spec.irrelevant_index]
    std = float(psi.std())  # population std: deterministic, no ddof choice
    if std == 0.0:
        column = f" (column {spec.irrelevant_index})" if spec.kind == NONCONFOUNDED else ""
        raise NormalizationError(
            f"{spec.kind} propensity signal{column} is constant over the assigned units")
    return sigmoid(spec.omega_pi * ((psi - float(psi.mean())) / std))


def pick_irrelevant_index(d: int, sets: FeatureIndexSets, rng: np.random.Generator) -> int:
    """A uniformly drawn covariate index outside every driver set."""
    all_d = np.arange(d)
    candidates = all_d[~np.isin(all_d, sets.all_relevant)]  # np.setdiff1d imports numpy.ma
    if candidates.size == 0:
        raise InvalidConfigError("no covariate left outside the driver sets")
    return int(candidates[rng.integers(candidates.size)])


# --- Generation and splitting ----------------------------------------------


def generate_dataset(
    covariates: CovariateMatrix,
    sets: FeatureIndexSets,
    model: OutcomeModel,
    spec: PropensitySpec,
    sigma: float,
    rng: np.random.Generator,
) -> SemiSyntheticDataset:
    """Simulate assignments and outcomes over the given covariates.

    NumericError when a unit's propensity rounds to exactly 0 or 1.
    """
    check_scale("noise sigma", sigma)
    _check_design(sets, model, spec, covariates.d)
    x = covariates.x
    mu, f0, f1 = eval_components(model, sets, x)
    y0 = mu + model.omega_pred * f0
    y1 = mu + model.omega_pred * f1
    tau = model.omega_pred * (f1 - f0)  # same arithmetic path as true_cate
    pi = _propensity(spec, x, mu, f0, f1)
    outside = np.count_nonzero((pi == 0.0) | (pi == 1.0))
    if outside:
        raise NumericError(f"positivity fails at omega_pi {spec.omega_pi}: {outside} of "
                           f"{covariates.n} units have a propensity of exactly 0 or 1")
    rng_w, rng_eps = rng.spawn(2)
    w = (rng_w.random(covariates.n) < pi).astype(int)
    eps = rng_eps.normal(0.0, sigma, size=covariates.n) if sigma > 0 else np.zeros(covariates.n)
    y = w * y1 + (1 - w) * y0 + eps
    truth = GroundTruth(y0, y1, tau, pi, sets, model, float(sigma), spec)
    return SemiSyntheticDataset(covariates, w, y, truth, np.arange(covariates.n))


def _check_design(
    sets: FeatureIndexSets, model: OutcomeModel, spec: PropensitySpec, d: int
) -> None:
    """InvalidConfigError unless the design fits ``d`` features: the one design rule.

    Every driver index lies in range(d), each alpha_* has one entry per index
    of its set, and ``spec.irrelevant_index`` is None or a plain int in
    range(d) outside every driver set, whatever the propensity kind.
    """
    for key, idx in (("i_prog", sets.prognostic), ("i_0", sets.predictive_0),
                     ("i_1", sets.predictive_1)):
        outside = idx[(idx < 0) | (idx >= d)]
        if outside.size:
            raise InvalidConfigError(f"{key} holds index {outside[0]}, outside the {d} features")
    for name in ("alpha_prog", "alpha_0", "alpha_1"):
        shape = getattr(model, name).shape
        if shape != sets.prognostic.shape:  # the three sets have equal sizes
            raise InvalidConfigError(
                f"{name} has shape {shape}, but its index set has {len(sets.prognostic)} entries"
            )
    idx = spec.irrelevant_index
    if idx is not None and (type(idx) is not int or not 0 <= idx < d or idx in sets.all_relevant):
        raise InvalidConfigError(
            f"irrelevant_index {idx!r} is not one of the {d} features outside the driver sets"
        )


def _take(ds: SemiSyntheticDataset, idx: np.ndarray) -> SemiSyntheticDataset:
    t = ds.truth
    return SemiSyntheticDataset(
        CovariateMatrix(ds.covariates.x[idx], ds.covariates.feature_names),
        ds.w[idx],
        ds.y[idx],
        GroundTruth(
            t.y0[idx], t.y1[idx], t.tau[idx], t.pi[idx], t.sets, t.model, t.noise_sigma,
            t.propensity,
        ),
        ds.unit_ids[idx],
    )


def train_test_split(
    ds: SemiSyntheticDataset, test_fraction: float, rng: np.random.Generator
) -> tuple[SemiSyntheticDataset, SemiSyntheticDataset]:
    """Disjoint random partition through ``holdout_split``, rows kept in order.

    Ground truth rides along with both parts.
    """
    train_idx, test_idx = holdout_split(ds.n, test_fraction, rng)
    return _take(ds, np.sort(train_idx)), _take(ds, np.sort(test_idx))


# --- Persistence -----------------------------------------------------------

_DATA_PREFIX = ["unit_id", "w", "y"]
_TRUTH_HEADER = ["unit_id", "y0", "y1", "tau", "pi"]


def save_dataset(
    ds: SemiSyntheticDataset,
    data_path: str | Path,
    truth_path: str | Path,
    meta_path: str | Path,
) -> None:
    """Write the observed CSV, the ground-truth CSV and the JSON sidecar."""
    ids = [int(u) for u in ds.unit_ids]
    tables.write_table(
        data_path,
        _DATA_PREFIX + [f"x_{j}" for j in range(ds.d)],
        ([u, int(w), y, *x] for u, w, y, x in zip(ids, ds.w, ds.y, ds.covariates.x)),
    )
    t = ds.truth
    tables.write_table(truth_path, _TRUTH_HEADER, zip(ids, t.y0, t.y1, t.tau, t.pi))
    meta = {
        "feature_names": ds.covariates.feature_names,
        "i_prog": t.sets.prognostic.tolist(),
        "i_0": t.sets.predictive_0.tolist(),
        "i_1": t.sets.predictive_1.tolist(),
        "alpha_prog": t.model.alpha_prog.tolist(),
        "alpha_0": t.model.alpha_0.tolist(),
        "alpha_1": t.model.alpha_1.tolist(),
        "nonlinearity": t.model.nonlinearity,
        "omega_nl": t.model.omega_nl,
        "omega_pred": t.model.omega_pred,
        "sigma": t.noise_sigma,
        "propensity": {
            "kind": t.propensity.kind,
            "omega_pi": t.propensity.omega_pi,
            "irrelevant_index": t.propensity.irrelevant_index,
        },
    }
    tables.write_json(meta_path, meta)


def load_observed(data_path: str | Path) -> tuple[ObservedData, list[str], np.ndarray]:
    """Read the observed CSV only: (data, feature names, unit ids)."""
    def check_header(header):
        if header[:3] != _DATA_PREFIX:
            raise ParseError(f"{data_path}: expected header starting unit_id,w,y", row=0)

    header, unit_ids, body = tables.read_floats(data_path, check_header, ids=True)
    bad = ~np.isin(body[:, 1], (0.0, 1.0))
    if bad.any():
        row = int(np.argmax(bad)) + 1
        raise ParseError(f"{data_path}: data row {row} needs w in {{0, 1}}", row=row)
    return (
        ObservedData(body[:, 3:], body[:, 1].astype(int), body[:, 2]),
        header[3:],
        unit_ids,
    )


def load_meta(
    meta_path: str | Path,
) -> tuple[list[str], FeatureIndexSets, OutcomeModel, PropensitySpec, float]:
    """Read the JSON sidecar: (feature names, index sets, outcome model, propensity, sigma).

    A missing key, or a value that the constructors or ``generate_dataset``'s
    checks reject (``_check_design`` over ``feature_names``), raises
    ``ParseError`` naming the file.
    """
    meta = tables.read_json(meta_path)
    try:
        prop = meta["propensity"]
        check_scale("noise sigma", meta["sigma"])
        sets = FeatureIndexSets(meta["i_prog"], meta["i_0"], meta["i_1"])
        model = OutcomeModel(
            meta["alpha_prog"], meta["alpha_0"], meta["alpha_1"],
            meta["nonlinearity"], meta["omega_nl"], meta["omega_pred"],
        )
        spec = PropensitySpec(prop["kind"], prop["omega_pi"], prop["irrelevant_index"])
        _check_design(sets, model, spec, len(meta["feature_names"]))
        return meta["feature_names"], sets, model, spec, meta["sigma"]
    except KeyError as err:
        raise ParseError(f"{meta_path}: missing key {err}") from None
    except (TypeError, ValueError, InvalidConfigError) as err:
        raise ParseError(f"{meta_path}: malformed sidecar: {err}") from None


def load_dataset(
    data_path: str | Path, truth_path: str | Path, meta_path: str | Path
) -> SemiSyntheticDataset:
    """Rebuild a full dataset from the three exported files; every truth value must be finite."""
    obs, _, unit_ids = load_observed(data_path)
    def check_header(header):
        if header != _TRUTH_HEADER:
            raise ParseError(f"{truth_path}: expected header unit_id,y0,y1,tau,pi", row=0)

    _, truth_ids, tbody = tables.read_floats(truth_path, check_header, ids=True)
    if not np.array_equal(truth_ids, unit_ids):
        raise ParseError(f"{truth_path}: unit ids do not match {data_path}")
    names, sets, model, spec, sigma = load_meta(meta_path)
    truth = GroundTruth(
        tbody[:, 1], tbody[:, 2], tbody[:, 3], tbody[:, 4], sets, model, sigma, spec
    )
    return SemiSyntheticDataset(CovariateMatrix(obs.x, names), obs.w, obs.y, truth, unit_ids)
