"""Experiment orchestration.

A cell is one (knob value, seed) pair, run in two passes. ``fit_cell``
generates a dataset with the knob's config field (``KNOB_FIELDS``) set to
the knob value, splits it, and fits every configured learner on the same
training part. ``score_cell`` attributes each fitted effect function with
one method on the same capped test rows and scores against the sealed
truth; attribution draws only from the cell's attribution seed, so one fit
pass can be scored by any method. ``run_cell`` is the two under the
config's method; the IG steps and Shapley orderings are
``attribute_batch``'s fixed schedule. ``fit_learners`` fits a cell's
labels and ``catebench fit``'s one: each label draws from its own stream,
and DR and X regress on one first stage (``fit_nuisances`` from T's stream
and the propensity stream), fitted once and only when one of them is
there; T is then its two arms, else the same arms fitted alone. Sweeps
run the grid x seeds product through ``learners.side_by_side``, the one
runner for independent work, which also fits a label's independent
networks side by side in processes of their own when workers outnumber
cells; results are keyed records, so collection order never matters. A
data failure is any
``errors.DataError``, raised where the failure is found (a propensity of
exactly 0 or 1, a constant propensity signal, an arm too small, a
non-finite gradient). ``fit_cell`` keeps one in place of the estimator
(the dataset's is every label's, the first stage's each of T, DR and
X's), and one handler in ``score_cell`` turns it, or the one of all-zero
attributions, into a logged, flagged NaN record (``ResultRecord.failed``,
counted in ``AggregateRow.n_failed``); any other error propagates and
stops the run. ``ExperimentConfig`` checks its generator values, and each
knob value under the field it sets, by ``dgp``'s own value rules, so a
config holds no rule of its own for them. The result table has one
column per ``ResultRecord`` field and is written and read through
``tables``.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import astuple, dataclass, field, fields, replace
from functools import partial
from itertools import count
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import attribution, dgp, learners, metrics, tables
from .errors import DataError, InvalidConfigError, ParseError
from .nn import VALIDATION_FRACTION, TrainConfig, holdout_count, splits
from .rng import float_key, label_key, stream

log = logging.getLogger(__name__)

KNOB_PREDICTIVE_SCALE = "predictive_scale"
KNOB_NONLINEARITY_SCALE = "nonlinearity_scale"
KNOB_PROPENSITY_SCALE = "propensity_scale"
# Each sweep knob and the config field whose value it replaces in a cell.
KNOB_FIELDS = {
    KNOB_PREDICTIVE_SCALE: "omega_pred",
    KNOB_NONLINEARITY_SCALE: "omega_nl",
    KNOB_PROPENSITY_SCALE: "omega_pi",
}
# The ``dgp`` rule of each config field that a knob can set, and of sigma.
_FIELD_RULES = {"omega_pred": dgp.check_scale, "omega_nl": dgp.check_omega_nl,
                "omega_pi": dgp.check_scale, "sigma": dgp.check_scale}


def _check_knob(knob: str) -> None:
    if knob not in KNOB_FIELDS:
        raise InvalidConfigError(f"unknown knob {knob!r}")


def _check_knob_value(knob: str, value: float, key: str) -> None:
    """A value of ``knob``, named by ``key``, under the rule of the config field it sets."""
    _FIELD_RULES[KNOB_FIELDS[knob]](f"{key} for {KNOB_FIELDS[knob]}", value)


DEFAULT_LEARNERS = ("s", "t", "tarnet", "dr", "x")
TEST_FRACTION = 0.2  # share of a cell's units held out for attribution and scoring


# The smallest cell that splits: a test row out of n, then a validation row out of the rest.
MIN_SYNTH_N = next(n for n in count(1) if splits(n, TEST_FRACTION)
                   and splits(n - holdout_count(n, TEST_FRACTION), VALIDATION_FRACTION))

# Sub-stream labels under the (seed, knob bits) root.
_S_COVARIATES = 1
_S_SETS = 2
_S_MODEL = 3
_S_IRRELEVANT = 4
_S_GENERATE = 5
_S_SPLIT = 6
_S_LEARNER = 7
_S_ATTRIBUTION = 8
_S_PROPENSITY = 9


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one sweep needs; ``from_dict`` checks each JSON value's type."""

    dataset_tag: str = "synthetic"
    covariates_csv: str | None = None
    covariates_normalize: str = dgp.NORM_NONE
    synth_n: int = 5000
    synth_d: int = 30
    synth_rho: float = 0.0
    knob: str = KNOB_PREDICTIVE_SCALE
    knob_grid: tuple[float, ...] = (1e-3, 1e-2, 1e-1, 0.5, 1.0)
    omega_pred: float = 1.0
    omega_nl: float = 0.0
    sigma: float = 0.1
    propensity_kind: str = dgp.UNIFORM
    omega_pi: float = 0.0
    learners: tuple[str, ...] = DEFAULT_LEARNERS
    attribution_method: str = attribution.INTEGRATED_GRADIENTS
    seeds: int = 5
    attribution_cap: int = attribution.DEFAULT_ROW_CAP
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        object.__setattr__(self, "knob_grid", tuple(float(v) for v in self.knob_grid))
        object.__setattr__(self, "learners", tuple(self.learners))
        _check_knob(self.knob)
        dgp.check_normalization(self.covariates_normalize)
        dgp.check_propensity_kind(self.propensity_kind)
        if not self.knob_grid:
            raise InvalidConfigError("knob grid must be nonempty")
        if not self.learners:
            raise InvalidConfigError("learner list must be nonempty")
        if self.seeds < 1:
            raise InvalidConfigError("seeds must be >= 1")
        for value in self.knob_grid:
            _check_knob_value(self.knob, value, "knob_grid value")
        for name, rule in _FIELD_RULES.items():
            rule(name, getattr(self, name))
        if len(set(self.knob_grid)) < len(self.knob_grid):  # as floats: 0.0 == -0.0
            raise InvalidConfigError(f"knob values repeat in {list(self.knob_grid)}")
        if len(set(self.learners)) < len(self.learners):  # as written: cfrnet != cfrnet:1
            raise InvalidConfigError(f"learner labels repeat in {list(self.learners)}")
        if self.synth_n < MIN_SYNTH_N:
            raise InvalidConfigError(f"synth_n must be >= {MIN_SYNTH_N}, got {self.synth_n}")
        _check_width(self.synth_d, "synth_d")
        dgp.check_correlation("synth_rho", self.synth_rho)
        attribution.check_settings(self.attribution_method, self.attribution_cap)
        if self.covariates_csv is None:  # else checked where the file is read
            attribution.check_scorable(
                self.attribution_method, self.synth_d, _scored_rows(self, self.synth_n),
                "attribution_method with synth_d, synth_n and attribution_cap",
            )
        for entry in self.learners:
            learners.parse_learner(entry)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        return _decode(ExperimentConfig, d)


# What a JSON value may be for each field type, and how to say so.
_JSON_KINDS = {
    str: ((str,), "a string"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    tuple: ((), "an array"),
    TrainConfig: ((), "a JSON object"),
}


def _decode(cls, obj: dict, prefix: str = ""):
    """``cls`` from a JSON object of its fields; InvalidConfigError on an unknown key."""
    kinds = {f.name: kind for f, kind in tables.field_types(cls)}
    for key in obj:
        if key not in kinds:
            raise InvalidConfigError(f"unknown config key {prefix + key!r}")
    return cls(**{key: _decode_value(kinds[key], v, prefix + key) for key, v in obj.items()})


def _decode_value(kind, value, key: str):
    """A JSON value of field type ``kind``: arrays become tuples, integral floats ints."""
    args = get_args(kind)
    if type(None) in args:  # X | None
        return None if value is None else _decode_value(args[0], value, key)
    if get_origin(kind) is tuple and type(value) is list:
        return tuple(_decode_value(args[0], v, key) for v in value)
    if kind is TrainConfig and type(value) is dict:
        return _decode(kind, value, key + ".")
    if kind is int and type(value) is float and value.is_integer():
        value = int(value)
    types, expected = _JSON_KINDS[get_origin(kind) or kind]
    if type(value) not in types:  # never a bool
        raise InvalidConfigError(f"config key {key!r} must be {expected}, got {value!r}")
    return value


@dataclass(frozen=True)
class ResultRecord:
    dataset: str
    learner: str
    attr_method: str
    knob: str
    knob_value: float
    seed: int
    attr_pred: float
    attr_prog: float
    pehe: float
    wall_ms: float

    @property
    def key(self):
        return (self.knob_value, self.seed, self.learner)

    @property
    def failed(self) -> bool:
        """True when any score is non-finite: the learner failed or its attributions were all 0."""
        return not np.isfinite((self.attr_pred, self.attr_prog, self.pehe)).all()


CSV_COLUMNS = tuple(f.name for f in fields(ResultRecord))  # the result table, in field order


def _scored_rows(config: ExperimentConfig, n: int) -> int:
    """Test rows each learner of an n-unit cell is attributed on."""
    return min(config.attribution_cap, holdout_count(n, TEST_FRACTION))


def _read_covariates(config: ExperimentConfig) -> dgp.CovariateMatrix:
    """The config's ``covariates_csv``, checked against the split, driver sets and method."""
    covariates = dgp.load_covariates_csv(config.covariates_csv, config.covariates_normalize)
    if covariates.n < MIN_SYNTH_N:
        raise InvalidConfigError(f"covariates_csv {config.covariates_csv} must hold >= "
                                 f"{MIN_SYNTH_N} rows, got {covariates.n}")
    _check_width(covariates.d, f"covariates_csv {config.covariates_csv}")
    attribution.check_scorable(
        config.attribution_method, covariates.d, _scored_rows(config, covariates.n),
        f"attribution_method with attribution_cap and covariates_csv {config.covariates_csv}",
    )
    return covariates


def _cell_covariates(config: ExperimentConfig, seed: int, knob_bits: int) -> dgp.CovariateMatrix:
    if config.covariates_csv is not None:
        return _read_covariates(config)
    return dgp.synth_covariates(
        config.synth_n,
        config.synth_d,
        config.synth_rho,
        stream(seed, knob_bits, _S_COVARIATES),
    )


def driver_set_size(d: int) -> int:
    """Covariates per driver index set over d covariates: floor(0.2 * d)."""
    return int(np.floor(0.2 * d))


def _check_width(d: int, source: str) -> None:
    """Reject a covariate count ``d``, named by ``source``, that leaves a driver set empty."""
    if driver_set_size(d) < 1:
        raise InvalidConfigError(
            f"{source} must give each driver set floor(0.2 * d) >= 1 covariates, got {d}"
        )


def fixed_knob_value(config: ExperimentConfig) -> float:
    """The config's standing value for its own knob (used outside sweeps)."""
    return getattr(config, KNOB_FIELDS[config.knob])


def build_dataset(
    config: ExperimentConfig,
    knob_value: float,
    seed: int,
    covariates: dgp.CovariateMatrix | None = None,
) -> dgp.SemiSyntheticDataset:
    """One cell's full dataset before splitting.

    ``covariates``, when given, is the matrix already read from the
    config's ``covariates_csv``; otherwise the cell reads or simulates it.
    """
    knob_bits = float_key(knob_value)
    cell = replace(config, **{KNOB_FIELDS[config.knob]: knob_value})  # the knob set to its value
    if covariates is None:
        covariates = _cell_covariates(config, seed, knob_bits)
    d = covariates.d
    n_i = driver_set_size(d)
    sets = dgp.sample_feature_sets(d, n_i, stream(seed, knob_bits, _S_SETS))
    model = dgp.sample_outcome_model(
        n_i, cell.omega_nl, cell.omega_pred, stream(seed, knob_bits, _S_MODEL)
    )
    irrelevant = None
    if config.propensity_kind == dgp.NONCONFOUNDED:
        irrelevant = dgp.pick_irrelevant_index(d, sets, stream(seed, knob_bits, _S_IRRELEVANT))
    spec = dgp.PropensitySpec(config.propensity_kind, cell.omega_pi, irrelevant)
    return dgp.generate_dataset(
        covariates, sets, model, spec, config.sigma, stream(seed, knob_bits, _S_GENERATE)
    )


def build_cell_dataset(
    config: ExperimentConfig,
    knob_value: float,
    seed: int,
    covariates: dgp.CovariateMatrix | None = None,
):
    """Dataset and split for one cell; shared by every learner in it."""
    ds = build_dataset(config, knob_value, seed, covariates)
    knob_bits = float_key(knob_value)
    return dgp.train_test_split(ds, TEST_FRACTION, stream(seed, knob_bits, _S_SPLIT))


@dataclass(frozen=True)
class FittedCell:
    """One cell after ``fit_cell``, ready for ``score_cell`` under any method."""

    config: ExperimentConfig
    knob_value: float
    seed: int
    test: dgp.SemiSyntheticDataset | None  # None when the dataset failed
    attribution_seed: int
    # per label, in config order: the estimator or its fit's data failure, and the fit's seconds
    fits: tuple[tuple[str, learners.CateEstimator | Exception, float], ...]


def fit_learners(
    labels: tuple[str, ...], train: dgp.ObservedData, config: TrainConfig, *root: int,
    workers: int = 1,
) -> tuple[tuple[str, learners.CateEstimator | Exception, float], ...]:
    """(label, estimator or its data failure, seconds) for each label, fitted on ``train``.

    Label L draws from ``stream(*root, _S_LEARNER, label_key(L))``; a cell's
    root is (seed, knob bits), ``catebench fit``'s (seed,). The first stage is
    fitted once, only for DR or X, with its propensity from ``stream(*root,
    _S_PROPENSITY)``: T is then its arms, its seconds go to the first of T, DR
    and X, and its data failure is each one's. Labels fit one after another;
    the independent networks within one (the first stage's three, T's and
    X's two arms) fit side by side in ``workers`` processes
    (``learners.side_by_side``), with the same bytes for every count.
    """
    users = (learners.STRATEGY_T, *learners.SECOND_STAGES)  # of the first stage
    stage, failure, stage_s = None, None, 0.0  # the first stage, its data failure, its seconds
    if any(label in learners.SECOND_STAGES for label in labels):
        started = time.perf_counter()
        try:
            stage = learners.fit_nuisances(  # the arms from T's own stream
                train, config, stream(*root, _S_LEARNER, label_key(learners.STRATEGY_T)),
                stream(*root, _S_PROPENSITY), workers)
        except DataError as err:
            failure = err
        stage_s = time.perf_counter() - started
    fits = []
    for label in labels:
        rng = stream(*root, _S_LEARNER, label_key(label))
        started = time.perf_counter()
        try:
            fitted = (failure if failure is not None and label in users
                      else learners.fit_learner(label, train, config, rng, stage, workers))
        except DataError as err:
            fitted = err
        seconds = time.perf_counter() - started
        if label in users:  # the first stage's seconds go to its first user
            seconds, stage_s = seconds + stage_s, 0.0
        fits.append((label, fitted, seconds))
    return tuple(fits)


def fit_cell(
    config: ExperimentConfig,
    knob_value: float,
    seed: int,
    covariates: dgp.CovariateMatrix | None = None,
    workers: int = 1,
) -> FittedCell:
    """Build one cell's dataset and split, and fit its learners through ``fit_learners``.

    The dataset's data failure (a propensity of exactly 0 or 1, say) is every
    label's, with no test part. ``covariates`` is as in ``build_dataset``;
    ``workers`` is ``fit_learners``'.
    """
    knob_bits = float_key(knob_value)
    try:
        train, test = build_cell_dataset(config, knob_value, seed, covariates)
        fits = fit_learners(config.learners, train.observed, config.train, seed, knob_bits,
                            workers=workers)
    except DataError as err:  # the dataset's: fit_learners keeps its own per label
        test, fits = None, tuple((label, err, 0.0) for label in config.learners)
    attribution_seed = int(stream(seed, knob_bits, _S_ATTRIBUTION).integers(2**63))
    return FittedCell(config, float(knob_value), seed, test, attribution_seed, fits)


def score_cell(cell: FittedCell, method: str) -> list[ResultRecord]:
    """One record per learner of ``cell``, its estimator attributed by ``method``.

    The one failure handler: a data failure of a fit or of its scoring is
    logged and leaves NaN scores (``pehe`` stays finite when only
    attribution fails). ``wall_ms`` is the fit's time plus the scoring's.
    """
    config = cell.config
    records = []
    for label, fitted, fit_s in cell.fits:
        started = time.perf_counter()
        a_pred = a_prog = pehe_val = float("nan")
        try:
            if isinstance(fitted, Exception):
                raise fitted
            x, truth = cell.test.covariates.x, cell.test.truth
            pehe_val = metrics.pehe(fitted.predict_cate(x), truth.tau)  # whole test set
            mat = attribution.attribute_batch(
                method, fitted, x, max_rows=config.attribution_cap, seed=cell.attribution_seed
            )
            a_pred = metrics.attr_pred(mat, truth.sets.predictive)
            a_prog = metrics.attr_prog(mat, truth.sets.prognostic)
        except DataError as err:  # flagged NaN record
            log.warning("learner %s failed at %s=%s seed %s: %s",
                        label, config.knob, cell.knob_value, cell.seed, err, exc_info=True)
        wall_ms = (fit_s + time.perf_counter() - started) * 1e3
        records.append(ResultRecord(config.dataset_tag, label, method, config.knob, cell.knob_value,
                                    cell.seed, a_pred, a_prog, pehe_val, wall_ms))
    return records


def run_cell(
    config: ExperimentConfig,
    knob_value: float,
    seed: int,
    covariates: dgp.CovariateMatrix | None = None,
    workers: int = 1,
) -> list[ResultRecord]:
    """``fit_cell``, then ``score_cell`` under the config's attribution method."""
    return score_cell(fit_cell(config, knob_value, seed, covariates, workers),
                      config.attribution_method)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> list[ResultRecord]:
    """Execute grid x seeds; deterministic record order regardless of schedule.

    ``workers`` is the number of CPUs the sweep may keep busy: one per
    usable CPU by default, and a positive integer. ``learners.side_by_side``
    runs the cells in ``min(workers, cells)`` processes (in this one when
    that is 1), and each cell fits a label's independent networks side by
    side in ``workers // processes`` processes of its own, so a sweep with
    at least as many cells as workers fits each network in its cell's
    process. BLAS runs on one thread everywhere (see the package
    docstring), so records are the same bytes for every worker count. A
    ``covariates_csv`` is read once and handed to every cell.
    """
    cells = [(v, s) for v in config.knob_grid for s in range(config.seeds)]
    if workers is None:
        workers = usable_cpus()
    if workers < 1:
        raise InvalidConfigError(f"workers must be >= 1, got {workers}")
    processes = min(workers, len(cells))
    covariates = None if config.covariates_csv is None else _read_covariates(config)
    jobs = [partial(run_cell, config, v, s, covariates=covariates, workers=workers // processes)
            for v, s in cells]
    results = [r for records in learners.side_by_side(jobs, processes) for r in records]
    results.sort(key=lambda r: r.key)
    return results


# --- Aggregation ------------------------------------------------------------


@dataclass(frozen=True)
class AggregateRow:
    learner: str
    knob_value: float
    n_seeds: int
    n_failed: int  # records with a non-finite score (``ResultRecord.failed``)
    attr_pred_mean: float
    attr_pred_se: float
    attr_prog_mean: float
    attr_prog_se: float
    pehe_mean: float
    pehe_se: float


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return float("nan"), float("nan")
    if finite.size == 1:
        return float(finite[0]), 0.0
    return float(finite.mean()), float(finite.std(ddof=1) / np.sqrt(finite.size))


def aggregate(records: list[ResultRecord]) -> list[AggregateRow]:
    """Per-(learner, knob value) means and standard errors across seeds."""
    keys = sorted({(r.learner, r.knob_value) for r in records}, key=lambda k: (k[0], k[1]))
    rows = []
    for learner, value in keys:
        sub = [r for r in records if r.learner == learner and r.knob_value == value]
        ap = np.array([r.attr_pred for r in sub])
        ag = np.array([r.attr_prog for r in sub])
        pe = np.array([r.pehe for r in sub])
        rows.append(
            AggregateRow(
                learner, value, len(sub), sum(r.failed for r in sub),
                *_mean_se(ap), *_mean_se(ag), *_mean_se(pe),
            )
        )
    return rows


# --- CSV --------------------------------------------------------------------


def emit_csv(records: list[ResultRecord], path: str | Path, include_timing: bool = False) -> None:
    """Write the result table.

    Timing is opt-in: the default leaves the wall_ms cells empty so that a
    rerun with identical seeds produces a byte-identical file.
    """
    tables.write_table(
        path,
        CSV_COLUMNS,
        (astuple(r)[:-1] + (r.wall_ms if include_timing else "",) for r in records),
    )


def load_results(path: str | Path) -> list[ResultRecord]:
    """Read a result CSV; an empty (untimed) wall_ms cell reads as NaN.

    Each row must be one a sweep can write: a learner label ``parse_learner``
    takes, a known attribution method and knob, a seed >= 0, and a finite
    knob value that the rule of the knob's field takes. ParseError names the
    row and column of the first cell that is not. A score may be NaN (a
    failed record).
    """
    records = []

    def check_header(header):
        if tuple(header) != CSV_COLUMNS:
            raise ParseError(f"{path}: unexpected result header", row=0)

    def check(r, c, rule, *args):
        """``rule(*args)``; its InvalidConfigError becomes a ParseError naming the cell."""
        try:
            rule(*args)
        except InvalidConfigError as err:
            raise ParseError(f"{path}: {err} at row {r}, column {c}", row=r, col=c) from None

    def parse_row(r, row):
        row[9] = row[9] or "nan"
        check(r, 1, learners.parse_learner, row[1])
        check(r, 2, attribution.check_settings, row[2], 1)  # the method; a cap of 1 holds
        check(r, 3, _check_knob, row[3])
        knob_value = tables.read_finite(path, r, 4, row[4])
        check(r, 4, _check_knob_value, row[3], knob_value, "knob_value")
        seed = tables.read_cell(path, r, 5, row[5], int)
        if seed < 0:
            raise ParseError(f"{path}: negative seed {seed} at row {r}, column 5", row=r, col=5)
        scores = [tables.read_cell(path, r, c, row[c]) for c in range(6, 10)]
        records.append(ResultRecord(*row[:4], knob_value, seed, *scores))

    tables.read_table(path, parse_row, check_header)
    return records


# --- Presets ----------------------------------------------------------------


def experiment_preset(name: str) -> ExperimentConfig:
    """Named sweep defaults for the three standard experiments."""
    if name == "predictive_scale":
        base = dict(
            knob=KNOB_PREDICTIVE_SCALE,
            knob_grid=(1e-3, 1e-2, 1e-1, 0.5, 1.0),
            omega_nl=0.0,
            seeds=30,
        )
    elif name == "nonlinearity":
        base = dict(
            knob=KNOB_NONLINEARITY_SCALE,
            knob_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
            omega_pred=1.0,
            seeds=30,
        )
    elif name == "confounding":
        base = dict(
            knob=KNOB_PROPENSITY_SCALE,
            knob_grid=(0.0, 0.5, 1.0, 2.0, 4.0),
            omega_pred=1.0,
            omega_nl=0.0,
            propensity_kind=dgp.PREDICTIVE_CONFOUNDING,
            learners=DEFAULT_LEARNERS + ("cfrnet:10",),
            seeds=10,
        )
    else:
        raise InvalidConfigError(f"unknown experiment preset {name!r}")
    return ExperimentConfig(**base)
