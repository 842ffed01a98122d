"""Post-hoc feature-importance methods for scalar black-box functions.

All methods score the effect estimate itself, never the per-arm outcome
models. Gradient methods need a function that exposes exact gradients;
perturbation methods need only values. A brute-force Shapley enumeration
is included as the verification oracle for the Monte-Carlo sampler.
``attribute_batch`` looks each method up in one table that calls these
same public functions (gradient methods and ablation on the whole batch)
on one fixed schedule: ``IG_STEPS`` midpoints per IG path and 100·d
orderings per MC Shapley row. Its ``AttributionMatrix`` of scores, method
and scored rows is saved and read back as a table through ``tables``.

Every method evaluates its points (IG path points, Shapley coalitions,
ablation and permutation points, saliency rows) in blocks from
``_blocks`` of at most ``_BLOCK_POINTS`` = 512 points, so one
evaluation's 100-unit activations are 0.4 MB each, small enough for a
core's L2 cache, whatever the row cap, IG steps or Shapley permutations.
``attribute_batch`` makes one ``nn.Workspace`` per call and a fitted
estimator runs all of its networks in it, block after block, so past the
first block no activation buffer is allocated; the workspace goes when
the call returns. Scores depend on the block size in their last bits (a
matrix product may round a row by the height of its block).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import tables
from .errors import CapacityError, InvalidConfigError, ParseError, ShapeError
from .learners import CateEstimator
from .nn import Workspace
from .rng import stream

SALIENCY = "saliency"
INTEGRATED_GRADIENTS = "integrated_gradients"
FEATURE_ABLATION = "feature_ablation"
FEATURE_PERMUTATION = "feature_permutation"
SHAPLEY_MC = "shapley_mc"
SHAPLEY_EXACT = "shapley_exact"

IG_STEPS = 50  # midpoints per integrated-gradients path
_EXACT_SHAPLEY_MAX_D = 15
_BLOCK_POINTS = 512  # points per evaluation: 0.4 MB per 100-unit activation, L2-sized


@dataclass
class ScalarFunction:
    """Batch evaluator plus optional exact batch gradient."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None


def as_function(f, ws: Workspace | None = None) -> ScalarFunction:
    """Adapt an effect estimator; a ScalarFunction passes through.

    A fitted ``CateEstimator`` runs its networks in ``ws`` (each evaluation
    in a fresh workspace when it is None).
    """
    if isinstance(f, ScalarFunction):
        return f
    if isinstance(f, CateEstimator):
        return ScalarFunction(partial(f.predict_cate, ws=ws), partial(f.gradient, ws=ws))
    if hasattr(f, "predict_cate"):
        return ScalarFunction(f.predict_cate, getattr(f, "gradient", None))
    raise InvalidConfigError(f"cannot interpret {type(f).__name__} as a scalar function")


def _gradient_of(fn: ScalarFunction, method: str):
    if fn.gradient is None:
        raise InvalidConfigError(f"{method} needs a function with gradients")
    return fn.gradient


def _blocks(n_items: int, points_per_item: int = 1):
    """Consecutive ``(start, stop)`` item ranges of at most ``_BLOCK_POINTS`` points.

    An item is what a method cannot split: one Shapley ordering with its
    d+1 prefix points, say. An item wider than a block gets a block alone.
    """
    per_block = max(1, _BLOCK_POINTS // points_per_item)
    for start in range(0, n_items, per_block):
        yield start, min(start + per_block, n_items)


def _values(fn: ScalarFunction, points: np.ndarray) -> np.ndarray:
    return np.asarray(fn.value(points), dtype=float).reshape(-1)


def _baseline_for(baseline, d: int) -> np.ndarray:
    """The zero vector for None, else ``baseline`` checked to have ``d`` entries."""
    if baseline is None:
        return np.zeros(d)
    baseline = np.asarray(baseline, dtype=float)
    if baseline.shape != (d,):
        raise ShapeError(f"baseline shape {baseline.shape} does not match {d} features")
    return baseline


def _point(f, x, baseline):
    """(function, covariate vector, checked baseline) for a single-point method."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError("expected a single covariate vector")
    return as_function(f), x, _baseline_for(baseline, len(x))


def saliency(f, x) -> np.ndarray:
    """Plain gradient at the input."""
    fn, x, _ = _point(f, x, None)
    return _batched_saliency(fn, x[None])[0]


def integrated_gradients(f, x, baseline=None, steps: int = IG_STEPS) -> np.ndarray:
    """Midpoint-rule path integral of the gradient from baseline to x."""
    fn, x, b = _point(f, x, baseline)
    return _batched_ig(fn, x[None], b, steps)[0]


def feature_ablation(f, x, baseline=None) -> np.ndarray:
    """Drop in output when each coordinate is reset to its baseline."""
    fn, x, b = _point(f, x, baseline)
    return _batched_ablation(fn, x[None], b)[0]


def feature_permutation(f, x_query: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-row sensitivity to shuffling each feature column across the batch.

    A global method: one shared permutation per feature, scores depend on
    the whole query batch. Returns an (m, d) score array.
    """
    fn = as_function(f)
    x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
    m, d = x_query.shape
    if m < 2:
        raise InvalidConfigError("feature_permutation needs at least 2 query rows")
    base_vals = np.empty(m)
    for start, stop in _blocks(m):
        base_vals[start:stop] = _values(fn, x_query[start:stop])
    scores = np.empty((m, d))
    for i in range(d):
        order = rng.permutation(m)
        for start, stop in _blocks(m):
            shuffled = x_query[start:stop].copy()
            shuffled[:, i] = x_query[order[start:stop], i]
            scores[start:stop, i] = base_vals[start:stop] - _values(fn, shuffled)
    return scores


def shapley_mc(f, x, baseline=None, *, n_permutations: int, rng=None) -> np.ndarray:
    """Monte-Carlo Shapley values from sampled feature orderings.

    Walks each sampled ordering from the baseline, crediting every feature
    its marginal change; off-coalition coordinates sit at the baseline.
    Unbiased for the exact Shapley values of the same coalition game.
    """
    fn, x, b = _point(f, x, baseline)
    if n_permutations < 1:
        raise InvalidConfigError("n_permutations must be >= 1")
    if rng is None:
        raise InvalidConfigError("shapley_mc requires a seeded generator")
    d = len(x)
    totals = np.zeros(d)
    for start, stop in _blocks(n_permutations, d + 1):
        k = stop - start
        orders = np.array([rng.permutation(d) for _ in range(k)])
        points = np.empty((k, d + 1, d))
        points[:, 0, :] = b
        rows = np.arange(k)
        for step in range(d):
            points[:, step + 1, :] = points[:, step, :]
            points[rows, step + 1, orders[:, step]] = x[orders[:, step]]
        marginals = np.diff(_values(fn, points.reshape(-1, d)).reshape(k, d + 1), axis=1)
        np.add.at(totals, orders.reshape(-1), marginals.reshape(-1))
    return totals / n_permutations


def shapley_exact(f, x, baseline=None) -> np.ndarray:
    """Exact Shapley values by full coalition enumeration (d <= 15)."""
    fn, x, b = _point(f, x, baseline)
    d = len(x)
    if d > _EXACT_SHAPLEY_MAX_D:
        raise CapacityError(f"exact Shapley enumeration capped at d={_EXACT_SHAPLEY_MAX_D}")
    n_sets = 1 << d
    masks = np.arange(n_sets)
    member = ((masks[:, None] >> np.arange(d)) & 1).astype(bool)
    values = np.empty(n_sets)
    for start, stop in _blocks(n_sets):
        values[start:stop] = _values(fn, np.where(member[start:stop], x, b))
    sizes = member.sum(axis=1)
    fact = np.array([math.factorial(k) for k in range(d + 1)], dtype=float)
    phi = np.zeros(d)
    for i in range(d):
        without = ~member[:, i]
        s = sizes[without]
        weight = fact[s] * fact[d - 1 - s] / fact[d]
        gain = values[masks[without] | (1 << i)] - values[without]
        phi[i] = float(np.sum(weight * gain))
    return phi


# --- Batch application -----------------------------------------------------


@dataclass
class AttributionMatrix:
    """Per-instance, per-feature importance scores for one method."""

    scores: np.ndarray
    method: str
    row_indices: np.ndarray  # rows of the original query matrix that were scored

    def __post_init__(self):
        self.scores = np.atleast_2d(np.asarray(self.scores, dtype=float))
        if not np.all(np.isfinite(self.scores)):
            raise ShapeError("attribution scores must be finite")
        if len(self.row_indices) != self.scores.shape[0]:
            raise ShapeError("row_indices length must match score rows")


def _rowwise(x: np.ndarray, kernel) -> np.ndarray:
    """Scores of every row ``k`` of ``x`` from ``kernel(k, x[k])``."""
    return np.array([kernel(k, row) for k, row in enumerate(x)], dtype=float).reshape(x.shape)


# Each method over the scored rows, against the zero baseline:
# (fn, rows, seed) -> (rows, d) scores. MC Shapley draws row k's 100·d
# orderings from stream(seed, 2, k), permutation importance its column
# shuffles from stream(seed, 1).
_BATCH_METHODS = {
    SALIENCY: lambda fn, x, seed: _batched_saliency(fn, x),
    INTEGRATED_GRADIENTS: lambda fn, x, seed: _batched_ig(fn, x, np.zeros(x.shape[1]), IG_STEPS),
    FEATURE_ABLATION: lambda fn, x, seed: _batched_ablation(fn, x, np.zeros(x.shape[1])),
    FEATURE_PERMUTATION: lambda fn, x, seed: feature_permutation(fn, x, stream(seed, 1)),
    SHAPLEY_MC: lambda fn, x, seed: _rowwise(x, lambda k, row: shapley_mc(
        fn, row, n_permutations=100 * len(row), rng=stream(seed, 2, k)
    )),
    SHAPLEY_EXACT: lambda fn, x, seed: _rowwise(x, lambda k, row: shapley_exact(fn, row)),
}
METHODS = tuple(_BATCH_METHODS)


def check_row_cap(max_rows: int) -> None:
    """InvalidConfigError unless the attribution row cap is at least 1."""
    if max_rows < 1:
        raise InvalidConfigError(f"the attribution row cap must be >= 1, got {max_rows}")


def attribute_batch(
    method: str, est, x_query: np.ndarray, *, max_rows: int = 1000, seed: int = 0
) -> AttributionMatrix:
    """Apply one method to the effect function over a capped query batch.

    When the query exceeds ``max_rows``, the scored subset is the first
    ``max_rows`` rows of a shuffle drawn from ``seed`` (reported in
    ascending order via ``row_indices``). Every method scores against the
    zero baseline; the single-point functions take another. A fitted
    estimator evaluates every block in one workspace that lives for this
    call.
    """
    if method not in _BATCH_METHODS:
        raise InvalidConfigError(f"unknown attribution method {method!r}")
    check_row_cap(max_rows)
    fn = as_function(est, Workspace())
    x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
    m = x_query.shape[0]
    if m > max_rows:
        rows = np.sort(stream(seed, 0).permutation(m)[:max_rows])
    else:
        rows = np.arange(m)
    return AttributionMatrix(_BATCH_METHODS[method](fn, x_query[rows], seed), method, rows)


def _batched_saliency(fn: ScalarFunction, x_sel: np.ndarray) -> np.ndarray:
    gradient = _gradient_of(fn, SALIENCY)
    out = np.empty(x_sel.shape)
    for start, stop in _blocks(len(x_sel)):
        out[start:stop] = gradient(x_sel[start:stop])
    return out


def _batched_ig(fn: ScalarFunction, x_sel: np.ndarray, baseline: np.ndarray, steps: int):
    gradient = _gradient_of(fn, INTEGRATED_GRADIENTS)
    if steps < 1:
        raise InvalidConfigError("steps must be >= 1")
    m, d = x_sel.shape
    ts = (np.arange(steps) + 0.5) / steps
    span = x_sel - baseline
    # Path point p is row p // steps at step p % steps; a block may split a
    # row's steps, and np.add.at still sums each row's gradients in step order.
    # Each block's points are gathered into one buffer for the call, then
    # scaled and shifted in place: baseline + t * span, rounded as before.
    totals = np.zeros((m, d))
    buf = np.empty((min(m * steps, _BLOCK_POINTS), d))
    for start, stop in _blocks(m * steps):
        row, step = np.divmod(np.arange(start, stop), steps)
        points = np.take(span, row, axis=0, out=buf[: stop - start], mode="clip")
        points *= ts[step, None]
        points += baseline
        np.add.at(totals, row, gradient(points))
    return span * (totals / steps)


def _batched_ablation(fn: ScalarFunction, x_sel: np.ndarray, baseline: np.ndarray):
    """Row k's points: x_k, then x_k with coordinate i at the baseline, for each i."""
    m, d = x_sel.shape
    coords = np.arange(d)
    out = np.empty((m, d))
    for start, stop in _blocks(m, d + 1):
        points = np.repeat(x_sel[start:stop, None, :], d + 1, axis=1)
        points[:, coords + 1, coords] = baseline
        vals = _values(fn, points.reshape(-1, d)).reshape(stop - start, d + 1)
        out[start:stop] = vals[:, :1] - vals[:, 1:]
    return out


def load_attributions(path: str | Path) -> tuple[AttributionMatrix, np.ndarray]:
    """Read a score CSV back: (matrix, unit ids); every row names one method, scores finite."""
    methods = []

    def check_header(header):
        if header[:2] != ["unit_id", "method"]:
            raise ParseError(f"{path}: expected header starting unit_id,method", row=0)

    def check_method(r, row):
        if not methods:
            methods.append(row[1])
        elif row[1] != methods[0]:
            raise ParseError(
                f"{path}: row {r} names method {row[1]!r}, row 1 {methods[0]!r}", row=r
            )

    _, unit_ids, scores = tables.read_floats(
        path, check_header, start=2, ids=True, finite=True, check_row=check_method
    )
    return AttributionMatrix(scores, methods[0], np.arange(len(scores))), unit_ids


def save_attributions(
    matrix: AttributionMatrix, unit_ids: np.ndarray, path: str | Path
) -> None:
    """CSV export: unit_id, method, a_0..a_{d-1}."""
    unit_ids = np.asarray(unit_ids)
    if len(unit_ids) != matrix.scores.shape[0]:
        raise ShapeError("unit id count must match score rows")
    tables.write_table(
        path,
        ["unit_id", "method"] + [f"a_{j}" for j in range(matrix.scores.shape[1])],
        ([int(uid), matrix.method, *row] for uid, row in zip(unit_ids, matrix.scores)),
    )
