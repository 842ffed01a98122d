"""Post-hoc feature-importance methods for scalar black-box functions.

All methods score the effect estimate itself, never the per-arm outcome
models. Gradient methods need a function that exposes exact gradients;
perturbation methods need only values. A brute-force Shapley enumeration
is included as the verification oracle for the Monte-Carlo sampler.
``attribute_batch`` looks each method up in one table that calls these
same public functions (gradient methods and ablation on the whole batch);
its ``AttributionMatrix`` of scores, method and scored rows is saved and
read back as a table through ``tables``.

Every method evaluates its points (IG path points, Shapley coalitions,
ablation and permutation points, saliency rows) in blocks from
``_blocks``, so one evaluation's activations stay a few MB whatever the
row cap, IG steps or Shapley permutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import tables
from .errors import CapacityError, InvalidConfigError, ParseError, ShapeError
from .rng import stream

SALIENCY = "saliency"
INTEGRATED_GRADIENTS = "integrated_gradients"
FEATURE_ABLATION = "feature_ablation"
FEATURE_PERMUTATION = "feature_permutation"
SHAPLEY_MC = "shapley_mc"
SHAPLEY_EXACT = "shapley_exact"

_EXACT_SHAPLEY_MAX_D = 15
_BLOCK_POINTS = 4096  # points per evaluation: 3.3 MB per 100-unit activation


@dataclass
class ScalarFunction:
    """Batch evaluator plus optional exact batch gradient."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None


def as_function(f) -> ScalarFunction:
    """Adapt an effect estimator; a ScalarFunction passes through."""
    if isinstance(f, ScalarFunction):
        return f
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


def integrated_gradients(f, x, baseline=None, steps: int = 50) -> np.ndarray:
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


def shapley_mc(f, x, baseline=None, n_permutations: int = 1000, rng=None) -> np.ndarray:
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


@dataclass(frozen=True)
class AttributionSettings:
    baseline: np.ndarray | None = None  # None means the zero vector
    steps: int = 50
    n_permutations: int | None = None  # None means 100 * d
    max_rows: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.max_rows < 1:
            raise InvalidConfigError(f"the attribution row cap must be >= 1, got {self.max_rows}")
        if self.steps < 1:
            raise InvalidConfigError(f"IG steps must be >= 1, got {self.steps}")
        if self.n_permutations is not None and self.n_permutations < 1:
            raise InvalidConfigError(
                f"Shapley permutations must be >= 1, got {self.n_permutations}"
            )


def _rowwise(x: np.ndarray, kernel) -> np.ndarray:
    """Scores of every row ``k`` of ``x`` from ``kernel(k, x[k])``."""
    return np.array([kernel(k, row) for k, row in enumerate(x)], dtype=float).reshape(x.shape)


# Each method over the scored rows: (fn, rows, baseline, settings) -> (rows, d) scores.
# MC Shapley draws row k's orderings from stream(seed, 2, k), permutation
# importance its column shuffles from stream(seed, 1).
_BATCH_METHODS = {
    SALIENCY: lambda fn, x, b, s: _batched_saliency(fn, x),
    INTEGRATED_GRADIENTS: lambda fn, x, b, s: _batched_ig(fn, x, b, s.steps),
    FEATURE_ABLATION: lambda fn, x, b, s: _batched_ablation(fn, x, b),
    FEATURE_PERMUTATION: lambda fn, x, b, s: feature_permutation(fn, x, stream(s.seed, 1)),
    SHAPLEY_MC: lambda fn, x, b, s: _rowwise(x, lambda k, row: shapley_mc(
        fn, row, b, 100 * len(b) if s.n_permutations is None else s.n_permutations,
        stream(s.seed, 2, k),
    )),
    SHAPLEY_EXACT: lambda fn, x, b, s: _rowwise(x, lambda k, row: shapley_exact(fn, row, b)),
}
METHODS = tuple(_BATCH_METHODS)


def attribute_batch(
    method: str,
    est,
    x_query: np.ndarray,
    settings: AttributionSettings = AttributionSettings(),
) -> AttributionMatrix:
    """Apply one method to the effect function over a capped query batch.

    When the query exceeds ``settings.max_rows``, the scored subset is the
    first ``max_rows`` rows of a seeded shuffle (reported in ascending
    order via ``row_indices``).
    """
    if method not in _BATCH_METHODS:
        raise InvalidConfigError(f"unknown attribution method {method!r}")
    fn = as_function(est)
    x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
    m, d = x_query.shape
    if m > settings.max_rows:
        shuffle = stream(settings.seed, 0).permutation(m)
        rows = np.sort(shuffle[: settings.max_rows])
    else:
        rows = np.arange(m)
    baseline = _baseline_for(settings.baseline, d)
    return AttributionMatrix(
        _BATCH_METHODS[method](fn, x_query[rows], baseline, settings), method, rows
    )


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
    totals = np.zeros((m, d))
    for start, stop in _blocks(m * steps):
        row, step = np.divmod(np.arange(start, stop), steps)
        np.add.at(totals, row, gradient(baseline + ts[step, None] * span[row]))
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
    """Read a score CSV back: (matrix, unit ids)."""
    header, rows = tables.read_table(path)
    if header[:2] != ["unit_id", "method"]:
        raise ParseError(f"{path}: expected header starting unit_id,method", row=0)
    unit_ids = tables.parse_block(path, rows, 0, 1, int)[:, 0]
    scores = tables.parse_block(path, rows, 2)
    mat = AttributionMatrix(scores, rows[0][1], np.arange(len(rows)))
    return mat, unit_ids


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
