"""Post-hoc feature-importance methods for scalar black-box functions.

All methods score the effect estimate itself, never the per-arm outcome
models. Gradient methods need a function that exposes exact gradients;
perturbation methods need only values. A brute-force Shapley enumeration
is included as the verification oracle for the Monte-Carlo sampler.
Score matrices are saved and read back as tables through ``tables``.
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
METHODS = (
    SALIENCY,
    INTEGRATED_GRADIENTS,
    FEATURE_ABLATION,
    FEATURE_PERMUTATION,
    SHAPLEY_MC,
    SHAPLEY_EXACT,
)

_EXACT_SHAPLEY_MAX_D = 15
_EVAL_CHUNK = 65536


@dataclass
class ScalarFunction:
    """Batch evaluator plus optional exact batch gradient."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None


def as_function(f) -> ScalarFunction:
    """Adapt an effect estimator, a ScalarFunction, or a bare callable."""
    if isinstance(f, ScalarFunction):
        return f
    if hasattr(f, "predict_cate"):
        return ScalarFunction(f.predict_cate, getattr(f, "gradient", None))
    if callable(f):
        return ScalarFunction(f)
    raise InvalidConfigError(f"cannot interpret {type(f).__name__} as a scalar function")


def _require_gradient(fn: ScalarFunction, method: str):
    if fn.gradient is None:
        raise InvalidConfigError(f"{method} needs a function with gradients")


def _as_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError("expected a single covariate vector")
    return x


def _baseline_for(x: np.ndarray, baseline) -> np.ndarray:
    if baseline is None:
        return np.zeros_like(x)
    baseline = np.asarray(baseline, dtype=float)
    if baseline.shape != x.shape:
        raise ShapeError("baseline shape does not match input")
    return baseline


def saliency(f, x) -> np.ndarray:
    """Plain gradient at the input."""
    fn = as_function(f)
    _require_gradient(fn, SALIENCY)
    x = _as_point(x)
    return fn.gradient(x[None, :])[0]


def integrated_gradients(f, x, baseline=None, steps: int = 50) -> np.ndarray:
    """Midpoint-rule path integral of the gradient from baseline to x."""
    fn = as_function(f)
    _require_gradient(fn, INTEGRATED_GRADIENTS)
    x = _as_point(x)
    return _batched_ig(fn, x[None], _baseline_for(x, baseline), steps)[0]


def feature_ablation(f, x, baseline=None) -> np.ndarray:
    """Drop in output when each coordinate is reset to its baseline."""
    fn = as_function(f)
    x = _as_point(x)
    b = _baseline_for(x, baseline)
    d = len(x)
    points = np.tile(x, (d + 1, 1))
    for i in range(d):
        points[i + 1, i] = b[i]
    vals = np.asarray(fn.value(points), dtype=float).reshape(-1)
    return vals[0] - vals[1:]


def feature_permutation(f, x_query: np.ndarray, rng: np.random.Generator):
    """Per-row sensitivity to shuffling each feature column across the batch.

    A global method: one shared permutation per feature, scores depend on
    the whole query batch. Returns an AttributionMatrix.
    """
    fn = as_function(f)
    x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
    m, d = x_query.shape
    if m < 2:
        raise InvalidConfigError("feature_permutation needs at least 2 query rows")
    base_vals = np.asarray(fn.value(x_query), dtype=float).reshape(-1)
    scores = np.empty((m, d))
    for i in range(d):
        shuffled = x_query.copy()
        shuffled[:, i] = x_query[rng.permutation(m), i]
        scores[:, i] = base_vals - np.asarray(fn.value(shuffled), dtype=float).reshape(-1)
    return AttributionMatrix(scores, FEATURE_PERMUTATION, np.zeros(d), np.arange(m))


def shapley_mc(f, x, baseline=None, n_permutations: int = 1000, rng=None) -> np.ndarray:
    """Monte-Carlo Shapley values from sampled feature orderings.

    Walks each sampled ordering from the baseline, crediting every feature
    its marginal change; off-coalition coordinates sit at the baseline.
    Unbiased for the exact Shapley values of the same coalition game.
    """
    fn = as_function(f)
    if n_permutations < 1:
        raise InvalidConfigError("n_permutations must be >= 1")
    if rng is None:
        raise InvalidConfigError("shapley_mc requires a seeded generator")
    x = _as_point(x)
    b = _baseline_for(x, baseline)
    d = len(x)
    totals = np.zeros(d)
    # Evaluate permutations in blocks: each contributes d+1 prefix points.
    block = max(1, _EVAL_CHUNK // (d + 1))
    done = 0
    while done < n_permutations:
        k = min(block, n_permutations - done)
        orders = np.array([rng.permutation(d) for _ in range(k)])
        points = np.empty((k, d + 1, d))
        points[:, 0, :] = b
        for step in range(d):
            points[:, step + 1, :] = points[:, step, :]
            rows = np.arange(k)
            points[rows, step + 1, orders[:, step]] = x[orders[:, step]]
        vals = np.asarray(fn.value(points.reshape(-1, d)), dtype=float).reshape(k, d + 1)
        marginals = np.diff(vals, axis=1)
        np.add.at(totals, orders.reshape(-1), marginals.reshape(-1))
        done += k
    return totals / n_permutations


def shapley_exact(f, x, baseline=None) -> np.ndarray:
    """Exact Shapley values by full coalition enumeration (d <= 15)."""
    fn = as_function(f)
    x = _as_point(x)
    b = _baseline_for(x, baseline)
    d = len(x)
    if d > _EXACT_SHAPLEY_MAX_D:
        raise CapacityError(f"exact Shapley enumeration capped at d={_EXACT_SHAPLEY_MAX_D}")
    n_sets = 1 << d
    masks = np.arange(n_sets)
    member = ((masks[:, None] >> np.arange(d)) & 1).astype(bool)
    points = np.where(member, x, b)
    values = np.empty(n_sets)
    for start in range(0, n_sets, _EVAL_CHUNK):
        chunk = points[start : start + _EVAL_CHUNK]
        values[start : start + _EVAL_CHUNK] = np.asarray(
            fn.value(chunk), dtype=float
        ).reshape(-1)
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
    baseline: np.ndarray
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
    if method not in METHODS:
        raise InvalidConfigError(f"unknown attribution method {method!r}")
    fn = as_function(est)
    x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
    m, d = x_query.shape
    if m > settings.max_rows:
        shuffle = stream(settings.seed, 0).permutation(m)
        rows = np.sort(shuffle[: settings.max_rows])
    else:
        rows = np.arange(m)
    x_sel = x_query[rows]
    baseline = (
        np.zeros(d) if settings.baseline is None else np.asarray(settings.baseline, dtype=float)
    )
    if baseline.shape != (d,):
        raise ShapeError("baseline length must match feature count")

    if method == SALIENCY:
        _require_gradient(fn, method)
        scores = fn.gradient(x_sel)
    elif method == INTEGRATED_GRADIENTS:
        _require_gradient(fn, method)
        scores = _batched_ig(fn, x_sel, baseline, settings.steps)
    elif method == FEATURE_ABLATION:
        scores = np.vstack([feature_ablation(fn, row, baseline) for row in x_sel])
    elif method == FEATURE_PERMUTATION:
        mat = feature_permutation(fn, x_sel, stream(settings.seed, 1))
        scores = mat.scores
    else:
        n_perm = settings.n_permutations if settings.n_permutations is not None else 100 * d
        scores = np.empty((len(rows), d))
        for k, row in enumerate(x_sel):
            if method == SHAPLEY_MC:
                scores[k] = shapley_mc(fn, row, baseline, n_perm, stream(settings.seed, 2, k))
            else:
                scores[k] = shapley_exact(fn, row, baseline)
    return AttributionMatrix(scores, method, baseline, rows)


def _batched_ig(fn: ScalarFunction, x_sel: np.ndarray, baseline: np.ndarray, steps: int):
    if steps < 1:
        raise InvalidConfigError("steps must be >= 1")
    m, d = x_sel.shape
    ts = (np.arange(steps) + 0.5) / steps
    # (m, steps, d) path points, one gradient sweep per chunk of rows.
    rows_per_chunk = max(1, _EVAL_CHUNK // max(steps, 1))
    out = np.empty((m, d))
    for start in range(0, m, rows_per_chunk):
        xs = x_sel[start : start + rows_per_chunk]
        pts = baseline + ts[None, :, None] * (xs[:, None, :] - baseline)
        grads = fn.gradient(pts.reshape(-1, d)).reshape(len(xs), steps, d)
        out[start : start + rows_per_chunk] = (xs - baseline) * grads.mean(axis=1)
    return out


def load_attributions(path: str | Path) -> tuple[AttributionMatrix, np.ndarray]:
    """Read a score CSV back: (matrix, unit ids)."""
    header, rows = tables.read_table(path)
    if header[:2] != ["unit_id", "method"]:
        raise ParseError(f"{path}: expected header starting unit_id,method", row=0)
    unit_ids = tables.parse_block(path, rows, 0, 1, int)[:, 0]
    scores = tables.parse_block(path, rows, 2)
    mat = AttributionMatrix(scores, rows[0][1], np.zeros(scores.shape[1]), np.arange(len(rows)))
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
