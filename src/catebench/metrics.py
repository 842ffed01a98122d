"""Scores for attribution matrices and effect predictions.

The attribution metrics measure the share of absolute importance mass a
method puts on a given index set, averaged over query rows; effect
predictions are scored by the root-mean-squared error against the true
per-unit effect.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, UndefinedMetricError


def _score_matrix(scores) -> np.ndarray:
    mat = getattr(scores, "scores", scores)
    return np.atleast_2d(np.asarray(mat, dtype=float))


def _mass_fraction(scores, index_set) -> float:
    mat = np.abs(_score_matrix(scores))
    idx = np.asarray(index_set, dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= mat.shape[1]):
        raise ShapeError("index set out of range for score matrix")
    totals = mat.sum(axis=1)
    keep = totals > 0.0  # all-zero rows carry no information
    if not keep.any():
        raise UndefinedMetricError("every attribution row is zero")
    return float((mat[keep][:, idx].sum(axis=1) / totals[keep]).mean())


def attr_pred(scores, i_pred) -> float:
    """Mean fraction of absolute attribution on the effect-driving indices."""
    return _mass_fraction(scores, i_pred)


def attr_prog(scores, i_prog) -> float:
    """Mean fraction of absolute attribution misallocated to prognostic indices."""
    return _mass_fraction(scores, i_prog)


def pehe(tau_hat, tau_true) -> float:
    """RMSE between estimated and true per-unit effects."""
    tau_hat = np.asarray(tau_hat, dtype=float).reshape(-1)
    tau_true = np.asarray(tau_true, dtype=float).reshape(-1)
    if tau_hat.shape != tau_true.shape or tau_hat.size < 1:
        raise ShapeError("effect vectors must have equal nonzero length")
    return float(np.sqrt(np.mean((tau_hat - tau_true) ** 2)))
