"""The pinned reference results under ``tests/reference/`` still come out.

Each file is recomputed by ``make_reference`` and compared with the pinned
one: text cells exactly, result floats to 1e-12 relative, attribution
floats to 1e-12 of the pinned matrix's largest |score|. The tolerances
cover another CPU's BLAS kernels (they differ in the last bits); any change
to what is computed moves far more. Each test prints whether the bytes match.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest

import make_reference as ref

_RTOL = 1e-12


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _assert_close(pinned_path, fresh_path, scale=None):
    """Every cell as pinned: equal text, or floats within the tolerance."""
    same = pinned_path.read_bytes() == fresh_path.read_bytes()
    print(f"{pinned_path.name}: bytes {'match' if same else 'differ'}")
    pinned, fresh = _rows(pinned_path), _rows(fresh_path)
    assert len(fresh) == len(pinned)
    for r, (want_row, got_row) in enumerate(zip(pinned, fresh)):
        assert len(got_row) == len(want_row), f"row {r}"
        for c, (want, got) in enumerate(zip(want_row, got_row)):
            if got == want:
                continue
            try:
                want_f, got_f = float(want), float(got)
            except ValueError:
                pytest.fail(f"row {r}, column {c}: {got!r}, pinned {want!r}")
            bound = _RTOL * (abs(want_f) if scale is None else scale)
            assert abs(got_f - want_f) <= bound, f"row {r}, column {c}: {got}, pinned {want}"


@pytest.mark.parametrize("kind", ref.KINDS)
def test_results_match_reference(tmp_path, kind):
    ref.write_results(kind, tmp_path / "results.csv")
    _assert_close(ref.results_path(kind), tmp_path / "results.csv")


@pytest.fixture(scope="module")
def reference_x():
    return ref.fit_reference_x()


@pytest.mark.parametrize("method", ref.METHODS)
def test_attributions_match_reference(tmp_path, reference_x, method):
    pinned = ref.attributions_path(method)
    ref.write_attributions(*reference_x, method, tmp_path / "scores.csv")
    scores = np.array([row[2:] for row in _rows(pinned)[1:]], dtype=float)
    largest = float(np.abs(scores).max())
    assert math.isfinite(largest) and largest > 0.0
    _assert_close(pinned, tmp_path / "scores.csv", scale=largest)
