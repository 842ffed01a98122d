import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from catebench.attribution import SALIENCY, AttributionMatrix
from catebench.errors import ShapeError, UndefinedMetricError
from catebench.metrics import attr_pred, attr_prog, pehe


class TestAttrPred:
    def test_half_mass(self):
        assert attr_pred(np.array([[1.0, 1.0, 1.0, 1.0]]), [0, 1]) == pytest.approx(0.5)

    def test_full_mass_with_signs(self):
        assert attr_pred(np.array([[0.0, 0.0, 2.0, -2.0]]), [2, 3]) == pytest.approx(1.0)

    def test_uniform_rows_proportional(self):
        rows = np.ones((5, 10))
        assert attr_pred(rows, list(range(4))) == pytest.approx(0.4)

    def test_accepts_attribution_matrix(self):
        mat = AttributionMatrix(np.array([[3.0, 1.0]]), SALIENCY, np.zeros(2), np.array([0]))
        assert attr_pred(mat, [0]) == pytest.approx(0.75)

    def test_zero_rows_excluded(self):
        rows = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert attr_pred(rows, [0]) == pytest.approx(0.5)

    def test_all_zero_rows_undefined(self):
        with pytest.raises(UndefinedMetricError):
            attr_pred(np.zeros((3, 4)), [0])

    def test_index_out_of_range(self):
        with pytest.raises(ShapeError):
            attr_pred(np.ones((2, 3)), [5])


class TestAttrProg:
    def test_perfect_attribution_scores_zero(self):
        rows = np.array([[0.0, 0.0, 1.0, -1.0]])
        assert attr_prog(rows, [0, 1]) == pytest.approx(0.0)

    def test_uniform_rows(self):
        assert attr_prog(np.ones((3, 10)), [0, 1]) == pytest.approx(0.2)

    def test_only_prognostic_mass(self):
        rows = np.array([[2.0, 0.0, 0.0]])
        assert attr_prog(rows, [0]) == pytest.approx(1.0)


class TestPehe:
    def test_exact_prediction(self):
        tau = np.array([1.0, -2.0, 0.5])
        assert pehe(tau, tau) == 0.0

    def test_constant_offset(self):
        tau = np.array([1.0, -2.0, 0.5])
        assert pehe(tau + 3.0, tau) == pytest.approx(3.0)
        assert pehe(tau - 0.25, tau) == pytest.approx(0.25)

    def test_hand_value(self):
        assert pehe(np.array([1.0, 2.0]), np.zeros(2)) == pytest.approx(np.sqrt(2.5))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            pehe(np.ones(3), np.ones(4))

    @given(hnp.arrays(np.float64, 7, elements=st.floats(-10, 10)), st.permutations(range(7)))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, tau_hat, perm):
        tau = np.linspace(-1, 1, 7)
        p = np.array(perm)
        assert pehe(tau_hat, tau) == pytest.approx(pehe(tau_hat[p], tau[p]))

    @given(
        hnp.arrays(np.float64, 5, elements=st.floats(-5, 5)),
        hnp.arrays(np.float64, 5, elements=st.floats(-5, 5)),
        hnp.arrays(np.float64, 5, elements=st.floats(-5, 5)),
    )
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert pehe(a, c) <= pehe(a, b) + pehe(b, c) + 1e-9


class TestProperties:
    @given(
        hnp.arrays(
            np.float64,
            (4, 6),
            elements=st.floats(-100, 100).filter(lambda v: abs(v) > 1e-6),
        ),
        st.floats(-50, 50).filter(lambda v: abs(v) > 1e-3),
    )
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, scores, c):
        idx = [1, 3]
        assert attr_pred(scores * c, idx) == pytest.approx(attr_pred(scores, idx), rel=1e-9)

    @given(
        hnp.arrays(
            np.float64,
            (3, 8),
            elements=st.floats(-10, 10).filter(lambda v: abs(v) > 1e-6),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_bounds_and_mass_partition(self, scores):
        pred_idx = [0, 1, 2]
        prog_idx = [3, 4]
        rest_idx = [5, 6, 7]
        p = attr_pred(scores, pred_idx)
        q = attr_prog(scores, prog_idx)
        r = attr_pred(scores, rest_idx)
        assert 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0
        assert p + q + r == pytest.approx(1.0)
