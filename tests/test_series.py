import math

import mpmath as mp
import numpy as np
import pytest

from wtan.core import derivative, eval_real
from wtan.errors import FitDiverged, OutsideConvergence, PrecisionExhausted
from wtan.series import (
    SeriesKind,
    SeriesTable,
    eval_series,
    fit_asymptotic,
    lagrange_b,
    large_x_coeffs,
    radius_estimates,
    small_x_coeffs,
)

PI2 = math.pi ** 2

SMALL_X_EXACT = [1.0, -1.0 / 6.0, 11.0 / 360.0, -17.0 / 5040.0, -281.0 / 604800.0]
LARGE_X_EXACT = [1.0, -1.0, 1.0, -(1.0 - PI2 / 12.0), -(PI2 / 3.0 - 1.0)]

# |x_1| and arg(x_1): modulus and phase of the nearest singular point
RHO_TRUE = 2.639705
ARG_TRUE = math.atan2(2.059981, -1.650611)


class TestRecursions:
    def test_small_x_rationals(self):
        table = small_x_coeffs(4)
        for got, want in zip(table.primary_floats(), SMALL_X_EXACT):
            assert got == pytest.approx(want, rel=1e-14)

    def test_large_x_closed_forms(self):
        table = large_x_coeffs(4)
        for got, want in zip(table.primary_floats(), LARGE_X_EXACT):
            assert got == pytest.approx(want, rel=1e-14)

    def test_order_zero_seeds(self):
        ts = small_x_coeffs(0)
        assert float(ts.primary[0]) == 1.0 and float(ts.secondary[0]) == 1.0
        tl = large_x_coeffs(0)
        assert float(tl.primary[0]) == 1.0 and float(tl.secondary[0]) == 1.0

    def test_stored_pairs_satisfy_recursions(self):
        assert small_x_coeffs(40).recursion_residuals() < 1e-25
        assert large_x_coeffs(40).recursion_residuals() < 1e-25

    def test_root_test_at_order_100(self):
        ts = small_x_coeffs(100)
        tl = large_x_coeffs(100)
        rho_s = radius_estimates(ts)[-1].rho
        rho_l = radius_estimates(tl)[-1].rho
        assert 2.3 <= rho_s <= 3.0
        assert 2.3 <= rho_l <= 3.0

    def test_precision_gate(self):
        with pytest.raises(PrecisionExhausted):
            small_x_coeffs(100, precision=8)
        with pytest.raises(PrecisionExhausted):
            large_x_coeffs(200, precision=7)


class TestLagrange:
    def test_seed(self):
        assert lagrange_b(0) == 1.0

    def test_first_coefficient(self):
        assert lagrange_b(1) == pytest.approx(-1.0, rel=1e-14)

    def test_third_coefficient(self):
        assert lagrange_b(3) == pytest.approx(-(1.0 - PI2 / 12.0), rel=1e-13)
        assert lagrange_b(3) == pytest.approx(-0.177533, abs=1e-6)

    def test_matches_recursion_to_order_20(self):
        table = large_x_coeffs(20)
        for k in range(21):
            bk = float(table.primary[k])
            assert lagrange_b(k) == pytest.approx(bk, rel=1e-10)


class TestEvalSeries:
    def test_small_x_matches_solver(self):
        table = small_x_coeffs(30)
        got = eval_series(0.5, table).value
        assert got == pytest.approx(eval_real(0.5, 1), abs=1e-12)

    def test_large_x_matches_solver(self):
        table = large_x_coeffs(30)
        got = eval_series(10.0, table).value
        assert got == pytest.approx(eval_real(10.0, 1), abs=1e-12)

    def test_zero(self):
        assert eval_series(0.0, small_x_coeffs(10)).value == 0.0

    def test_radius_gating(self):
        with pytest.raises(OutsideConvergence):
            eval_series(3.0, small_x_coeffs(30))
        with pytest.raises(OutsideConvergence):
            eval_series(2.0, large_x_coeffs(30))
        with pytest.raises(OutsideConvergence):
            eval_series(-0.5, small_x_coeffs(30))

    def test_truncation_estimate_reported(self):
        ev = eval_series(0.5, small_x_coeffs(10))
        assert 0.0 < ev.truncation_estimate < 1e-6

    def test_residual_shrinks_with_order(self):
        # defining-equation defect decreases monotonically once asymptotic
        x = 1.5
        resid = []
        for K in (5, 10, 20, 40):
            w = eval_series(x, small_x_coeffs(K)).value
            resid.append(abs(w * math.tan(w) - x))
        assert all(b < a for a, b in zip(resid, resid[1:]))

    def test_differentiated_series_matches_derivative(self):
        table = small_x_coeffs(40)
        x = 0.25
        a = table.primary_floats()
        # d/dx [sqrt(x) sum a_k x^k] = sum (k + 1/2) a_k x^(k - 1/2)
        ds = sum((k + 0.5) * a[k] * x ** (k - 0.5) for k in range(41))
        w = eval_series(x, table).value
        assert ds == pytest.approx(derivative(x, w).real, rel=1e-10)


class TestRadiusEstimates:
    def test_first_order_values(self):
        assert radius_estimates(small_x_coeffs(1))[0].rho == pytest.approx(6.0)
        assert radius_estimates(large_x_coeffs(1))[0].rho == pytest.approx(1.0)

    def test_both_kinds_in_window_at_100(self):
        for maker in (small_x_coeffs, large_x_coeffs):
            est = radius_estimates(maker(100))[-1]
            assert 2.3 <= est.rho <= 3.0


@pytest.fixture(scope="module")
def tables():
    return small_x_coeffs(300), large_x_coeffs(300)


class TestAsymptoticFit:

    def test_large_x_parameters(self, tables):
        _, tl = tables
        f = fit_asymptotic(tl, 50, 300)
        assert f.a == pytest.approx(2.25, abs=0.02)
        assert f.a == pytest.approx(ARG_TRUE, abs=0.02)
        assert f.rho == pytest.approx(RHO_TRUE, abs=1e-2)
        assert f.c == pytest.approx(0.584, abs=0.02)
        assert f.b == pytest.approx(-3.59, abs=0.02)

    def test_small_x_parameters(self, tables):
        ts, _ = tables
        f = fit_asymptotic(ts, 50, 300)
        assert f.a == pytest.approx(ARG_TRUE, abs=0.02)
        assert f.rho == pytest.approx(RHO_TRUE, abs=1e-2)
        assert f.c == pytest.approx(0.564, abs=0.02)
        assert f.b == pytest.approx(-3.14, abs=0.02)

    def test_zero_crossing_spacing(self, tables):
        # sign changes of the coefficient sequence repeat every pi/a ~ 1.40
        _, tl = tables
        b = [float(v) for v in tl.primary[50:301]]
        crossings = [i for i in range(1, len(b)) if b[i - 1] * b[i] < 0]
        spacing = np.diff(crossings).mean()
        assert spacing == pytest.approx(math.pi / 2.246, abs=0.1)

    def test_window_guard(self, tables):
        ts, _ = tables
        with pytest.raises(ValueError):
            fit_asymptotic(ts, 100, 110)

    @pytest.mark.parametrize("g", [0.9, 1.0, 1.1])
    def test_non_oscillating_sequence_diverges(self, g):
        # detrended to w_k = g^k: the Prony columns are parallel, so the
        # two-column solve has rank 1 and no oscillation exists to fit
        with mp.workdps(30):
            primary = (mp.mpf(1),) + tuple(
                mp.mpf(2.64) ** k * mp.mpf(k) ** -1.5 * mp.mpf(g) ** k
                for k in range(1, 61))
        table = SeriesTable(SeriesKind.LARGE_X, 60, primary, (), 30)
        with pytest.raises(FitDiverged):
            fit_asymptotic(table, 10, 60)
