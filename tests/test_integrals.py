import math

import mpmath
import pytest
from scipy.integrate import quad

import wtan.integrals
from wtan.core import eval_real
from wtan.errors import QuadratureFailure
from wtan.integrals import (
    CATALAN,
    CATALAN_COMBINATION,
    LOG_SIN_TOTAL,
    _quad,
    check_indefinite_log,
    check_indefinite_logsin,
    definite_catalan,
    definite_lnsin,
    lnsin_tail,
)
from wtan.series import large_x_coeffs


class TestIndefiniteIdentities:
    def test_log_identity(self):
        assert check_indefinite_log(0.5, 2.0) < 1e-9

    def test_logsin_identity(self):
        assert check_indefinite_logsin(0.5, 2.0) < 1e-9

    def test_degenerate_interval(self):
        assert check_indefinite_log(1.0, 1.0) == 0.0
        assert check_indefinite_logsin(1.0, 1.0) == 0.0

    def test_short_interval_near_special_point(self):
        x0 = math.pi / 4
        assert check_indefinite_log(x0, x0 + 1e-6) < 1e-15

    def test_wider_interval(self):
        assert check_indefinite_logsin(1.0, 10.0) < 1e-9
        assert check_indefinite_log(1e-3, 100.0) < 1e-9

    @pytest.mark.parametrize("hi", [1e15, 1e20, 1e300])
    def test_long_range_is_right_or_raises(self, hi):
        # a residual within the quadrature's error plus the rounding of the
        # antiderivative difference, or QuadratureFailure: never a wrong value
        def bound(terms):
            return wtan.integrals.ABS_TOL + 8 * 2.0 ** -52 * (terms(1.0) + terms(hi))

        def log_terms(x):
            w = eval_real(x, 1)
            return abs(x * math.log(w)) + abs(math.log(abs(math.cos(w))))

        def logsin_terms(x):
            w = eval_real(x, 1)
            return abs(x * math.log(math.sin(w))) + 0.5 * w * w

        try:
            assert check_indefinite_log(1.0, hi) <= bound(log_terms)
        except QuadratureFailure:
            pass   # the ~0.45*hi integral's rounding is far above ABS_TOL
        # ln sin w keeps its relative accuracy where sin(w) rounds to 1,
        # and its integral converges: this check returns
        assert check_indefinite_logsin(1.0, hi) <= bound(logsin_terms)

    @pytest.mark.parametrize("hi", [10.0 ** k for k in range(9, 21)])
    def test_long_range_stops_at_the_rounding(self, monkeypatch, hi):
        # an interval whose estimate is down to the rounding of its ends is
        # not bisected again, so no long range spends every bisection
        # before it returns or raises (it did from hi ~ 1e9 on, except at
        # 1e12): one that did would evaluate the integrand 30 times per
        # starting interval and 40 per bisection
        calls = []
        real = wtan.integrals.eval_real

        def counted(x, n):
            calls.append(x)
            return real(x, n)

        monkeypatch.setattr(wtan.integrals, "eval_real", counted)
        start = math.ceil(math.log(hi) / math.log(100.0))
        exhausted = 30 * start + 40 * (wtan.integrals.MAX_SUBDIVISIONS - 1)
        for check in (check_indefinite_log, check_indefinite_logsin):
            calls.clear()
            try:
                check(1.0, hi)
            except QuadratureFailure:
                pass
            assert len(calls) < exhausted, (check.__name__, len(calls))

    def test_validation(self):
        with pytest.raises(ValueError):
            check_indefinite_log(-1.0, 2.0)
        with pytest.raises(ValueError):
            check_indefinite_log(2.0, 1.0)


class TestDefiniteLnSin:
    def test_total_value(self):
        assert definite_lnsin() == pytest.approx(LOG_SIN_TOTAL, abs=1e-6)
        assert LOG_SIN_TOTAL == pytest.approx(-math.pi ** 2 / 8)

    def test_integrand_small_x_behavior(self):
        # ln sin(w(x)) ~ (1/2) ln x as x -> 0+: integrable endpoint
        x = 1e-8
        assert math.log(math.sin(eval_real(x, 1))) == pytest.approx(
            0.5 * math.log(x), rel=1e-6)

    def test_tail_magnitude(self):
        # |int_X^inf| ~ (pi^2/8) (1/X - 1/X^2) at X = 100
        t = lnsin_tail(100.0)
        assert t < 0.0
        assert abs(t) == pytest.approx(math.pi ** 2 / 800.0 * 0.99, rel=1e-3)
        assert abs(t) == pytest.approx(0.01234, abs=1.5e-4)

    def test_literals_match_their_derivation(self):
        # the derivation the literals replaced: compose the large-argument
        # series u = pi/2 - w into ln cos u = -u^2/2 - u^4/12 - u^6/45
        n_terms = 6
        b = [float(v) for v in large_x_coeffs(n_terms).primary]
        u = [0.0] + [-0.5 * math.pi * b[k] for k in range(1, n_terms + 1)]

        def pmul(p, q):
            out = [0.0] * (n_terms + 1)
            for i, pv in enumerate(p):
                if pv == 0.0:
                    continue
                for j, qv in enumerate(q):
                    if i + j <= n_terms:
                        out[i + j] += pv * qv
            return out

        u2 = pmul(u, u)
        u4 = pmul(u2, u2)
        u6 = pmul(u4, u2)
        q = tuple(-(a / 2.0) - (c / 12.0) - (d / 45.0) for a, c, d in zip(u2, u4, u6))
        assert [v.hex() for v in wtan.integrals._LNSIN_TAIL] == [v.hex() for v in q]
        assert CATALAN.hex() == float(mpmath.catalan).hex()

    def test_tail_against_quadrature(self):
        # direct quadrature of the tail via x = 1/s
        X = 50.0
        val, err = quad(
            lambda s: math.log(math.sin(eval_real(1.0 / s, 1))) / s ** 2,
            1e-12, 1.0 / X, limit=200)
        assert lnsin_tail(X) == pytest.approx(val, abs=1e-9)

    def test_cutoff_insensitivity(self, monkeypatch):
        monkeypatch.setattr(wtan.integrals, "TAIL_CUTOFF", 50.0)
        a = definite_lnsin()
        monkeypatch.setattr(wtan.integrals, "TAIL_CUTOFF", 200.0)
        b = definite_lnsin()
        assert a == pytest.approx(b, abs=1e-8)


class TestDefiniteCatalan:
    def test_closed_form(self):
        got = definite_catalan()
        assert got == pytest.approx(CATALAN_COMBINATION, abs=1e-9)
        assert CATALAN_COMBINATION == pytest.approx(
            math.pi ** 2 / 16 + math.pi / 8 * math.log(2) - CATALAN / 2)

    def test_printed_decimal(self):
        assert definite_catalan() == pytest.approx(0.431065, abs=1e-6)

    def test_catalan_constant(self):
        assert CATALAN == pytest.approx(0.915965594177219, rel=1e-12)

    def test_young_inequality(self):
        # int_0^a w dx >= a pi/4 + (pi/8) ln 2 - G/2 for a <= pi/4,
        # equality exactly at a = pi/4
        def lhs(a):
            val, _ = quad(lambda s: 2 * s * eval_real(s * s, 1), 0.0,
                          math.sqrt(a), limit=200)
            return val

        offset = math.pi / 8 * math.log(2) - CATALAN / 2
        for a in (0.1, 0.3, 0.5, 0.7):
            assert lhs(a) >= a * math.pi / 4 + offset
            assert lhs(a) - (a * math.pi / 4 + offset) > 0
        a = math.pi / 4
        assert abs(lhs(a) - (a * math.pi / 4 + offset)) < 1e-8


class TestSubstitutionIdentity:
    def test_square_integrand(self):
        # int w^2 dx = [x w^2] - int y*tan(y) * 2y dy under y = w(x)
        x1, x2 = 0.5, 2.0
        direct, _ = quad(lambda x: eval_real(x, 1) ** 2, x1, x2, limit=200)
        w1, w2 = eval_real(x1, 1), eval_real(x2, 1)
        boundary = x2 * w2 ** 2 - x1 * w1 ** 2
        transformed, _ = quad(lambda y: y * math.tan(y) * 2 * y, w1, w2,
                              limit=200)
        assert abs(direct - (boundary - transformed)) < 1e-9


class TestTolerancePlumbing:
    def test_quadrature_failure_surfaced(self):
        # ~1600 periods outrun MAX_SUBDIVISIONS intervals
        with pytest.raises(QuadratureFailure):
            _quad(lambda x: math.sin(1e4 * x), 0.0, 1.0)
