import cmath
import math

import mpmath
import numpy as np
import pytest

import wtan.core
from wtan.complex_plane import eval_complex
from wtan.core import (
    branch_identity_residual,
    defining_residual,
    derivative,
    eval_real,
    halley_step,
    second_derivative,
    validate_branch,
)
from wtan.errors import (
    AtBranchPoint,
    NoConvergence,
    NonFiniteArgument,
    PoleProximity,
    SignedZeroRequired,
)

from conftest import w_real_oracle

# Table-row branch point values rounded to six decimals; close enough to the
# true point that the derivative guard has to fire.
X1_PRINTED = complex(-1.650611, 2.059981)
Y1_PRINTED = complex(2.106196, 1.125364)


class TestEvalReal:
    def test_special_value_pi_over_4(self):
        assert eval_real(math.pi / 4, 1) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_large_x_asymptote(self):
        assert abs(eval_real(1e8, 1) - math.pi / 2 * (1 - 1e-8)) < 1e-12

    def test_positive_unit_argument(self):
        # bisection oracle on (0, pi/2) gives 0.8603335890193797
        assert eval_real(1.0, 1) == pytest.approx(0.8603335890193797, abs=1e-12)
        assert eval_real(1.0, 1) == pytest.approx(w_real_oracle(1.0, 1), abs=1e-12)

    def test_negative_unit_argument(self):
        # bisection oracle on (pi/2, pi) gives 2.7983860457838867
        assert eval_real(-1.0, 1) == pytest.approx(2.7983860457838867, abs=1e-12)
        assert eval_real(-1.0, 1) == pytest.approx(w_real_oracle(-1.0, 1), abs=1e-12)

    @pytest.mark.parametrize("x,n", [(0.3, 1), (5.0, 2), (17.0, 3), (-4.2, 2),
                                     (-0.7, 4), (123.0, 5), (-250.0, 5)])
    def test_against_bisection_oracle(self, x, n):
        assert eval_real(x, n) == pytest.approx(w_real_oracle(x, n), abs=1e-11)

    def test_branch_windows(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            x = float(rng.uniform(-50, 50)) or 1.0
            n = int(rng.integers(1, 6))
            w = eval_real(x, n)
            if x > 0:
                assert (n - 1) * math.pi < w < (n - 0.5) * math.pi
            else:
                assert (n - 0.5) * math.pi < w < n * math.pi

    def test_odd_symmetry_exact(self):
        for x in (-3.0, -0.5, 0.25, 2.0, 40.0):
            for n in (1, 2, 5):
                assert eval_real(x, -n) == -eval_real(x, n)
        # both window ends, both signs, |x| over the float64 range: n < 0
        # negates the value of -n bit for bit
        rng = np.random.default_rng(18)
        branches = np.concatenate([rng.integers(1, 9, 1000),
                                   np.floor(10.0 ** rng.uniform(0.0, 6.0, 1000))])
        mags = 10.0 ** rng.uniform(-323.0, 308.0, len(branches))
        signs = rng.choice([-1.0, 1.0], len(mags))
        pole = 0
        for x, n in zip(signs * mags, branches.astype(int)):
            x, n = float(x), int(n)
            pole += abs(x) > 64.0 * (n - 0.5)
            y = eval_real(x, n)
            assert y != 0.0 and eval_real(x, -n) == -y, (x, n)
        assert 500 < pole < 1500

    def test_residual_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            x = float(rng.uniform(-1000, 1000)) or 1.0
            n = int(rng.integers(1, 6)) * (1 if rng.random() < 0.5 else -1)
            w = eval_real(x, n)
            assert abs(w * math.tan(w) - x) <= 1e-12 * (1 + abs(x))

    def test_limit_matching_at_zero(self):
        # w(n) at 0- meets w(n+1) at 0+, both at n*pi
        for n in (1, 2, 3):
            left = eval_real(-1e-12, n)
            right = eval_real(1e-12, n + 1)
            assert abs(left - n * math.pi) < 1e-6
            assert abs(right - n * math.pi) < 1e-6

    def test_monotone_on_principal_branch(self):
        xs = np.linspace(1e-6, 50, 400)
        ws = [eval_real(float(x), 1) for x in xs]
        assert all(b > a for a, b in zip(ws, ws[1:]))

    @pytest.mark.parametrize("x,n", [(1e40, 1), (-1e40, 2), (-2.03e31, 1),
                                     (1.7e308, 7)])
    def test_huge_argument_near_pole(self, x, n):
        # w*tan(w) rounds to -x everywhere below the pole, so no residual can
        # locate the root pole -+ pole/(|x|-+1); the pole-side solve does
        y = eval_real(x, n)
        with mpmath.workdps(40):
            pole = (n - mpmath.mpf(0.5)) * mpmath.pi
            root = pole - pole / (x + 1) if x > 0 else pole + pole / (-x - 1)
            assert abs(y - root) <= 4 * math.ulp(y)

    def test_pole_side_correctly_rounded(self):
        # past POLE_SIDE*(n - 1/2) = 64*(n - 1/2) the root is c -+ d with
        # d = atan(w/|x|) solved by Newton and c held exactly, rounded once.
        # |x| is drawn log-uniform from the threshold to 1.7e308, and a
        # second set within a decade of it for n <= 4, where the float d's
        # error (up to ~4/|x| ulp of w) often straddles a rounding midpoint
        # and _pole_side_exact decides the rounding.  The 40-digit reference
        # is Newton on F(d) = d - atan((c -+ d)/|x|); three fixed-point steps
        # from c do not resolve it at |x|/c ~ 20.
        rng = np.random.default_rng(16)
        count = 2400
        branches = np.concatenate([
            np.floor(10.0 ** rng.uniform(0.0, 6.0, count)),
            rng.integers(1, 5, count)]).astype(int)
        starts = np.log10(64.0 * (branches - 0.5))
        ends = np.concatenate([np.full(count, math.log10(1.7e308)),
                               starts[count:] + 1.0])
        mags = 10.0 ** rng.uniform(starts, ends)
        signs = rng.choice([-1.0, 1.0], len(mags))
        for x, n in zip(signs * mags, branches):
            x, n = float(x), int(n)
            y = eval_real(x, n)
            with mpmath.workdps(40):
                c = (n - mpmath.mpf(0.5)) * mpmath.pi
                s, a = math.copysign(1, x), abs(mpmath.mpf(x))
                d = c / (a + s)
                for _ in range(6):
                    u = (c - s * d) / a
                    d -= (d - mpmath.atan(u)) / (1 + s / (a * (1 + u * u)))
                assert abs(y - (c - s * d)) <= 0.5 * math.ulp(y), (x, n)
            assert eval_real(x, -n) == -y

    def test_zero_end_faithful(self):
        # up to 64*(n - 1/2) the root is E +- e with E = (n-1)*pi (x > 0) or
        # n*pi (x < 0) and e = atan(|x|/w) solved by Newton; E and the sum
        # are rounded, so the value is faithful, not correctly rounded.  The
        # reference is Newton on the same form at 60 + |log10 |x|| digits: a
        # fixed precision misreads roots like sqrt(x) ~ 1e-150.  The three
        # fixed points were 8267, 290 and 21.9 ulp off under a stop on the
        # absolute residual of w*tan(w) - x.
        rng = np.random.default_rng(15)
        count = 1500
        branches = np.concatenate([
            rng.integers(1, 9, count),
            np.floor(10.0 ** rng.uniform(0.0, 6.0, count))]).astype(int)
        mags = 10.0 ** rng.uniform(-300.0, np.log10(64.0 * (branches - 0.5)))
        signs = rng.choice([-1.0, 1.0], len(mags))
        points = [(0.007337964523997774, 1), (0.6727124660733957, 1),
                  (21.191334209298034, 3)]
        points += [(float(x), int(n)) for x, n in zip(signs * mags, branches)]
        for x, n in points:
            y = eval_real(x, n)
            with mpmath.workdps(60 + int(abs(math.log10(abs(x))))):
                s, a = math.copysign(1, x), abs(mpmath.mpf(x))
                E = (n - 1) * mpmath.pi if x > 0 else n * mpmath.pi
                e = mpmath.atan(a / E if E else mpmath.sqrt(a))
                for _ in range(100):
                    w = E + s * e
                    step = (e - mpmath.atan(a / w)) / (1 + s * a / (w * w + a * a))
                    e -= step
                    if abs(step) <= mpmath.eps * e:
                        break
                assert abs(y - (E + s * e)) <= 1.5 * math.ulp(y), (x, n)

    def test_offset_below_smallest_subnormal(self):
        # |x|/C underflows to 0, and the window edge is itself the root to
        # within float64 resolution
        y = eval_real(1.795395e-318, -384580)
        with mpmath.workdps(40):
            assert abs(y + 384579 * mpmath.pi) <= math.ulp(y)

    def test_signed_zero(self):
        with pytest.raises(SignedZeroRequired):
            eval_real(0.0, 1)
        assert eval_real(0.0, 1, side=+1) == 0.0
        assert eval_real(0.0, 1, side=-1) == math.pi
        assert eval_real(0.0, 3, side=+1) == 2 * math.pi
        assert eval_real(0.0, -2, side=-1) == -2 * math.pi
        # negative branches at x = 0 mirror their positive twins, signed
        # zero included: lim x->0+ on branch -1 is -0.0
        for n in (-1, -2, -7):
            with pytest.raises(SignedZeroRequired):
                eval_real(0.0, n)
            with pytest.raises(SignedZeroRequired):
                eval_real(-0.0, n)
            for side in (+1, -1):
                y = eval_real(0.0, n, side=side)
                assert y == -eval_real(0.0, -n, side=side)
                assert math.copysign(1.0, y) == -1.0
        assert eval_real(-0.0, -3, side=+1) == -2 * math.pi

    def test_nonfinite_rejected(self):
        for n in (1, -1, 5, -5):
            with pytest.raises(NonFiniteArgument):
                eval_real(math.nan, n)
            with pytest.raises(NonFiniteArgument):
                eval_real(math.inf, n)
            with pytest.raises(NonFiniteArgument):
                eval_real(-math.inf, n)

    def test_branch_validation(self, atlas):
        with pytest.raises(ValueError):
            eval_real(1.0, 0)
        with pytest.raises(TypeError):
            validate_branch(1.5)
        with pytest.raises(TypeError):
            validate_branch(True)
        # numpy integers are branch labels like any other integer
        assert eval_real(1.0, np.int64(2)) == eval_real(1.0, 2)
        assert eval_real(-1.0, np.int64(-2)) == eval_real(-1.0, -2)
        # negating the most negative int64 wraps; the label is taken as an int
        low = np.iinfo(np.int64).min
        assert eval_real(1.0, np.int64(low)) == eval_real(1.0, int(low))
        assert eval_complex(2 + 2j, np.int64(2), atlas).y == eval_complex(2 + 2j, 2, atlas).y

    def test_no_convergence_when_tolerance_unreachable(self, monkeypatch):
        # from its seed the offset needs four Newton steps at x = 1, n = 1
        monkeypatch.setattr(wtan.core, "MAX_ITER", 3)
        with pytest.raises(NoConvergence):
            eval_real(1.0, 1)

    def test_pole_end_two_newton_steps(self, monkeypatch):
        # past 64*(n - 1/2) Newton stops on its predicted next step, so the
        # seed c/(|x| + s) needs at most two steps.  |x| is log-uniform from
        # the threshold to 1.7e308 with n up to 2**1019 (the threshold
        # overflows past ~2**1017.6), and within a decade of it for n <= 4,
        # where a stop on the step size took three on ~29% of the calls.
        monkeypatch.setattr(wtan.core, "MAX_ITER", 2)
        rng = np.random.default_rng(19)
        top = math.log10(1.7e308)
        draws = [(int(2.0 ** rng.uniform(0.0, 1019.0)), False) for _ in range(3000)]
        draws += [(int(n), True) for n in rng.integers(1, 5, 1500)]
        count = 0
        for n, near in draws:
            start = math.log10(64.0 * (n - 0.5))
            if start >= top:
                continue
            x = 10.0 ** rng.uniform(start, start + 1.0 if near else top)
            if x <= 64.0 * (n - 0.5):
                continue
            count += 1
            for sign in (1.0, -1.0):
                eval_real(sign * x, n)
                eval_real(sign * x, -n)
        assert count > 4000


class TestHalleyStep:
    def test_fixed_point(self):
        root = 0.8603335890193797
        assert abs(halley_step(1.0, root) - root) < 1e-12

    def test_converges_within_four_iterations(self):
        y = 0.8
        for _ in range(4):
            y = halley_step(1.0, y)
        assert abs(y * cmath.tan(y) - 1.0) < 1e-13

    def test_converges_to_special_value(self):
        y = 0.7
        for _ in range(6):
            y = halley_step(math.pi / 4, y)
        assert abs(y - math.pi / 4) < 1e-13

    def test_pole_guard(self):
        with pytest.raises(PoleProximity):
            halley_step(1.0, math.pi / 2)

    def test_degenerate_denominator(self):
        # at y = 0, w*(1 + tan^2 w) + tan w vanishes with all its terms
        with pytest.raises(PoleProximity, match="degenerate"):
            halley_step(1 + 0j, 0j)

    def test_steps_on_complex_numbers_only(self):
        assert isinstance(halley_step(1.0, 0.8), complex)

    def test_complex_step(self):
        y = 1.2 + 0.2j
        for _ in range(8):
            y = halley_step(2 + 2j, y)
        assert abs(y * np.tan(y) - (2 + 2j)) < 1e-12


class TestDerivatives:
    def test_special_point(self):
        d = derivative(math.pi / 4, math.pi / 4)
        assert d == pytest.approx(1.0 / (1.0 + math.pi / 2), rel=1e-14)

    def test_small_x_square_root_behavior(self):
        # q = w^2 + x^2 + x ~ 2x near the origin, so stay above the
        # branch-point guard; the limit dw/dx * 2 sqrt(x) -> 1 has O(x) error
        x = 1e-3
        w = eval_real(x, 1)
        assert derivative(x, w) * 2 * math.sqrt(x) == pytest.approx(1.0, rel=5e-3)
        x = 1e-4
        w = eval_real(x, 1)
        assert derivative(x, w) * 2 * math.sqrt(x) == pytest.approx(1.0, rel=5e-4)

    def test_branch_point_guard(self):
        with pytest.raises(AtBranchPoint):
            derivative(X1_PRINTED, Y1_PRINTED)
        with pytest.raises(AtBranchPoint):
            second_derivative(X1_PRINTED, Y1_PRINTED)

    def test_against_finite_differences(self):
        for x in [-10, -7, -3, -1, 1, 2, 5, 10]:
            for n in (1, 2, 3):
                h = 1e-6 * (1 + abs(x))
                fd = (eval_real(x + h, n) - eval_real(x - h, n)) / (2 * h)
                d = derivative(x, eval_real(x, n))
                assert d == pytest.approx(fd, rel=1e-6)

    def test_second_derivative_against_finite_differences(self):
        x = math.pi / 4
        w = eval_real(x, 1)
        h = 1e-4
        fd2 = (eval_real(x + h, 1) - 2 * w + eval_real(x - h, 1)) / h ** 2
        assert second_derivative(x, w) == pytest.approx(fd2, rel=1e-6)

    def test_second_derivative_large_x_tail(self):
        # differentiating the large-argument series twice: w'' -> -pi/x^3
        x = 1e4
        w = eval_real(x, 1)
        assert second_derivative(x, w) == pytest.approx(-math.pi / x ** 3, rel=1e-3)

    def test_second_derivative_past_the_float_range(self):
        # q^2 overflows from |x| ~ 1.2e77 on, 2xy from ~5.7e307 and y^3 from
        # |n| ~ 1.8e102 on: the value is still the one a 50-digit evaluation
        # rounds to
        def reference(x, y):
            with mpmath.workdps(50):
                x, y = mpmath.mpf(x), mpmath.mpf(y)
                q = y * y + x * x + x
                return float(-2 * x * y / q ** 2 - 2 * y ** 3 / q ** 3)

        cases = [(s * 1.7e308, n) for s in (1.0, -1.0) for n in range(1, 9)]
        cases += [(1e80, 1), (-1e80, 1), (1e100, 10 ** 102)]
        cases += [(5.0, 10 ** 103), (-5.0, -10 ** 103), (0.5, 2 ** 1020)]
        for x, n in cases:
            y = eval_real(x, n)
            got = second_derivative(x, y)
            assert got == reference(x, y), (x, n)
            assert math.copysign(1.0, got) == math.copysign(1.0, reference(x, y))
            assert second_derivative(complex(x), complex(y)) == got


class TestBranchIdentity:
    def test_special_value(self):
        assert branch_identity_residual(math.pi / 4, 1, math.pi / 4) < 1e-13

    def test_negative_argument(self):
        w = eval_real(-1.0, 1)
        assert branch_identity_residual(-1.0, 1, w) < 1e-12

    def test_higher_branch(self):
        w = eval_real(5.0, 3)
        assert branch_identity_residual(5.0, 3, w) < 1e-12

    def test_randomized_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            x = float(rng.uniform(-20, 20)) or 0.5
            n = int(rng.integers(1, 5)) * (1 if rng.random() < 0.5 else -1)
            assert branch_identity_residual(x, n, eval_real(x, n)) < 1e-11


class TestDefiningResidual:
    def test_residual_past_float64_is_inf(self):
        # |y*tan(y) - x| ~ 2.4e308: abs() of the complex raised a bare
        # OverflowError
        assert defining_residual(-1.7e308 + 1.7e308j, 1e300 - 1e16j) == math.inf

    def test_same_bits_as_abs(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            x, y = (complex(*(10.0 ** rng.uniform(-5, 5, 2) * rng.choice((-1, 1), 2)))
                    for _ in range(2))
            assert defining_residual(x, y) == abs(y * cmath.tan(y) - x), (x, y)
