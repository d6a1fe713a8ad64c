import cmath
import math

import mpmath as mp
import pytest

from wtan import branch_points, complex_plane
from wtan.branch_points import (
    asymptotic_branch_point,
    find_branch_point,
    local_expansion_check,
)
from wtan.errors import BracketFailure, ContinuationFailure, NoConvergence

from conftest import BRANCH_POINT_TABLE


class TestFindBranchPoint:
    @pytest.mark.parametrize("row", BRANCH_POINT_TABLE)
    def test_reference_table(self, row):
        n, x_re, x_im, abs_x, y_re, y_im = row
        bp = find_branch_point(n)
        assert bp.x.real == pytest.approx(x_re, abs=1e-6)
        assert bp.x.imag == pytest.approx(x_im, abs=1e-5 if x_im > 10 else 1e-6)
        assert abs(bp.x) == pytest.approx(abs_x, abs=1e-6)
        assert bp.y.real == pytest.approx(y_re, abs=1e-5 if y_re > 10 else 1e-6)
        assert bp.y.imag == pytest.approx(y_im, abs=1e-6)

    def test_first_interval(self):
        bp = find_branch_point(1)
        assert bp.u == pytest.approx(4.212392, abs=1e-6)
        assert math.pi < bp.u < 1.5 * math.pi

    @pytest.mark.parametrize("n", range(1, 9))
    def test_defining_residuals(self, n):
        bp = find_branch_point(n)
        assert abs(cmath.sin(bp.y) * cmath.cos(bp.y) + bp.y) < 1e-10
        assert abs(bp.y ** 2 + bp.x ** 2 + bp.x) < 1e-10
        assert abs(bp.y * cmath.tan(bp.y) - bp.x) < 1e-10

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sign_constraints(self, n):
        bp = find_branch_point(n)
        assert math.sin(bp.u) <= 0.0
        assert math.cos(bp.u) <= 0.0
        assert (2 * n - 1) * math.pi <= bp.u <= (2 * n - 0.5) * math.pi
        assert bp.x.imag > 0 and bp.v > 0

    def test_ordering(self):
        pts = [find_branch_point(n) for n in range(1, 8)]
        mods = [abs(p.x) for p in pts]
        reals = [p.x.real for p in pts]
        assert all(b > a for a, b in zip(mods, mods[1:]))
        assert all(b < a for a, b in zip(reals, reals[1:]))

    def test_float_resolution_limit(self):
        # past 2**52 float64 no longer orders the branch points: x_(2**53)
        # lies below x_(2**53 - 1), and Re x_j, which falls with j, jumps by -3
        lo, hi = find_branch_point(2 ** 53 - 1).x, find_branch_point(2 ** 53).x
        assert hi.imag < lo.imag
        assert hi.real == pytest.approx(-20.0255, abs=1e-3)
        assert lo.real == pytest.approx(-16.8461, abs=1e-3)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            find_branch_point(0)

    def test_nan_seed_does_not_converge(self, monkeypatch):
        seed = asymptotic_branch_point(3)._replace(y_approx=complex(math.nan, 1.0))
        monkeypatch.setattr(branch_points, "asymptotic_branch_point", lambda n: seed)
        with pytest.raises(NoConvergence, match="did not settle in 50 steps"):
            find_branch_point(3)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_root_of_the_next_index_is_a_bracket_failure(self, monkeypatch, n):
        # seeded at the (n+1)-th point, Newton settles there: outside the
        # n-th point's bracket
        seed = asymptotic_branch_point(n + 1)
        monkeypatch.setattr(branch_points, "asymptotic_branch_point", lambda n: seed)
        with pytest.raises(BracketFailure, match=f"branch point {n} settled"):
            find_branch_point(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_paper_u_equation(self, n):
        # tan(u) arccosh(-u/sin u) = sqrt(u^2 - sin^2 u), the single-variable
        # form of sin w cos w + w = 0 with 2w = u + iv: the left-minus-right
        # side changes sign within 1e-12 relative of the returned u, and
        # cosh(v) = -u/sin(u) recovers v
        def F(u):
            s = math.sin(u)
            return math.tan(u) * math.acosh(-u / s) - math.sqrt(u * u - s * s)

        bp = find_branch_point(n)
        assert F(bp.u * (1.0 - 1e-12)) < 0.0 < F(bp.u * (1.0 + 1e-12))
        assert math.acosh(-bp.u / math.sin(bp.u)) == pytest.approx(bp.v, rel=1e-12)

    @pytest.mark.parametrize("n", [17659, 10 ** 5, 10 ** 6])
    def test_large_index_against_findroot(self, n):
        bp = find_branch_point(n)
        with mp.workdps(40):
            ref = mp.findroot(lambda w: mp.sin(w) * mp.cos(w) + w,
                              mp.mpc(bp.y.real, bp.y.imag))
            ref = complex(ref)
        assert abs(bp.y - ref) <= 4e-16 * abs(ref)
        assert (2 * n - 1) * math.pi <= bp.u <= (2 * n - 0.5) * math.pi
        assert bp.v > 0.0
        assert abs(cmath.sin(bp.y) * cmath.cos(bp.y) + bp.y) <= 1e-9 * abs(bp.y)
        assert abs(bp.y * cmath.tan(bp.y) - bp.x) <= 1e-9 * abs(bp.x)

    @pytest.mark.parametrize("n", [10 ** 9, 10 ** 13])
    def test_huge_index_against_findroot(self, n):
        # Here the rounded u lands one ulp past the rounded end (2n-1/2)*pi,
        # which find_branch_point's 4-ulp slack admits; the exact root lies
        # inside the exact interval.  sin(w)cos(w) + w has slope ~cosh(v)
        # ~ n at the root, so its float64 residual says nothing at this n:
        # the 4e-16 oracle bound is the accuracy check.
        bp = find_branch_point(n)
        with mp.workdps(60):
            ref = mp.findroot(lambda w: mp.sin(w) * mp.cos(w) + w,
                              mp.mpc(bp.y.real, bp.y.imag))
            assert (2 * n - 1) * mp.pi < 2 * ref.real < (2 * n - 0.5) * mp.pi
            ref = complex(ref)
        assert abs(bp.y - ref) <= 4e-16 * abs(ref)
        slack = 4.0 * math.ulp((2 * n - 0.5) * math.pi)
        assert (2 * n - 1) * math.pi - slack <= bp.u <= (2 * n - 0.5) * math.pi + slack
        assert bp.v > 0.0
        assert abs(bp.y * cmath.tan(bp.y) - bp.x) <= 1e-9 * abs(bp.x)


class TestAsymptotics:
    def test_level_six_real_part(self):
        b6 = (2 * 6 - 0.5) * math.pi
        approx = asymptotic_branch_point(6)
        assert approx.x_approx.real == pytest.approx(-0.5 * math.log(2 * b6) - 0.5)
        # within the O(ln n / n) error of the exact value
        exact = find_branch_point(6)
        assert abs(approx.x_approx.real - exact.x.real) < math.log(6) / 6

    @pytest.mark.parametrize("n", [10, 20, 50, 100, 200])
    def test_scaled_error_bounded(self, n):
        exact = find_branch_point(n)
        approx = asymptotic_branch_point(n)
        assert abs(approx.x_approx - exact.x) * n / math.log(n) < 0.5

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            asymptotic_branch_point(0)

    def test_seed_role_at_one(self):
        approx = asymptotic_branch_point(1)
        lo, hi = math.pi, 1.5 * math.pi
        assert lo < approx.u_approx < hi


class TestLocalExpansion:
    def test_square_root_exponent_and_coefficient(self):
        kappa, c2 = local_expansion_check(1, [1e-2, 1e-3, 1e-4])
        assert kappa == pytest.approx(0.5, abs=1e-3)
        assert c2 == pytest.approx(1.0, abs=1e-2)

    def test_second_point(self):
        kappa, c2 = local_expansion_check(2, [1e-2, 1e-3])
        assert kappa == pytest.approx(0.5, abs=1e-3)
        assert c2 == pytest.approx(1.0, abs=1e-2)

    def test_needs_two_radii(self):
        with pytest.raises(ValueError):
            local_expansion_check(1, [1e-2])

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            local_expansion_check(0, (1e-2, 1e-3))

    @pytest.mark.parametrize("radii", [[1e-2, math.nan], [math.nan, 1e-2], [1e-2, 1e-2],
                                       [1e-2, 0.0], [1e-2, -1e-3], [math.inf, 1e-2]])
    def test_radii_checked_before_continuing(self, monkeypatch, radii):
        # a nan radius looped for ever, equal ones divided by zero, and 0 or
        # a negative one raised a bare math domain error
        def refused(*args, **kwargs):
            raise AssertionError("continued")

        monkeypatch.setattr(complex_plane.SheetAtlas, "continue_from_anchor", refused)
        monkeypatch.setattr(complex_plane, "_walk_segment", refused)
        with pytest.raises(ValueError):
            local_expansion_check(1, radii)

    def test_refused_anchor_is_a_continuation_failure(self, monkeypatch):
        # the anchor x_1 + 1e-8 lies in sheet 1's band; with no root placed
        # in the region it has no value: NoConvergence, reported as a
        # ContinuationFailure
        monkeypatch.setattr(complex_plane, "_place", lambda z, s: None)
        with pytest.raises(ContinuationFailure):
            local_expansion_check(1, [1e-8, 1e-9])

    def test_loop_enclosing_more_than_x_n_fails_to_close(self):
        # a circle of radius 4 about x_1 also encloses x_2 and the origin:
        # the double loop does not return to its start
        with pytest.raises(ContinuationFailure, match="failed to close"):
            local_expansion_check(1, [4.0, 3.5])

    def test_programming_error_is_not_a_continuation_failure(self, monkeypatch):
        def broken(z, s):
            raise TypeError("broken")

        monkeypatch.setattr(complex_plane, "_place", broken)
        with pytest.raises(TypeError):
            local_expansion_check(1, [1e-8, 1e-9])
