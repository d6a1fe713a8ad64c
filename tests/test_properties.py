"""Property tests of the real and complex solvers over the whole float64 range.

Real axis: eval_real solves for the offset from a window end and never
checks a residual, so the returned value must either meet the residual
TOL*(1+|x|) or bracket the root to within 8 ulp; next to the tan pole
(|x| past 64*(|n|-1/2)) only the second is within float64's reach.  Both
checks are made in mpmath at 40 + |log10 x| digits, enough to resolve
g(w) = w*sin(w) - x*cos(w) at the ulp scale for subnormal and huge x alike.

Complex plane: eval_complex on sheets +-1..+-4 for |z| up to 1.7e308,
drawn both from |z| <= 18, where the cuts of those sheets lie, and with
log10|z| spread over [-2, 308.23]; and on sheets up to 1e6, and at 2^53
and 1e18, on the routes that solve directly: outside the cut disk and
right of the band of cuts inside it.  Past |n| = 2^1020, where (|n|-1/2)*pi
overflows, both solvers raise DomainViolation.
"""

import cmath
import math
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import wtan.core
from wtan import complex_plane
from wtan.branch_points import find_branch_point
from wtan.complex_plane import EXTERIOR_FACTOR, eval_complex
from wtan.core import eval_real, halley_step
from wtan.errors import DomainViolation, OnCut, WtanError

EPS = 2.220446049250313e-16

magnitudes = st.floats(min_value=5e-324, max_value=1.7e308)
signs = st.sampled_from([-1.0, 1.0])
branches = st.integers(min_value=1, max_value=10_000)


def in_window(x, n, y):
    """y lies in the closed real-axis window of branch n >= 1.

    The window's ends are multiples of pi rounded to float64.  Once |x| is
    past ~1e16 the root lies within half an ulp of the pole end
    (n - 1/2)*pi, so even the correctly rounded root can sit one ulp beyond
    the rounded end; one ulp is all that is allowed.
    """
    if x > 0.0:
        lo, hi = (n - 1) * math.pi, (n - 0.5) * math.pi
    else:
        lo, hi = (n - 0.5) * math.pi, n * math.pi
    return lo - math.ulp(lo) <= y <= hi + math.ulp(hi)


def root_certified(x, y):
    """Residual within TOL*(1+|x|), or a sign change of g across y +- 8 ulp."""
    with mp.workdps(40 + int(abs(math.log10(abs(x))))):
        X, Y = mp.mpf(x), mp.mpf(y)
        if abs(Y * mp.tan(Y) - X) <= wtan.core.TOL * (1.0 + abs(x)):
            return True
        h = 8 * mp.mpf(math.ulp(y))

        def g(w):
            return w * mp.sin(w) - X * mp.cos(w)

        return g(Y - h) * g(Y + h) <= 0


@settings(max_examples=400)
@given(magnitudes, signs, branches)
@example(1.795395e-318, -1.0, 384580)   # root offset |x|/C underflows to 0
@example(1e40, 1.0, 1)                  # w*tan(w) rounds to -x below pi/2
@example(1e40, -1.0, 2)
def test_eval_real_whole_range(mag, sign, n):
    x = sign * mag
    y = eval_real(x, n)
    assert in_window(x, n, y)
    assert eval_real(x, -n) == -y
    assert root_certified(x, y)


moduli = st.one_of(st.floats(min_value=0.0, max_value=18.0),
                   st.floats(min_value=-2.0, max_value=308.23).map(lambda e: 10.0 ** e))
angles = st.floats(min_value=-math.pi, max_value=math.pi)
sheets = st.sampled_from([1, 2, 3, 4, -1, -2, -3, -4])


@settings(max_examples=400)
@given(modulus=moduli, angle=angles, n=sheets)
@example(modulus=1e12, angle=0.5 * math.pi, n=1)
@example(modulus=1.7e308, angle=0.75 * math.pi, n=-4)
@example(modulus=1.1754943508222875e-38, angle=0.0, n=2)  # tiny iterate, huge g'
def test_eval_complex_whole_range(atlas, modulus, angle, n):
    z = cmath.rect(modulus, angle)
    try:
        y = eval_complex(z, n, atlas).y
    except OnCut:     # within the documented guard of a cut or branch point
        reject()
    # reflection and odd symmetry in the sheet label
    y_conj = eval_complex(z.conjugate(), n, atlas).y
    assert abs(y_conj - y.conjugate()) <= 4 * EPS * (1 + abs(y))
    assert eval_complex(z, -n, atlas).y == -y
    # a returned root is a Halley fixed point, to rounding scaled by the
    # root's condition |z y / (y^2 + z^2 + z)| (large next to a branch point)
    if abs(cmath.cos(y)) >= 1e-8:
        cond = abs(z) * abs(y) / abs(y * y + z * z + z)
        assert abs(halley_step(z, y) - y) <= 8 * EPS * (1 + abs(y) + cond)
    # outside the cut disk the value is finite and labels its own sheet
    if abs(z) >= EXTERIOR_FACTOR * complex_plane._sheet(abs(n)).disk:
        assert math.isfinite(y.real) and math.isfinite(y.imag)
        limit = math.copysign((abs(n) - 0.5) * math.pi, n)
        assert abs(y - limit) < 0.5 * math.pi


def test_eval_complex_far_imaginary(atlas):
    # raised StepTooLarge while every value was continued from a real anchor
    y = eval_complex(1e12j, 1, atlas).y
    with mp.workdps(40):
        z, root = mp.mpc(0, 1e12), mp.pi / 2
        for _ in range(3):
            root = mp.pi / 2 - mp.atan(root / z)
        assert abs(y - root) <= 4 * EPS * abs(y)


def _on_any_sheet(atlas, z, n):
    """eval_complex at z on sheets n and -n and at conj(z) on sheet n, and
    the number of branch points they had to find.  The process's caches of
    branch points and sheet records are emptied before and after, so the
    count starts cold and nothing found through the patch stays in them."""
    complex_plane._point.cache_clear()
    complex_plane._sheet.cache_clear()
    try:
        with mock.patch.object(complex_plane, "find_branch_point",
                               side_effect=find_branch_point) as found:
            values = [eval_complex(z, n, atlas), eval_complex(z, -n, atlas),
                      eval_complex(z.conjugate(), n, atlas)]
    finally:
        complex_plane._point.cache_clear()
        complex_plane._sheet.cache_clear()
    return values, found.call_count


def _check_any_sheet(atlas, z, n, exterior):
    (v, minus, conj), found = _on_any_sheet(atlas, z, n)
    y = v.y
    assert found <= 2                     # x_n and x_(n-1) at most: no O(n) work
    assert minus.y == -y
    assert abs(conj.y - y.conjugate()) <= 4 * EPS * (1 + abs(y))
    if exterior:
        # the contraction certificate: |1/(z + y^2/z)| <= 1/2 and
        # |y - c + atan(y/z)| <= 4 eps (1 + |y|) put y within 8 eps of the root
        c = (n - 0.5) * math.pi
        assert abs(1.0 / (z + y * y / z)) <= 0.5
        assert abs(y - c + cmath.atan(y / z)) <= 4 * EPS * (1 + abs(y))


def _any_sheet_point(n, exterior, s, angle):
    """A point of sheet n's exterior (|z| up to 1e10 times its edge), or right
    of its band inside the disk (s in [0, 1] spreads it over the disk)."""
    edge = EXTERIOR_FACTOR * abs(find_branch_point(n).x)
    if exterior:
        return cmath.rect(edge * 10.0 ** (10.0 * s), angle)
    z = cmath.rect(edge * math.sqrt(s) * (1.0 - 1e-9), 0.5 * angle)
    return z if z.real > 0.0 else None


@settings(max_examples=300)
@given(n=st.integers(min_value=1, max_value=10 ** 6), exterior=st.booleans(),
       s=st.floats(min_value=0.0, max_value=1.0), angle=angles)
def test_eval_complex_on_any_sheet(atlas, n, exterior, s, angle):
    # sheets up to 1e6 on the direct routes, from one atlas shared by every
    # example: oddness, reflection and the exterior certificate
    z = _any_sheet_point(n, exterior, s, angle)
    if z is None or (n == 1 and abs(z) < complex_plane.CUT_GUARD):
        reject()
    _check_any_sheet(atlas, z, n, exterior)


@pytest.mark.parametrize("n", [2 ** 53, 10 ** 18])
@pytest.mark.parametrize("exterior", [True, False])
def test_eval_complex_past_float_resolution(atlas, n, exterior):
    # outside the cut disk a certified value or a WtanError, never a bare
    # Python exception; inside it DomainViolation, as float64 no longer
    # orders the sheet's branch points
    z = _any_sheet_point(n, exterior, 0.3, 0.5)
    if not exterior:
        for sheet in (n, -n):
            with pytest.raises(DomainViolation):
                eval_complex(z, sheet, atlas)
        return
    try:
        _check_any_sheet(atlas, z, n, exterior)
    except WtanError:
        pass


@pytest.mark.parametrize("n", [2 ** 1020, 2 ** 1020 + 1, -(2 ** 1020 + 1), 10 ** 309])
def test_branch_index_at_the_float_limit(atlas, n):
    # a value or a WtanError up to |n| = 2**1020, and past it DomainViolation
    # from both solvers, never the bare OverflowError of float(n)
    calls = (lambda: eval_real(1.0, n), lambda: eval_real(-3.0, n),
             lambda: eval_complex(2 + 2j, n, atlas), lambda: eval_complex(-2 + 2j, n, atlas))
    for call in calls:
        if abs(n) > 2 ** 1020:
            with pytest.raises(DomainViolation):
                call()
        else:
            try:
                call()
            except WtanError:
                pass
