"""Property tests of the real and complex solvers over the whole float64 range.

Real axis: the residual target TOL*(1+|x|) is out of reach wherever
w*tan(w) is too steep for float64 near the window edge (large |x|); there
the returned value must instead bracket the root to within 8 ulp, the width
at which _solve_shifted declares its bracket collapsed.  Both checks are
made in mpmath at 40 + |log10 x| digits, enough to resolve g(w) = w*sin(w)
- x*cos(w) at the ulp scale for subnormal and huge x alike.

Complex plane: eval_complex on sheets +-1..+-4 for |z| up to 1.7e308,
drawn both from |z| <= 18, where the cuts of those sheets lie, and with
log10|z| spread over [-2, 308.23].
"""

import cmath
import math

import mpmath as mp
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import wtan.core
from wtan.complex_plane import EXTERIOR_FACTOR, eval_complex
from wtan.core import eval_real, halley_step
from wtan.errors import OnCut

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
    if abs(z) >= EXTERIOR_FACTOR * atlas.disk_radii[abs(n) - 1]:
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
