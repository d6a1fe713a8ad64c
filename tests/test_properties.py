"""Property tests of the real-axis solver over the whole float64 range.

The residual target TOL*(1+|x|) is out of reach wherever w*tan(w) is too
steep for float64 near the window edge (large |x|); there the returned value
must instead bracket the root to within 8 ulp, the width at which
_solve_shifted declares its bracket collapsed.  Both checks are made in
mpmath at 40 + |log10 x| digits, enough to resolve g(w) = w*sin(w) -
x*cos(w) at the ulp scale for subnormal and huge x alike.
"""

import math

import mpmath as mp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wtan.core
from wtan.core import eval_real

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
