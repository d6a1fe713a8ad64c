"""Correctness checks written independently of the package.

Nothing here imports wtan: real values are checked by residual or by the
closed-form branch identity, and where a reference value is needed it comes
from plain bisection (`real_oracle`, `imaginary_boundary_oracle`) or from a
closed form.
"""

from __future__ import annotations

import cmath
import math

EPS = 2.220446049250313e-16
CATALAN_G = 0.915965594177219015054603514932384110774
LNSIN_TOTAL = -math.pi ** 2 / 8.0
CATALAN_COMBINATION = (math.pi ** 2 / 16.0 + math.pi / 8.0 * math.log(2.0)
                       - 0.5 * CATALAN_G)
# |x_1|, the convergence radius of both series
RHO_1 = 2.6397047612

# printed branch-point table: n, Re x_n, Im x_n, |x_n|, Re w_n, Im w_n
PRINTED_BRANCH_POINTS = (
    ("1", "-1.650611", "2.059981", "2.639705", "2.106196", "1.125364"),
    ("2", "-2.057845", "5.334708", "5.717853", "5.356269", "1.551574"),
    ("3", "-2.278470", "8.522637", "8.821948", "8.536682", "1.775544"),
    ("4", "-2.431122", "11.68877", "11.938917", "11.69918", "1.929404"),
    ("5", "-2.547991", "14.84580", "15.062869", "14.85406", "2.046852"),
    ("6", "-2.642706", "17.99809", "18.191069", "18.00493", "2.141891"),
)


def real_ok(x: float, n: int, y: float) -> bool:
    """Scaled residual |y tan y - x|/(1+|x|) <= 1e-12, or the branch identity

        y = sgn(n)(|n|-1/2)pi + Theta(-x) sgn(y) pi + atan2(-y, x)

    within 32 ulp of its largest term.  The identity is needed near the tan
    pole, where a correctly rounded y already has a large residual; it also
    pins the branch, which the residual alone does not.
    """
    if not math.isfinite(y):
        return False
    if abs(y * math.tan(y) - x) <= 1e-12 * (1.0 + abs(x)):
        return _in_window(x, n, y)
    c = math.copysign((abs(n) - 0.5) * math.pi, n)
    rhs = c + (math.copysign(math.pi, y) if x < 0.0 else 0.0) + math.atan2(-y, x)
    return abs(y - rhs) <= 32.0 * math.ulp(abs(c) + math.pi)


def _window(x: float, m: int) -> tuple[float, float]:
    """Real window of branch m >= 1 at x != 0."""
    if x > 0.0:
        return (m - 1) * math.pi, (m - 0.5) * math.pi
    return (m - 0.5) * math.pi, m * math.pi


def _in_window(x: float, n: int, y: float) -> bool:
    """y lies in branch n's real window (closed, to allow rounding onto an edge)."""
    lo, hi = _window(x, abs(n))
    v = y if n > 0 else -y
    slack = 4.0 * math.ulp(hi)
    return lo - slack <= v <= hi + slack


def real_oracle(x: float, n: int) -> float:
    """Branch n at real x != 0 by bisection on y sin y - x cos y over the window."""
    if n < 0:
        return -real_oracle(x, -n)
    lo, hi = _window(x, n)

    def g(y):
        return y * math.sin(y) - x * math.cos(y)

    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm < 0.0) == (glo < 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(b))


def complex_floor(z: complex, y: complex) -> float:
    """The acceptance bound eval_complex documents: tol*(1+|z|) or, near a
    tan pole, the conditioning floor 4 eps |d(y tan y)/dy| (1+|y|)."""
    t = cmath.tan(y)
    steep = abs(y * (1.0 + t * t) + t)
    return max(1e-13 * (1.0 + abs(z)), 4.0 * EPS * steep * (1.0 + abs(y)))


def complex_ok(z: complex, n: int, y: complex, far: bool, slack: float = 1.0) -> bool:
    """Residual within the documented floor; far from the cut disk the value
    must also lie within pi/2 of the sheet's limit sgn(n)(|n|-1/2)pi, which
    separates it from the neighbouring sheets."""
    if not (math.isfinite(y.real) and math.isfinite(y.imag)):
        return False
    try:
        res = abs(y * cmath.tan(y) - z)
    except OverflowError:
        return False
    if res > slack * complex_floor(z, y):
        return False
    if far:
        return abs(y - math.copysign((abs(n) - 0.5) * math.pi, n)) < 0.5 * math.pi
    return True


def imaginary_boundary_oracle(u: float) -> float:
    """p > 0 with p tanh p = -u: the upper boundary value i p on the sheet-1
    real cut, for u < 0."""
    lo, hi = 0.0, max(10.0, -2.0 * u)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mid * math.tanh(mid) + u < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def printed_tolerance(text: str) -> float:
    """Half an ulp of a printed decimal plus the table's 1e-6 target."""
    return 0.5 * 10.0 ** (-len(text.split(".")[1])) + 1e-6


def branch_point_ok(n: int, x: complex, y: complex) -> bool:
    """Against the printed table for n <= 6; beyond it, the singularity
    conditions sin w cos w + w = 0 and x = w tan w."""
    if n <= len(PRINTED_BRANCH_POINTS):
        row = PRINTED_BRANCH_POINTS[n - 1]
        got = (x.real, x.imag, abs(x), y.real, y.imag)
        return all(abs(v - float(t)) <= printed_tolerance(t)
                   for t, v in zip(row[1:], got))
    h = cmath.sin(y) * cmath.cos(y) + y
    return abs(h) <= 1e-9 * abs(y) and abs(y * cmath.tan(y) - x) <= 1e-9 * abs(x)


SMALL_X_EXACT = (1.0, -1.0 / 6.0, 11.0 / 360.0, -17.0 / 5040.0, -281.0 / 604800.0)
LARGE_X_EXACT = (1.0, -1.0, 1.0, -(1.0 - math.pi ** 2 / 12.0),
                 -(math.pi ** 2 / 3.0 - 1.0))


def leading_coefficients_ok(got, exact, rel: float = 1e-12) -> bool:
    return all(abs(g - e) <= rel * abs(e) for g, e in zip(got, exact))


def clenshaw(s: float, coeffs) -> float:
    d1 = d2 = 0.0
    for c in reversed(coeffs[1:]):
        d1, d2 = 2.0 * s * d1 - d2 + c, d1
    return s * d1 - d2 + coeffs[0]


def chebyshev_value(x: float, a: float, alpha, beta, gamma) -> float:
    """The piecewise model's map, written out from its documented form."""
    if 0.0 <= x <= a:
        return math.sqrt(x) * clenshaw(2.0 * x / a - 1.0, alpha)
    if abs(x) > a:
        return 0.5 * math.pi * clenshaw(a / x, beta)
    return math.pi * clenshaw(2.0 * x / a + 1.0, gamma)
