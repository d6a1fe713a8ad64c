"""Quadrature verification of the closed-form integrals of the principal
branch.

Substituting x = w*tan(w) turns integrals of functions of the branch value
into elementary ones; the two antiderivatives checked here are

    int ln(w(x)) dx        = x ln(w(x)) + ln|cos(w(x))|
    int ln(sin(w(x))) dx   = x ln(sin(w(x))) - w(x)^2 / 2

and two definite values follow:

    int_0^inf ln(sin(w(x))) dx = -pi^2/8
    int_0^(pi/4) w(x) dx       = pi^2/16 + (pi/8) ln 2 - G/2     (G: Catalan)

The improper integral is computed as finite quadrature up to a cutoff X
plus an analytic tail obtained by composing the large-argument series:
ln sin w = -(pi^2/8) x^(-2) (1 - 2/x + ...), integrated term by term.  The
x -> 0 endpoint is tamed by the substitution x = s^2, which turns the
integrable ln(sin(sqrt(x))) ~ (1/2) ln x singularity into a smooth factor.
The tail coefficients and Catalan's constant are float literals, so the
module needs neither mpmath nor `series`.
"""

from __future__ import annotations

import math

from .core import EPS, _float, _ordered_sum, _panel_nodes, eval_real
from .errors import NonFiniteArgument, OutsideConvergence, QuadratureFailure

__all__ = [
    "CATALAN",
    "LOG_SIN_TOTAL",
    "CATALAN_COMBINATION",
    "check_indefinite_log",
    "check_indefinite_logsin",
    "definite_lnsin",
    "definite_catalan",
    "lnsin_tail",
]

CATALAN = 0.915965594177219   # float(mpmath.catalan)
LOG_SIN_TOTAL = -math.pi ** 2 / 8.0
CATALAN_COMBINATION = math.pi ** 2 / 16.0 + math.pi / 8.0 * math.log(2.0) \
    - 0.5 * CATALAN


# _quad's targets: the summed error estimate must reach
# min(max(ABS_TOL*1e-3, REL_TOL*|value|), ABS_TOL) within MAX_SUBDIVISIONS
# intervals (one more per extra starting interval); an estimate left above
# ABS_TOL raises QuadratureFailure.
ABS_TOL = 1e-9
REL_TOL = 1e-10
MAX_SUBDIVISIONS = 200
# definite_lnsin integrates numerically up to here, analytically beyond.
TAIL_CUTOFF = 100.0

_QUAD_NODES = 10  # Gauss-Legendre nodes per panel in _quad


def _quad(f, lo, hi):
    """Adaptive bisection over Gauss-Legendre panels.

    Each interval carries a fine value (two panels) and an error estimate,
    the fine-vs-coarse difference, as in the dispersion quadrature; the
    coarse value is one panel over the whole interval.  The interval with
    the largest estimate is bisected, its halves taking the parent's panels
    as their coarse values, until the summed estimate meets the target
    above or MAX_SUBDIVISIONS - 1 bisections are made.

    A range with hi > 100*lo > 0 starts from a geometric split into
    intervals that span at most a factor 100 each: the integrands here vary
    on the scale of x itself, and one interval over [1, 1e20] would place
    every node above 1e18 and see none of that variation.

    An interval's value moves by up to ~eps*|x*f| with each rounded end (a
    bisection's midpoint too), so its estimate is floored there and the
    interval furthest above its floor is bisected: where the floors alone
    exceed ABS_TOL (the ln w check from hi ~ 1e7 on) it raises at once.
    """
    k = _QUAD_NODES
    xs1, ws1 = _panel_nodes(1.0, 1, k)
    xs2, ws2 = _panel_nodes(1.0, 2, k)

    def interval(a, b, coarse):
        vals = [f(a + (b - a) * x) for x in xs2]
        left = (b - a) * math.fsum(w * v for w, v in zip(ws2[:k], vals[:k]))
        right = (b - a) * math.fsum(w * v for w, v in zip(ws2[k:], vals[k:]))
        floor = 2.0 * EPS * max(abs(a), abs(b)) * max(map(abs, vals))
        return max(abs(left + right - coarse), floor), floor, a, b, left, right

    def panel(a, b):
        return (b - a) * math.fsum(w * f(a + (b - a) * x) for x, w in zip(xs1, ws1))

    ends = [lo, hi]
    ratio = 100.0  # the widest hi/lo one starting interval spans
    if lo > 0.0 and hi > ratio * lo:
        t_lo, t_hi = math.log(lo), math.log(hi)
        n = math.ceil((t_hi - t_lo) / math.log(ratio))
        ends[1:1] = [math.exp(t_lo + (t_hi - t_lo) * i / n) for i in range(1, n)]
    parts = [interval(a, b, panel(a, b)) for a, b in zip(ends, ends[1:])]
    limit = MAX_SUBDIVISIONS + len(parts) - 1
    while True:
        value = math.fsum(p[4] + p[5] for p in parts)
        err = math.fsum(p[0] for p in parts)
        target = min(max(ABS_TOL * 1e-3, REL_TOL * abs(value)), ABS_TOL)
        worst = max(parts, key=lambda p: p[0] - p[1])
        if err <= target or worst[0] <= worst[1] or len(parts) >= limit:
            break
        parts.remove(worst)
        _, _, a, b, left, right = worst
        mid = 0.5 * (a + b)
        parts += [interval(a, mid, left), interval(mid, b, right)]
    if err > ABS_TOL:
        raise QuadratureFailure(
            f"estimated error {err:.3e} above {ABS_TOL:g} on [{lo}, {hi}]"
        )
    return value


def _check_indefinite(integrand, anti, x_lo: float, x_hi: float) -> float:
    """|quadrature of integrand - difference of anti| on [x_lo, x_hi], each
    end taken as `_float` gives it."""
    x_lo, x_hi = _float(x_lo), _float(x_hi)
    if not 0 < x_lo <= x_hi < math.inf:
        raise ValueError("need 0 < x_lo <= x_hi < inf")
    if x_lo == x_hi:
        return 0.0
    return abs(_quad(integrand, x_lo, x_hi) - (anti(x_hi) - anti(x_lo)))


def check_indefinite_log(x_lo: float, x_hi: float) -> float:
    """|quadrature of ln w - antiderivative difference| on [x_lo, x_hi]."""
    def anti(x):
        w = eval_real(x, 1)
        return x * math.log(w) + math.log(abs(math.cos(w)))

    return _check_indefinite(lambda x: math.log(eval_real(x, 1)), anti,
                             x_lo, x_hi)


def _log_sin_w(x: float) -> tuple[float, float]:
    """(w, ln sin w) on the principal branch at x > 0.

    Past TAIL_CUTOFF sin w is within 1.3e-4 of 1 and log(sin(w)) keeps
    only its absolute accuracy (it is 0 from x ~ 1e8 on), so ln sin w is
    taken there as -log1p((w/x)^2)/2, since sin^2 w = x^2/(x^2 + w^2)
    when w*tan(w) = x.
    """
    w = eval_real(x, 1)
    if x > TAIL_CUTOFF:
        return w, -0.5 * math.log1p((w / x) ** 2)
    return w, math.log(math.sin(w))


def check_indefinite_logsin(x_lo: float, x_hi: float) -> float:
    """|quadrature of ln sin w - antiderivative difference| on [x_lo, x_hi]."""
    def anti(x):
        w, log_sin = _log_sin_w(x)
        return x * log_sin - 0.5 * w * w

    return _check_indefinite(lambda x: _log_sin_w(x)[1], anti, x_lo, x_hi)


# q_0..q_6 of ln sin w(x) = sum_(m>=2) q_m x^(-m), from the large-argument
# series: with u = pi/2 - w = -(pi/2) sum_(k>=1) b_k x^(-k) (b_k from
# `series.large_x_coeffs(6)`), ln sin w = ln cos u = -u^2/2 - u^4/12 - u^6/45
# - ...  Leading terms: q_2 = -pi^2/8, q_3 = +pi^2/4.  The tests rebuild
# them from the series bit for bit.
_LNSIN_TAIL = (-0.0, -0.0, -1.2337005501361697, 2.4674011002723395,
               -2.1790846030022215, -3.1826220522888575, 16.694830347821597)


def lnsin_tail(X: float) -> float:
    """Analytic tail int_X^inf ln sin w dx, leading term -pi^2/(8X), for X
    past 2.6397047612188325 (`series.RHO_LIMIT`, the radius of the 1/x
    series), else OutsideConvergence; NaN raises NonFiniteArgument.  Past
    the leading term, a term whose power of X would reach 2^1023 (and
    soon overflow) is taken as 0: it is then below 2^-500 times the
    leading term.  X is taken as `_float` gives it: past float64's range,
    +-inf."""
    X = _float(X)
    if not X > 2.6397047612188325:
        raise (NonFiniteArgument if math.isnan(X) else OutsideConvergence)(
            f"X={X} must exceed 2.6397, the radius of the 1/x series")
    return _ordered_sum(qm / ((m - 1) * X ** (m - 1)) for m, qm in enumerate(_LNSIN_TAIL[2:], 2)
                        if m == 2 or (m - 1) * math.log2(X) < 1023.0)


def definite_lnsin() -> float:
    """int_0^inf ln sin(w(x)) dx: quadrature on [0, X] plus analytic tail.

    Equals -pi^2/8 exactly (the antiderivative telescopes between the
    endpoint limits), which the test suite checks to 1e-6.
    """
    X = TAIL_CUTOFF

    def smooth(s):  # x = s^2 takes out the ln sqrt(x) endpoint singularity
        return 2.0 * s * _log_sin_w(s * s)[1]

    head = _quad(smooth, 0.0, 1.0)
    body = _quad(lambda x: _log_sin_w(x)[1], 1.0, X)
    return head + body + lnsin_tail(X)


def definite_catalan() -> float:
    """int_0^(pi/4) w(x) dx; closed form pi^2/16 + (pi/8) ln 2 - G/2
    with Catalan's constant G = 0.91596594..., numerically 0.431066."""
    def smooth(s):
        return 2.0 * s * eval_real(s * s, 1)

    return _quad(smooth, 0.0, math.sqrt(math.pi / 4.0))
