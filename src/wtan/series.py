"""Power-series machinery for the principal branch of w*tan(w) = x.

Two expansions are generated, analyzed, and evaluated:

* small argument:  w(x) = sqrt(x) * sum_k a_k x^k          (a_0 = 1)
* large argument:  w(x) = (pi/2) * sum_k b_k x^(-k)        (b_0 = 1)

Both coefficient families satisfy closed recursion systems obtained from
the differential equation w' = w/(x + x^2 + w^2).  For the large-argument
family, writing 1/w(1/t) = (2/pi) * sum_k c_k t^k gives the coupled system

    (k+1) c_(k+1) + (k-1) c_k = (pi^2/4) (1 - delta_k0) (k-1) b_(k-1)
    sum_(j=0..k) b_(k-j) c_j = delta_k0 ,          b_0 = 1 ,

and for the small-argument family, with f(x) = sum_k a_k x^k and
f^3 = sum_k d_k x^k (the cube enters through f*(f^3)' = 3 f^3 f'):

    a_k + (1 - delta_k0) a_(k-1) + (1/3) (2k+3)/(2k-1) d_k = 0
    d_k = (1/k) sum_(j=1..k) (4j - k) a_j d_(k-j) ,    a_0 = d_0 = 1 .

An independent route to the large-argument coefficients is series inversion
of the implicit equation (Lagrange's expansion theorem),

    b_k = -(pi/2)^k (1/k!) d^(k-1)/dv^(k-1) [ v(1-v)/tan(pi v/2) ]^k |_(v=0)

realized here with truncated power-series arithmetic; it cross-checks the
recursion to working precision.

Both coefficient sequences eventually oscillate under a power-law envelope,

    coeff_k ~ (c / k^(3/2)) * rho^(+-k) * sin(a*k + b),

whose parameters (rho, a) encode the modulus and argument of the nearest
complex singularity; `fit_asymptotic` recovers them with a Prony-type
linear fit.  Coefficients are generated with mpmath extended precision:
plain float64 turns out to lose only a couple of digits by k ~ 300, but
the extended route removes the question entirely.  Every convolution is
one fused dot product (`mp.fdot`): its products are summed exactly and
rounded once, so a sum costs one rounding instead of one per term.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import mpmath as mp

from .errors import FitDiverged, NonFiniteArgument, OutsideConvergence

__all__ = [
    "SeriesKind",
    "SeriesTable",
    "RadiusEstimate",
    "AsymptoticFit",
    "SeriesEval",
    "small_x_coeffs",
    "large_x_coeffs",
    "lagrange_b",
    "eval_series",
    "radius_estimates",
    "fit_asymptotic",
]

# |x_1|: modulus of the nearest singularity, known to this accuracy
RHO_LIMIT = 2.6397047612188325
# detrending scale for the asymptotic fit, kept near RHO_LIMIT
RHO_HAT = 2.64
# working digits of lagrange_b
LAGRANGE_DIGITS = 50


class SeriesKind(enum.Enum):
    SMALL_X = "small"
    LARGE_X = "large"


def _auto_precision(order: int) -> int:
    """Working digits of the order-`order` recursions.

    The recursions lose about 3 + log10(order) digits to rounding (measured
    against float64 at orders up to a few hundred: the convolution terms
    share the magnitude of the result), so this leaves more than 25 valid
    digits at every order.
    """
    if order <= 40:
        return 30
    return max(50, 15 + order // 4)


@dataclass(frozen=True)
class SeriesTable:
    """Coefficients of one expansion plus its auxiliary family.

    primary holds a_k (SMALL_X) or b_k (LARGE_X); secondary holds the
    matching d_k or c_k.  Values are mpmath floats at `precision_digits`
    working digits.  The float coefficients and the convergence bound that
    `eval_series` uses are computed on first use and kept on the instance;
    they are not fields, so equality, hashing and repr ignore them.
    """

    kind: SeriesKind
    order: int
    primary: tuple
    secondary: tuple
    precision_digits: int

    @cached_property
    def _floats(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.primary)

    @cached_property
    def _bound(self) -> float:
        """Convergence bound of `eval_series`: the root-test estimate at the
        highest nonzero stored order, capped by RHO_LIMIT from above
        (SMALL_X) or from below (LARGE_X)."""
        small = self.kind is SeriesKind.SMALL_X
        edge = math.inf
        for k in range(self.order, 0, -1):
            coeff = self.primary[k]
            if coeff != 0:
                with mp.workdps(self.precision_digits):
                    edge = float(abs(coeff) ** (mp.mpf(-1 if small else 1) / k))
                break
        return min(edge, RHO_LIMIT) if small else max(edge, RHO_LIMIT)

    def primary_floats(self) -> list[float]:
        """The primary coefficients rounded to floats, as a new list."""
        return list(self._floats)

    def recursion_residuals(self) -> float:
        """Max defect of the defining recursions over all stored orders,
        scaled by the magnitude of the largest participating term (the
        coefficients grow or shrink geometrically, so absolute defects are
        meaningless at high order).  Zero to working precision for a table
        produced by this module.
        """
        with mp.workdps(self.precision_digits):
            worst = mp.mpf(0)
            if self.kind is SeriesKind.SMALL_X:
                a, d = self.primary, self.secondary
                for k in range(self.order + 1):
                    r1 = a[k] + (a[k - 1] if k else 0) + \
                        mp.mpf(2 * k + 3) / (3 * (2 * k - 1)) * d[k]
                    worst = max(worst, abs(r1) / (1 + abs(a[k])))
                    if k >= 1:
                        conv = mp.fdot([(4 * j - k) * a[j] for j in range(1, k + 1)],
                                       d[k - 1::-1]) / k
                        worst = max(worst, abs(conv - d[k]) / (1 + abs(d[k])))
            else:
                b, c = self.primary, self.secondary
                pi2_4 = mp.pi ** 2 / 4
                for k in range(self.order + 1):
                    terms = [b[k - j] * c[j] for j in range(k + 1)]
                    scale = 1 + max(map(abs, terms))
                    conv = mp.fsum(terms)
                    worst = max(worst, abs(conv - (1 if k == 0 else 0)) / scale)
                    if k + 1 <= self.order:
                        r1 = (k + 1) * c[k + 1] + (k - 1) * c[k] - \
                            (pi2_4 * (k - 1) * b[k - 1] if k else 0)
                        worst = max(worst, abs(r1) / (1 + (k + 1) * abs(c[k + 1])))
            return float(worst)


@dataclass(frozen=True)
class RadiusEstimate:
    k: int
    rho: float
    kind: SeriesKind


@dataclass(frozen=True)
class AsymptoticFit:
    c: float
    a: float
    b: float
    rho: float
    residual: float


class SeriesEval(NamedTuple):
    value: float
    truncation_estimate: float


def small_x_coeffs(K: int) -> SeriesTable:
    """Generate a_0..a_K and d_0..d_K of the small-argument expansion.

    Works at 30 digits up to order 40 and at max(50, 15 + K//4) digits
    beyond (the table's `precision_digits`).
    """
    if K < 0:
        raise ValueError("order must be >= 0")
    dps = _auto_precision(K)
    with mp.workdps(dps):
        a = [mp.mpf(1)]
        d = [mp.mpf(1)]
        for k in range(1, K + 1):
            S = mp.fdot([(4 * j - k) * a[j] for j in range(1, k)], d[k - 1:0:-1]) / k
            # substitute d_k = 3 a_k + S into the first recursion and solve
            ak = -mp.mpf(2 * k - 1) / (4 * k + 2) * a[k - 1] \
                 - mp.mpf(2 * k + 3) / (3 * (4 * k + 2)) * S
            a.append(ak)
            d.append(3 * ak + S)
        return SeriesTable(SeriesKind.SMALL_X, K, tuple(a), tuple(d), dps)


def large_x_coeffs(K: int) -> SeriesTable:
    """Generate b_0..b_K and c_0..c_K of the large-argument expansion.

    Works at 30 digits up to order 40 and at max(50, 15 + K//4) digits
    beyond (the table's `precision_digits`).
    """
    if K < 0:
        raise ValueError("order must be >= 0")
    dps = _auto_precision(K)
    with mp.workdps(dps):
        pi2_4 = mp.pi ** 2 / 4
        b = [mp.mpf(1)]
        c = [mp.mpf(1), mp.mpf(1)]          # c_1 = c_0 from the k = 0 relation
        for k in range(1, K + 1):
            b.append(-mp.fdot(b[k - 1::-1], c[1:k + 1]))
            c.append((pi2_4 * (k - 1) * b[k - 1] - (k - 1) * c[k]) / (k + 1))
        return SeriesTable(SeriesKind.LARGE_X, K, tuple(b), tuple(c[:K + 1]), dps)


# ---------------------------------------------------------------------------
# Lagrange-inversion oracle for the large-argument coefficients
# ---------------------------------------------------------------------------

def _series_mul(p, q, N):
    """Product of two series of at least N+1 terms, truncated after v^N."""
    return [mp.fdot(p[:n + 1], q[n::-1]) for n in range(N + 1)]


_PHI: list = []   # phi's Taylor coefficients, to the highest order built so far


def lagrange_b(k: int) -> float:
    """b_k by series inversion, independent of the recursion route.

    Raises the Taylor series of phi(v) = v(1-v)/tan(pi v/2) -- regular at
    v = 0 since tan(pi v/2) = (pi v/2)(1 + ...) -- to the k-th power by
    arithmetic truncated after v^(k-1), and reads off

        b_k = -(pi/2)^k * (1/k) * [v^(k-1)] phi(v)^k ,   b_0 = 1 .

    phi's series is built once, at twice the highest order asked so far, and
    sliced: its coefficients depend only on lower ones, so each slice is
    bit-identical to a fresh build.  Works at LAGRANGE_DIGITS = 50 digits.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return 1.0
    N = k - 1
    with mp.workdps(LAGRANGE_DIGITS):
        if len(_PHI) <= N:
            M = max(N, 2 * len(_PHI))
            half_pi = mp.pi / 2
            # sin(pi v/2)/v and cos(pi v/2) as series in v
            s = [mp.mpf(0)] * (M + 1)
            cc = [mp.mpf(0)] * (M + 1)
            for m in range(M // 2 + 1):
                sign = -1 if m % 2 else 1
                s[2 * m] = sign * half_pi ** (2 * m + 1) / mp.factorial(2 * m + 1)
                cc[2 * m] = sign * half_pi ** (2 * m) / mp.factorial(2 * m)
            # reciprocal of s
            inv = [mp.mpf(0)] * (M + 1)
            inv[0] = 1 / s[0]
            for i in range(1, M + 1):
                inv[i] = -mp.fdot(s[1:i + 1], inv[i - 1::-1]) / s[0]
            one_minus_v = [mp.mpf(1), mp.mpf(-1)] + [mp.mpf(0)] * (M - 1)
            _PHI[:] = _series_mul(_series_mul(cc, inv, M), one_minus_v, M)
        power = [mp.mpf(1)] + [mp.mpf(0)] * N
        base, e = _PHI[:N + 1], k
        while e:
            if e & 1:
                power = _series_mul(power, base, N)
            e >>= 1
            if e:
                base = _series_mul(base, base, N)
        return float(-(mp.pi / 2) ** k / k * power[k - 1])


# ---------------------------------------------------------------------------
# evaluation and analysis
# ---------------------------------------------------------------------------

def eval_series(x: float, table: SeriesTable) -> SeriesEval:
    """Horner evaluation of the expansion at real x.

    Small-argument tables require 0 <= x below the convergence bound
    min(root-test estimate, 2.6397); large-argument tables require |x|
    above max(root-test estimate, 2.6397).  The root-test estimate is
    taken at the highest nonzero stored order.  The float coefficients and
    the bound are computed once per table, on its first evaluation, so
    later calls do float arithmetic only.  The reported truncation
    estimate is the magnitude of the last retained term.  NaN raises
    NonFiniteArgument; on a large-argument table x = +-inf returns the
    limit pi/2 with truncation estimate 0.
    """
    if math.isnan(x):
        raise NonFiniteArgument("x is NaN")
    coeffs, bound = table._floats, table._bound
    if table.kind is SeriesKind.SMALL_X:
        if x < 0:
            raise OutsideConvergence("small-argument series requires x >= 0")
        if x >= bound:
            raise OutsideConvergence(
                f"x={x} is outside the small-argument radius bound {bound:.4f}"
            )
        if x == 0.0:
            return SeriesEval(0.0, 0.0)
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return SeriesEval(math.sqrt(x) * acc,
                          abs(coeffs[-1] * x ** table.order) * math.sqrt(x))
    if abs(x) <= bound:
        raise OutsideConvergence(
            f"|x|={abs(x)} is inside the large-argument radius bound {bound:.4f}"
        )
    t = 1.0 / x
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return SeriesEval(0.5 * math.pi * acc,
                      0.5 * math.pi * abs(coeffs[-1] * t ** table.order))


def radius_estimates(table: SeriesTable) -> list[RadiusEstimate]:
    """Root-test estimates rho^(k) = |a_k|^(-1/k) or |b_k|^(1/k), k >= 1."""
    if table.order < 1:
        raise ValueError("need at least order 1")
    out = []
    with mp.workdps(table.precision_digits):
        for k in range(1, table.order + 1):
            coeff = table.primary[k]
            if coeff == 0:
                continue
            if table.kind is SeriesKind.SMALL_X:
                rho = float(abs(coeff) ** (-mp.mpf(1) / k))
            else:
                rho = float(abs(coeff) ** (mp.mpf(1) / k))
            out.append(RadiusEstimate(k=k, rho=rho, kind=table.kind))
    return out


def _lstsq2(u, v, rhs) -> tuple[float, float]:
    """Least-squares (p, q) minimizing sum_i (p*u_i + q*v_i - rhs_i)^2.

    Closed-form solve of the 2x2 normal equations with correctly rounded
    sums (math.fsum).  Raises FitDiverged when the columns are parallel to
    within float64's resolution of the determinant (numerical rank < 2).
    """
    uu = math.fsum(x * x for x in u)
    uv = math.fsum(x * y for x, y in zip(u, v))
    vv = math.fsum(y * y for y in v)
    ur = math.fsum(x * r for x, r in zip(u, rhs))
    vr = math.fsum(y * r for y, r in zip(v, rhs))
    det = uu * vv - uv * uv
    if not det > 4.0 * 2.220446049250313e-16 * uu * vv:
        raise FitDiverged("least-squares columns are parallel (rank < 2)")
    return (vv * ur - uv * vr) / det, (uu * vr - uv * ur) / det


def fit_asymptotic(table: SeriesTable, k_min: int, k_max: int) -> AsymptoticFit:
    """Fit coeff_k ~ c k^(-3/2) rho^(+-k) sin(a k + b) over k in [k_min, k_max].

    The envelope is removed with the fixed scale 2.64 (mpmath arithmetic, so
    no overflow for any order); the detrended sequence w_k = c g^k sin(ak+b)
    obeys the exact three-term recurrence w_(k+1) = 2 g cos(a) w_k - g^2
    w_(k-1), so a linear least-squares solve (Prony's method for one damped
    sinusoid) yields g and a; amplitude and phase follow from a second
    linear solve.  Both are two-column solves in closed form (`_lstsq2`);
    their columns are far from parallel (condition numbers ~2.1 and ~1.005
    for the order-300 tables over k = 50..300), so forming the normal
    equations costs at most a digit.  The phase is normalized to c > 0 and
    b in (-2*pi, 0].
    """
    if k_max - k_min < 20:
        raise ValueError("need k_max - k_min >= 20 for a stable fit")
    if k_max > table.order:
        raise ValueError(f"table order {table.order} < k_max {k_max}")
    grows = table.kind is SeriesKind.LARGE_X
    ks = range(k_min, k_max + 1)
    with mp.workdps(table.precision_digits):
        rh = mp.mpf(RHO_HAT)
        w = [float(table.primary[k] * mp.mpf(k) ** mp.mpf(1.5)
                   * (rh ** (-k) if grows else rh ** k))
             for k in ks]
    if not all(map(math.isfinite, w)):
        raise FitDiverged("detrended coefficients are not finite")
    alpha, beta = _lstsq2(w[1:-1], w[:-2], w[2:])
    if beta >= 0.0:
        raise FitDiverged(f"Prony step returned beta={beta}; no oscillation found")
    g = math.sqrt(-beta)
    cos_a = alpha / (2.0 * g)
    if abs(cos_a) > 1.0 + 1e-9:
        raise FitDiverged(f"|cos a| = {abs(cos_a)} > 1")
    a = math.acos(max(-1.0, min(1.0, cos_a)))
    rho = g * RHO_HAT if grows else RHO_HAT / g
    # amplitude/phase: w_k g^(-k) = P sin(ak) + Q cos(ak)
    s = [wk / g ** k for k, wk in zip(ks, w)]
    sin_ak = [math.sin(a * k) for k in ks]
    cos_ak = [math.cos(a * k) for k in ks]
    P, Q = _lstsq2(sin_ak, cos_ak, s)
    c = math.hypot(P, Q)
    b = math.atan2(Q, P)
    if c == 0.0:
        raise FitDiverged("zero amplitude")
    b = math.remainder(b, 2.0 * math.pi)
    if b > 0.0:
        b -= 2.0 * math.pi
    resid = math.sqrt(math.fsum((P * x + Q * y - t) ** 2
                                for x, y, t in zip(sin_ak, cos_ak, s)) / len(s)) / c
    return AsymptoticFit(c=c, a=a, b=b, rho=rho, residual=resid)
