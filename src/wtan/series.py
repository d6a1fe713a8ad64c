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

    b_k = -(1/k) [v^(k-1)] psi(v)^k ,   psi(v) = (1-v) (pi v/2) cot(pi v/2) ,

realized here by raising the Taylor series of psi (psi(0) = 1) to the k-th
power with J.C.P. Miller's recurrence (`lagrange_b`); its floats equal the
recursion's bit for bit, +-inf past float64's range included.

Both coefficient sequences eventually oscillate under a power-law envelope,

    coeff_k ~ (c / k^(3/2)) * rho^(+-k) * sin(a*k + b),

whose parameters (rho, a) encode the modulus and argument of the nearest
complex singularity; `fit_asymptotic` recovers them with a Prony-type
linear fit.  Coefficients are computed on Python integers: a value v is
held as N ~ v * 2^P, so every sum of products is exact and each
convolution is rounded once, to nearest with ties to even, by one integer
division (`_div`).  Plain float64 loses only a couple of digits by
k ~ 300; P bits (1.41 K + 200 for small x, so that the smallest a_k keeps
~200 bits; 256 + K/2 for large x) remove the question entirely.  The one
constant, pi^2/4, is squared from pi by Machin's formula on integers
(`_pi2_4`).  Tables hold exact dyadic Fractions;
a coefficient's float and a root test |c|^(+-1/k) are correctly rounded
from the exact value (`_root` corrects a float estimate by a power cut to
its top bits, and decides by an exact power only near a midpoint between
floats), and each detrended value of the fit is one integer quotient,
rounded once.  Orders are Python ints: numpy integers are converted, and
a bool or a non-integer raises TypeError.
"""

from __future__ import annotations

import enum
import math
import sys
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import NamedTuple

from .core import HALF_PI, _float, _integer
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
# working bits of lagrange_b
_LAGRANGE_BITS = 400
# bits _root keeps of the power m^k it corrects its estimate by
_TOP_BITS = 160
# guard bits of the detrending's k^(3/2) = k * isqrt(k * 4^G) / 2^G
_SQRT_GUARD = 256
# eval_series' limit: one global lookup, where math.inf takes two
_INF = math.inf


class SeriesKind(enum.Enum):
    SMALL_X = "small"
    LARGE_X = "large"


def _div(n: int, d: int) -> int:
    """n/d rounded to the nearest integer, ties to even (d > 0)."""
    q, r = divmod(n, d)
    if 2 * r > d or 2 * r == d and q & 1:
        q += 1
    return q


def _pi2_4(P: int) -> int:
    """pi^2/4 * 2^P rounded to nearest, from pi * 2^P rounded to nearest:
    pi = 16 atan(1/5) - 4 atan(1/239) (Machin), each arctangent summed on
    integers with 32 guard bits (every truncated term errs by less than
    one unit)."""
    one = 1 << (P + 32)

    def atan_inv(x):
        power = total = one // x
        k, x2 = 1, x * x
        while power:
            power //= x2
            k += 2
            total += (power // k) if k % 4 == 1 else -(power // k)
        return total

    pi = _div(16 * atan_inv(5) - 4 * atan_inv(239), 1 << 32)
    return _div(pi * pi, 4 << P)


def _power_gap(n: int, d: int, power: int, s: int) -> tuple[int, int]:
    """n/d - power * 2^s and power * 2^s, both times one positive integer."""
    lhs, rhs = n, d * power
    if s >= 0:
        rhs <<= s
    else:
        lhs <<= -s
    return lhs - rhs, rhs


def _top_power(m: int, k: int) -> tuple[int, int]:
    """(M, t) with m^k (1 - (k-1) 2^(1-B)) <= M 2^t <= m^k, B = _TOP_BITS,
    for 1 <= m < 2^B and k >= 1.

    Binary powering from the top bit of k, cutting each square (times m
    where the bit is set) to its top B bits.  A cut errs by less than
    2^(1-B) of its value; squaring doubles the error so far, so e_j, the
    error after reaching m^j, obeys e_1 = 0, e_2j <= 2 e_j + 2^(1-B) and
    e_(2j+1) <= 2 e_j + 2^(1-B), hence e_k <= (k-1) 2^(1-B).
    """
    M, t = m, 0
    for bit in bin(k)[3:]:
        M *= M
        t *= 2
        if bit == "1":
            M *= m
        cut = M.bit_length() - _TOP_BITS
        if cut > 0:
            M >>= cut
            t += cut
    return M, t


def _root(n: int, d: int, k: int) -> float:
    """The float nearest (n/d)^(1/k), ties to even, for positive integers
    n, d, k.

    A float estimate y = m 2^e from the top bits of n and d, a few ulp
    off, is corrected once: with n/d = y^k (1 + u), the root lies
    x = m ((1+u)^(1/k) - 1) units of 2^e above y.  u comes from one exact
    integer difference against m^k cut to its top 160 bits
    (`_top_power`), whose relative error below (k-1) 2^-159 moves x by
    less than 2^-105 units; floats give x to ~1e-14 units, and the float
    nearest m + x is the answer.  Only where m + x falls within 1e-9
    units of a midpoint between floats does an exact power, of that
    midpoint, decide.  Beyond the normal range the estimate is returned
    as it is: inf, or a subnormal or zero.
    """
    E = n.bit_length() - d.bit_length()
    t, r = divmod(E, k)
    q = (n << max(0, -E)) / (d << max(0, E))        # n/d = q * 2^E, q in (1/2, 2)
    try:
        y = math.ldexp(2.0 ** (r / k) * q ** (1.0 / k), t)
    except OverflowError:
        return math.inf
    if y < sys.float_info.min:
        return y
    f, e = math.frexp(y)
    m, e = int(f * 2.0 ** 53), e - 53                 # 2^52 <= m < 2^53
    top, cut = _top_power(m, k)
    gap, power = _power_gap(n, d, top, cut + e * k)
    x = m * math.expm1(math.log1p(gap / power) / k)
    s = m + x                                         # rounded to the nearest float
    miss = (m - s) + x
    # half the spacing on the side of the miss: a quarter below a power of 2
    half = math.ulp(s) / (4.0 if miss < 0 and math.frexp(s)[0] == 0.5 else 2.0)
    y = math.ldexp(s, e)
    if abs(miss) < half - 1e-9:
        return y
    other = math.nextafter(y, math.copysign(math.inf, miss))
    mid = int(4.0 * s) + int(math.copysign(4.0 * half, miss))
    gap = _power_gap(n, d, mid ** k, (e - 2) * k)[0]
    if gap == 0:                                      # a tie: the even last bit
        return y if int(math.frexp(y)[0] * 2.0 ** 53) % 2 == 0 else other
    return other if (gap > 0) == (miss > 0) else y


def _root_test(coeff, k: int, small: bool) -> float:
    """|coeff|^(-1/k) (small) or |coeff|^(1/k), correctly rounded."""
    n, d = coeff.as_integer_ratio()
    return _root(d, abs(n), k) if small else _root(abs(n), d, k)


def _detrended(ratios, r: float, k: int, shrink: bool):
    """n/d * r^-k (shrink) or n/d * r^k for each (n, d) of `ratios`, k
    counting up from `k`: one correctly rounded quotient of integers each,
    OverflowError past float64's range.  A float's integer ratio has a
    power of 2 below, r = m / 2^e, so r^k is m^k and a shift by e*k bits."""
    m, s = r.as_integer_ratio()
    e, m_k = s.bit_length() - 1, m ** k
    for n, d in ratios:
        yield (n << e * k) / (d * m_k) if shrink else n * m_k / (d << e * k)
        m_k *= m
        k += 1


def _scaled(values) -> tuple[list[int], int]:
    """Integers N_i and their common denominator D, values[i] = N_i / D."""
    ratios = [v.as_integer_ratio() for v in values]
    D = math.lcm(*(q for _, q in ratios))
    return [p * (D // q) for p, q in ratios], D


class _TableFields(NamedTuple):
    kind: SeriesKind
    order: int
    primary: tuple
    secondary: tuple
    precision_digits: int


class SeriesTable(_TableFields):
    """Coefficients of one expansion plus its auxiliary family.

    primary holds a_k (SMALL_X) or b_k (LARGE_X); secondary holds the
    matching d_k or c_k.  Values are exact dyadic Fractions: the module
    computes them as integers scaled by 2^P, rounding each convolution
    once, and `precision_digits` is floor(P * log10 2), the decimal digits
    of that working precision.  A table built by hand may hold any exact
    rationals with `as_integer_ratio` (int, float, Fraction).  The float
    coefficients, the convergence bound and the envelope constant are
    computed on first use and kept in the instance dict (the class has no
    __slots__ for this); so is `_constants`, the one tuple `eval_series`
    reads: those three, whether the table is SMALL_X, the order and
    |c_0|/2.  None is a field, so equality, hashing and repr ignore them.
    """

    @cached_property
    def _constants(self) -> tuple[tuple[float, ...], float, bool, int, float, float]:
        """(floats, bound, small, order, envelope, |c_0|/2): one attribute
        read per `eval_series` call, where five cost ~0.1 us more."""
        return (self._floats, self._bound, self.kind is SeriesKind.SMALL_X, self.order,
                self._envelope, 0.5 * abs(self._floats[0]))

    @cached_property
    def _floats(self) -> tuple[float, ...]:
        return tuple(_float(v) for v in self.primary)

    @cached_property
    def _bound(self) -> float:
        """Convergence bound of `eval_series`: the root-test estimate at the
        highest nonzero stored order, capped by RHO_LIMIT from above
        (SMALL_X) or from below (LARGE_X); RHO_LIMIT itself where no
        coefficient past c_0 is nonzero."""
        small = self.kind is SeriesKind.SMALL_X
        for k in range(self.order, 0, -1):
            if self.primary[k] != 0:
                edge = _root_test(self.primary[k], k, small)
                return min(edge, RHO_LIMIT) if small else max(edge, RHO_LIMIT)
        return RHO_LIMIT

    @cached_property
    def _envelope(self) -> float:
        """E = 2^63 M / |c_0| with M >= max_k |c_k| r^k, where r is the bound
        in t = x (SMALL_X) or t = 1/x (LARGE_X, r = 1/bound); inf where c_0
        is 0 or E is past float64's range.  Each |c_k| r^k / |c_0| is one
        correctly rounded quotient of exact integers, E takes the next float
        above their maximum, and a further factor 1 + 2^-32 covers the
        roundings of `_last_order`."""
        n0, d0 = abs(self.primary[0]).as_integer_ratio()
        if n0 == 0:
            return math.inf
        ratios = (c.as_integer_ratio() for c in self.primary)
        try:
            top = max(_detrended(((abs(n) * d0, d * n0) for n, d in ratios), self._bound, 0,
                                 self.kind is SeriesKind.LARGE_X))
            return math.nextafter(top, math.inf) * (2.0 ** 63 + 2.0 ** 31)
        except OverflowError:
            return math.inf

    def primary_floats(self) -> list[float]:
        """The primary coefficients rounded to floats, as a new list."""
        return list(self._floats)

    def recursion_residuals(self) -> float:
        """Max defect of the defining recursions over all stored orders,
        scaled by the magnitude of the largest participating term (the
        coefficients grow or shrink geometrically, so absolute defects are
        meaningless at high order).  Each defect is exact on the stored
        values (pi^2/4 taken 64 bits finer than their common denominator)
        and rounded once to a float; it is zero to working precision for a
        table produced by this module.
        """
        K = self.order
        values, one = _scaled(self.primary + self.secondary)
        worst = 0.0
        if self.kind is SeriesKind.SMALL_X:
            a, d = values[:K + 1], values[K + 1:]
            for k in range(K + 1):
                # 3 (2k-1) times a_k + a_(k-1) + (2k+3)/(3(2k-1)) d_k
                m = 3 * (2 * k - 1)
                r1 = m * (a[k] + (a[k - 1] if k else 0)) + (2 * k + 3) * d[k]
                worst = max(worst, abs(r1) / (abs(m) * (one + abs(a[k]))))
                if k >= 1:
                    conv = sum((4 * j - k) * a[j] * d[k - j] for j in range(1, k + 1))
                    worst = max(worst, abs(conv - k * one * d[k])
                                / (k * one * (one + abs(d[k]))))
        else:
            b, c = values[:K + 1], values[K + 1:]
            Q = one.bit_length() + 64
            pi2_4 = _pi2_4(Q)
            for k in range(K + 1):
                terms = list(map(mul, b[k::-1], c[:k + 1]))
                conv = sum(terms) - (one * one if k == 0 else 0)
                worst = max(worst, abs(conv) / (one * one + max(max(terms), -min(terms))))
                if k + 1 <= K:
                    r1 = ((k + 1) * c[k + 1] + (k - 1) * c[k] << Q) - \
                        (pi2_4 * (k - 1) * b[k - 1] if k else 0)
                    worst = max(worst, abs(r1) / ((one + (k + 1) * abs(c[k + 1])) << Q))
        return worst


class RadiusEstimate(NamedTuple):
    k: int
    rho: float
    kind: SeriesKind


class AsymptoticFit(NamedTuple):
    c: float
    a: float
    b: float
    rho: float
    residual: float


class SeriesEval(NamedTuple):
    value: float
    truncation_estimate: float


def _table(kind: SeriesKind, K: int, P: int, primary, secondary) -> SeriesTable:
    one = 1 << P
    return SeriesTable(kind, K, tuple(Fraction(v, one) for v in primary),
                       tuple(Fraction(v, one) for v in secondary),
                       int(P * math.log10(2)))


def small_x_coeffs(K: int) -> SeriesTable:
    """Generate a_0..a_K and d_0..d_K of the small-argument expansion.

    Works at P = floor(1.41 K) + 200 bits: a_K ~ 2.64^(-K) keeps ~200.
    """
    K = _integer(K, "order", 0)
    P = 141 * K // 100 + 200
    one = 1 << P
    a, d = [one], [one]
    for k in range(1, K + 1):
        S = _div(sum((4 * j - k) * a[j] * d[k - j] for j in range(1, k)), k << P)
        # substitute d_k = 3 a_k + S into the first recursion and solve
        ak = _div(-3 * (2 * k - 1) * a[k - 1] - (2 * k + 3) * S, 3 * (4 * k + 2))
        a.append(ak)
        d.append(3 * ak + S)
    return _table(SeriesKind.SMALL_X, K, P, a, d)


def large_x_coeffs(K: int) -> SeriesTable:
    """Generate b_0..b_K and c_0..c_K of the large-argument expansion.

    Works at P = 256 + K//2 bits.
    """
    K = _integer(K, "order", 0)
    P = 256 + K // 2
    one = 1 << P
    pi2_4 = _pi2_4(P)
    b = [one]
    c = [one, one]          # c_1 = c_0 from the k = 0 relation
    for k in range(1, K + 1):
        b.append(_div(-sum(map(mul, b[k - 1::-1], c[1:k + 1])), one))
        c.append(_div(pi2_4 * (k - 1) * b[k - 1] - ((k - 1) * c[k] << P), (k + 1) << P))
    return _table(SeriesKind.LARGE_X, K, P, b, c[:K + 1])


# ---------------------------------------------------------------------------
# Lagrange-inversion oracle for the large-argument coefficients
# ---------------------------------------------------------------------------

_PSI: list = []   # psi's Taylor coefficients, to the highest order built so far


def lagrange_b(k: int) -> float:
    """b_k by series inversion, independent of the recursion route.

    Raises the Taylor series of psi(v) = (1-v) (pi v/2) cot(pi v/2), with
    psi(0) = 1, to the k-th power and reads off

        b_k = -(1/k) * [v^(k-1)] psi(v)^k ,   b_0 = 1 .

    psi's series is one series division, (1-v) cos(x) / (sin(x)/x) at
    x = pi v/2, whose even coefficients (-1)^m (pi^2/4)^m / (2m)! and
    / (2m+1)! come from pi^2/4 alone.  It is built once, at twice the
    highest order asked so far, and sliced: its coefficients depend only on
    lower ones, so each slice is bit-identical to a fresh build.  The power
    p = psi^k comes from J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2,
    4.7), which p' psi = k psi' p gives: p_0 = 1 and

        p_n = (1/n) sum_(j=1..n) ((k+1) j - n) psi_j p_(n-j) ,

    one pass over n = 1..k-1, each p_n one integer sum rounded once.  Works
    on integers scaled by 2^400; b_k is rounded once from the exact
    quotient, to +-inf past float64's range.
    """
    k = _integer(k, "k", 0)
    if k == 0:
        return 1.0
    P = _LAGRANGE_BITS
    one = 1 << P
    if len(_PSI) < k:
        M = max(k - 1, 2 * len(_PSI))
        # cos(x) and sin(x)/x as series in v, odd terms 0
        pi2_4 = _pi2_4(P)
        cos, sinc = [0] * (M + 1), [0] * (M + 1)
        term = one
        for m in range(M // 2 + 1):
            cos[2 * m], sinc[2 * m] = term, _div(term, 2 * m + 1)
            term = _div(-term * pi2_4, (2 * m + 1) * (2 * m + 2) << P)
        # (1 - v) cos(x) / (sin(x)/x), whose divisor starts with 1; assigned
        # whole, so that no other thread slices a part-built list
        new = []
        for n in range(M + 1):
            top = cos[n] - (cos[n - 1] if n else 0) << P
            new.append(_div(top - sum(map(mul, sinc[1:n + 1], new[::-1])), one))
        _PSI[:] = new
    psi = _PSI[1:k]
    power = [one]                                   # p_(n-1), ..., p_0: newest first
    for n in range(1, k):
        # the weights (k+1) j - n, j = 1..n, times psi_j: small by big integers
        weighted = map(mul, range(k + 1 - n, k * n + 1, k + 1), psi)
        power.insert(0, _div(sum(map(mul, weighted, power)), n << P))
    return _float(Fraction(-power[0], k << P))


# ---------------------------------------------------------------------------
# evaluation and analysis
# ---------------------------------------------------------------------------

def _last_order(q: float, order: int, envelope: float) -> int:
    """The highest order Horner needs at q = |t|/r on a table of `order`
    with envelope constant E (`SeriesTable._envelope`): K = floor(n) for
    n = log2(E/(1-q)) / log2(1/q), so that M q^(K+1)/(1-q) <= 2^-63 |c_0|;
    `order` where that is no smaller.  (log2, not log: math.log parses an
    optional base and costs three times as much.)"""
    if q == 0.0:
        return 0
    if q >= 1.0:
        return order
    n = math.log2(envelope / (1.0 - q)) / -math.log2(q)
    return int(n) if n < order else order


def eval_series(x: float, table: SeriesTable) -> SeriesEval:
    """Evaluate the expansion at real x by Horner's rule over the terms
    that can reach the float result.

    Small-argument tables require 0 <= x below the convergence bound
    min(root-test estimate, 2.6397); large-argument tables require |x|
    above max(root-test estimate, 2.6397).  The root-test estimate is
    taken at the highest nonzero stored order.  x is taken as a Python
    float: any other real (a numpy scalar, an int) is rounded to the
    nearest float first, to +-inf past float64's range.  The float
    coefficients, the bound, the envelope constant, the kind test, the
    order and |c_0|/2 are computed once per table, on its first
    evaluation, into one cached tuple (`SeriesTable._constants`), so later
    calls read one attribute and do float arithmetic only.  The record is built with
    tuple.__new__, which skips the NamedTuple's Python-level __new__.

    Tail bound.  With t = x (small) or 1/x (large), r the bound in t (1/bound
    for large tables) and q = |t|/r < 1, every term obeys
    |c_k t^k| = |c_k| r^k q^k <= M q^k for M = max_k |c_k| r^k, so the terms
    past order K sum to at most M q^(K+1)/(1-q).  Horner starts at c_K for
    the smallest K (`_last_order`, two log2 calls) that keeps this at most
    2^-63 |c_0|, with M rounded up and a margin of 2^-32 for the roundings
    of q and K.  If the truncated sum S_K keeps |S_K| >= |c_0|/2, the
    dropped tail is at most 2^-62 |S_K|, 2^-9 of the sum's unit roundoff;
    otherwise, and where q is too close to 1 for any K below the order,
    every term is used.  Float coefficients past float64's range are +-inf:
    where a term that is needed is not finite, OutsideConvergence is raised.

    The truncation estimate is the table's own last term, |c_order t^order|
    (times sqrt(x) or pi/2), as floats give it; where that product is not
    finite it is rounded once from the exact coefficient instead.  NaN
    raises NonFiniteArgument; on a large-argument table x = +-inf returns
    the limit pi/2 (times c_0) with truncation estimate 0.
    """
    x = x if type(x) is float else _float(x)
    if x != x:
        raise NonFiniteArgument("x is NaN")
    coeffs, bound, small, order, envelope, half_c0 = table._constants
    if small:
        if x < 0:
            raise OutsideConvergence("small-argument series requires x >= 0")
        if x >= bound:
            raise OutsideConvergence(
                f"x={x} is outside the small-argument radius bound {bound:.4f}")
        if x == 0.0:
            return tuple.__new__(SeriesEval, (0.0, 0.0))
        t, q, scale = x, x / bound, math.sqrt(x)
    else:
        if abs(x) <= bound:
            raise OutsideConvergence(
                f"|x|={abs(x)} is inside the large-argument radius bound {bound:.4f}")
        t = 1.0 / x
        q, scale = abs(t) * bound, HALF_PI
    K = _last_order(q, order, envelope)
    acc = 0.0
    for c in coeffs[K::-1]:
        acc = acc * t + c
    if not half_c0 <= abs(acc) < _INF and K < order:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * t + c
    if not abs(acc) < _INF:
        raise OutsideConvergence(f"x={x} needs a coefficient past float64's range")
    try:
        last = abs(coeffs[-1] * t ** order)
    except OverflowError:
        last = _INF
    if not last < _INF:     # rounded once from the exact coefficient
        last = _float(abs(table.primary[-1]) * Fraction(t) ** order)
    # skips the NamedTuple's Python __new__
    return tuple.__new__(SeriesEval, (scale * acc, scale * last))


def radius_estimates(table: SeriesTable) -> list[RadiusEstimate]:
    """Root-test estimates rho^(k) = |a_k|^(-1/k) or |b_k|^(1/k), k >= 1,
    each correctly rounded from the exact coefficient."""
    if table.order < 1:
        raise ValueError("need at least order 1")
    small = table.kind is SeriesKind.SMALL_X
    return [RadiusEstimate(k=k, rho=_root_test(table.primary[k], k, small), kind=table.kind)
            for k in range(1, table.order + 1) if table.primary[k] != 0]


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
    if not det > 4.0 * sys.float_info.epsilon * uu * vv:
        raise FitDiverged("least-squares columns are parallel (rank < 2)")
    return (vv * ur - uv * vr) / det, (uu * vr - uv * ur) / det


def fit_asymptotic(table: SeriesTable, k_min: int, k_max: int) -> AsymptoticFit:
    """Fit coeff_k ~ c k^(-3/2) rho^(+-k) sin(a k + b) over k in [k_min, k_max].

    The envelope is removed with the fixed scale 2.64: each detrended
    coefficient is one exact integer quotient rounded to a float, so no
    order overflows.  Since 2.64 = m / 2^e exactly, its k-th power is m^k
    and a shift by e*k bits.  The detrended sequence w_k = c g^k sin(ak+b)
    obeys the exact three-term recurrence w_(k+1) = 2 g cos(a) w_k - g^2
    w_(k-1), so a linear least-squares solve (Prony's method for one damped
    sinusoid) yields g and a;
    amplitude and phase follow from a second linear solve.  Both are
    two-column solves in closed form (`_lstsq2`); their columns are far
    from parallel (condition numbers ~2.1 and ~1.005 for the order-300
    tables over k = 50..300), so forming the normal equations costs at
    most a digit.  The phase is normalized to c > 0 and b in (-2*pi, 0].
    """
    k_min, k_max = _integer(k_min, "k_min"), _integer(k_max, "k_max")
    if k_min < 1:
        raise ValueError("need k_min >= 1: the envelope k^(-3/2) is infinite at k = 0")
    if k_max - k_min < 20:
        raise ValueError("need k_max - k_min >= 20 for a stable fit")
    if k_max > table.order:
        raise ValueError(f"table order {table.order} < k_max {k_max}")
    grows = table.kind is SeriesKind.LARGE_X
    ks = range(k_min, k_max + 1)
    # w_k = coeff_k k^(3/2) 2.64^(-k) (LARGE_X) or 2.64^k, k^(3/2) to _SQRT_GUARD bits
    ratios = ((n * k * math.isqrt(k << 2 * _SQRT_GUARD), d << _SQRT_GUARD)
              for k, (n, d) in zip(ks, (c.as_integer_ratio() for c in table.primary[k_min:])))
    # a detrended w_k, or a g^k of the amplitude step, past the float range
    # raises OverflowError, or ZeroDivisionError where g^k underflows to 0
    try:
        w = list(_detrended(ratios, RHO_HAT, k_min, grows))
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
    except (OverflowError, ZeroDivisionError):
        raise FitDiverged("detrended coefficients or g^k are past the float range") from None
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
