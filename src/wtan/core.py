"""Core types and real-axis evaluation of the branches of w*tan(w) = x.

The function evaluated here is the multivalued solution w of

    w * tan(w) = x .

Branches are labeled by a nonzero integer n fixed by the value at infinity,
w -> sgn(n) * (|n| - 1/2) * pi.  On the real axis the branch windows are

    n >= 1, x > 0:   w in ((n-1)*pi, (n-1/2)*pi)
    n >= 1, x < 0:   w in ((n-1/2)*pi, n*pi)

and negative branches follow from the odd symmetry w(-n) = -w(n).  x = 0 is
a branch point: the two one-sided limits differ, so exact zero requires an
explicit side choice.

Root finding works on g(w) = w*sin(w) - x*cos(w), which shares its zeros
with w*tan(w) - x wherever cos(w) != 0 but stays finite across the tan
poles at the window edges.  Internally the window is shifted so the
bracket endpoints are exact in floating point.  The module also builds the
Gauss-Legendre rules that `integrals` and the dispersion code share.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import numbers
from dataclasses import dataclass

from .errors import (
    AtBranchPoint,
    DomainViolation,
    NoConvergence,
    NonFiniteArgument,
    PoleProximity,
    SignedZeroRequired,
)

__all__ = [
    "BranchIndex",
    "CutScheme",
    "BranchedValue",
    "validate_branch",
    "eval_real",
    "halley_step",
    "derivative",
    "second_derivative",
    "branch_identity_residual",
    "defining_residual",
]

HALF_PI = 0.5 * math.pi
EPS = 2.220446049250313e-16

# Relative residual target of the root solvers: a root is accepted once
# |w*tan(w) - x| <= TOL * (1 + |x|).  _solve_shifted gives up after MAX_ITER
# iterations; the pole side's Newton, which needs one or two, stops there too.
TOL = 1e-13
MAX_ITER = 60

# Pole side.  With c = (n-1/2)*pi the root on branch n >= 1 is w = c -+ d,
# d = atan(w/|x|) in (0, pi/2); for |x| > POLE_SIDE*(n - 1/2) eval_real
# solves for d (_pole_side_root) and rounds c -+ d once, instead of solving
# for t in the shifted window with _solve_shifted.  The shifted form fails
# next to the pole: there G(t) = w*tan(t) - |x| moves by about eps*x^2/w
# between adjacent floats t, wider than the target band 2*TOL*|x| once
# |x|/w > 2*TOL/eps ~ 900, and the solver bisects until its bracket
# collapses (first seen at |x|/w = 908).  Below the threshold
# |x|/w < 64*(n-1/2)/((n-1)*pi) <= 96/pi ~ 31 (the largest ratio is at
# n = 2, x > 0; n = 1 gives ~21), so every target there is reachable with a
# margin of ~30.  Down to |x| = pi*(n - 1/2) the pole side is cheaper and
# closer to the root than the shifted solve too (n <= 8: 2.3 atan calls on
# average and within 1.1 ulp, against ~3.8 tan calls), but that threshold
# moves the `wtan cheb` and `wtan integrals` outputs README.md pins, and
# 64*(n - 1/2) leaves them unchanged.
POLE_SIDE = 64.0
# math.pi == _PI_NUM/_PI_DEN exactly; _PI_LO is the rest of pi
_PI_NUM, _PI_DEN = math.pi.as_integer_ratio()
_PI_LO = 1.2246467991473532e-16

# |cos(w)| below this triggers PoleProximity in halley_step.
POLE_GUARD = 1e-8

# |w^2 + x^2 + x| below this means the derivative formulas are blowing up.
BRANCH_POINT_GUARD = 1e-4

# Branch index: any nonzero signed integer.
BranchIndex = int
_MAX_BRANCH = 2 ** 1020   # keeps (2|n| - 1/2)*pi, the largest multiple formed, finite


def validate_branch(n: int) -> int:
    """Return n as a Python int if it is a valid branch label (nonzero
    integer, numpy integers included; bool is rejected; DomainViolation
    past _MAX_BRANCH).  Fixed-width integers are converted because negating
    the most negative one wraps."""
    # exact int first: the Integral check is an ABC lookup, slow on the hot path
    if type(n) is not int:
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise TypeError(f"branch index must be an integer, got {n!r}")
        n = int(n)
    if not 0 < abs(n) <= _MAX_BRANCH:   # one test on the hot path for both limits
        if n == 0:
            raise ValueError("branch index 0 does not exist; branches are +-1, +-2, ...")
        raise DomainViolation("branch index past 2**1020: (|n| - 1/2)*pi overflows")
    return n


class CutScheme(enum.Enum):
    """The conventions that make each branch single valued, one per evaluator.

    REAL_AXIS   -- `eval_real`: windows as in the module docstring,
                   continuous in x except at x = 0.
    FINITE_CUTS -- `complex_plane.eval_complex`: each branch point x_n is
                   joined to its conjugate by a vertical segment, plus one
                   finite real-axis segment per sheet; infinity is a
                   regular point of every sheet.
    """

    REAL_AXIS = "real"
    FINITE_CUTS = "finite-cuts"


@dataclass(frozen=True)
class BranchedValue:
    """A function value tagged with the branch and cut scheme that produced it."""

    x: complex
    y: complex
    branch: BranchIndex
    scheme: CutScheme
    residual: float


def defining_residual(x: complex, y: complex) -> float:
    """|y*tan(y) - x|, the defining-equation residual."""
    if isinstance(x, complex) or isinstance(y, complex):
        return abs(y * cmath.tan(y) - x)
    return abs(y * math.tan(y) - x)


# ---------------------------------------------------------------------------
# real-axis solver
# ---------------------------------------------------------------------------

def _seed_branch1_positive(x: float) -> float:
    """Seed for branch 1, x > 0: series about 0 below the split 3.5, about
    infinity above it (same split as the piecewise Chebyshev model)."""
    if x > 3.5:
        ix = 1.0 / x
        return HALF_PI * (1.0 - ix * (1.0 - ix * (1.0 - 0.17753296657588678 * ix)))
    s = math.sqrt(x)
    w = s * (1.0 - x / 6.0 + 11.0 * x * x / 360.0 - 17.0 * x ** 3 / 5040.0)
    return min(max(w, 0.5 * s), HALF_PI * 0.999999)


def _solve_shifted(C: float, s: int, absx: float, t0: float) -> float:
    """Root of G(t) = (C + s*t)*tan(t) - absx for t in [0, pi/2).

    The window is shifted so that w = C + s*t; both G(0) = -absx and
    G(pi/2-) = +infinity have exact signs, which keeps the bracket valid
    for arbitrarily small |x|.  Halley steps with a bisection safety net.
    eval_real calls it only below the pole side, where |x|/w < ~31 and the
    residual target is within float64's reach.
    """
    lo, hi = 0.0, HALF_PI
    t = t0 if lo <= t0 < hi else 0.5 * (lo + hi)
    target = TOL * (1.0 + absx)
    for _ in range(MAX_ITER):
        tan_t = math.tan(t)
        y = C + s * t
        G = y * tan_t - absx
        if abs(G) <= target:
            return t
        if G < 0.0:
            lo = t
        else:
            hi = t
        sec2 = 1.0 + tan_t * tan_t
        Gp = s * tan_t + y * sec2
        Gpp = 2.0 * sec2 * (s + y * tan_t)
        denom = 2.0 * Gp * Gp - G * Gpp
        step_ok = denom != 0.0 and math.isfinite(denom)
        if step_ok:
            t_new = t - 2.0 * G * Gp / denom
            step_ok = math.isfinite(t_new) and lo < t_new < hi
        if not step_ok:
            t_new = 0.5 * (lo + hi)
        t = t_new
    raise NoConvergence(
        f"no convergence after {MAX_ITER} iterations (|residual|={abs(G):.3e}, "
        f"target {target:.3e})"
    )


def _pole_side_root(x: float, n: int) -> float:
    """Root on branch n >= 1 where |x| > POLE_SIDE*(n-1/2): w = c - s*d with
    c = (n-1/2)*pi and s = sgn(x), correctly rounded.

    Since tan(c - s*d) = s*cot(d), d solves F(d) = d - atan(u) = 0 with
    u = (c - s*d)/|x|.  F' = 1 + s/(|x|*(1 + u^2)) >= 1 - 1/|x| and
    F''/(2F') ~ u/x^2, so after a Newton step of size h the next one is
    about u*h^2/x^2: Newton from the closed form c/(|x| + s) stops once that
    is below a quarter ulp of d, after one step (two for small n within a
    few decades of the threshold).  c is split exactly into hi + lo (hi the
    double nearest c), so the only rounding that reaches w is the final
    addition.  The float d is within ~3*eps*d of its root (rounded u, libm's
    atan; at most 2.2*eps*d measured), which moves w by up to ~4/|x| ulp:
    if c - s*d can lie that close to a rounding midpoint (the two ends of
    an 8*eps*d margin round apart), _pole_side_exact decides it."""
    num, den = (2 * n - 1) * _PI_NUM, 2 * _PI_DEN
    hi = num / den
    p, q = hi.as_integer_ratio()
    lo = (num * q - p * den) / (den * q) + (n - 0.5) * _PI_LO
    s = 1.0 if x > 0.0 else -1.0
    a = abs(x)
    d = hi / (a + s)
    for _ in range(MAX_ITER):
        u = (hi - s * d) / a
        step = (d - math.atan(u)) / (1.0 + s / (a * (1.0 + u * u)))
        d -= step
        if u * step * step / (a * a) <= 0.25 * EPS * d:
            break
    t = lo - s * d
    margin = 8.0 * EPS * d
    if hi + (t - margin) == hi + (t + margin):
        return hi + t
    return _pole_side_exact(hi, lo, s, a, d)


def _pole_side_exact(hi: float, lo: float, s: float, a: float,
                     d: float) -> float:
    """hi + lo - s*d* rounded once, where d* = atan((hi + lo - s*d*)/a) is
    the root that d approximates to a few eps.

    One Newton step on F with its residual computed to well below an ulp
    of d: u = uh + rem/a with uh = fl((hi - s*d)/a) and the remainder rem
    exact (a two-sum for hi - s*d, Dekker's product of uh and a's mantissa,
    and fsum), and atan(uh) = uh - r with r = uh^3/3 - uh^5/5 + ... summed
    to full precision (seven terms for uh < 0.051, the most u reaches past
    the threshold).  The step is then added below the exact split of
    hi - s*d, so the rest of the error is ~1e-4 ulp of w at worst."""
    S = hi - s * d
    e = (hi - S) - s * d  # S + e == hi - s*d exactly
    uh = S / a
    m, k = math.frexp(a)
    v = 134217729.0 * uh  # 2**27 + 1: Veltkamp's split into 26-bit halves
    u1 = v - (v - uh)
    u2 = uh - u1
    v = 134217729.0 * m
    m1 = v - (v - m)
    m2 = m - m1
    p = uh * m
    q = ((u1 * m1 - p) + u1 * m2 + u2 * m1) + u2 * m2  # uh*m == p + q
    rem = math.fsum((S, e, lo, -math.ldexp(p, k), -math.ldexp(q, k)))
    v = uh * uh
    r = uh * v * (1 / 3 - v * (1 / 5 - v * (1 / 7 - v * (1 / 9 - v * (
        1 / 11 - v * (1 / 13 - v / 15))))))
    g = a * (1.0 + v)
    F = (d - uh) + r - rem / g
    return S + (e + (lo + s * F / (1.0 + s / g)))


def eval_real(x: float, n: BranchIndex, *, side: int | None = None) -> float:
    """Evaluate branch n of w*tan(w) = x for real x.

    Parameters
    ----------
    x : float
        Finite real argument.
    n : int
        Branch label, nonzero.  Negative branches delegate through the odd
        symmetry w(x, -n) = -w(x, n).
    side : {+1, -1}, optional
        Required only at x = 0 exactly, where the two one-sided limits
        differ: +1 selects lim x->0+ = sgn(n)*(|n|-1)*pi, -1 selects
        lim x->0- = n*pi.

    Returns
    -------
    float
        The unique root in the branch window.  For |x| <= POLE_SIDE*(|n|-1/2)
        (64*(|n|-1/2)) it satisfies |w*tan(w) - x| <= TOL*(1+|x|).  Past
        that, where w*tan(w) is too steep for float64 to resolve the target,
        it is c -+ d (c = (|n|-1/2)*pi, d = atan(w/|x|)) with c held exactly
        and d solved by Newton, rounded once: the correctly rounded root
        (the error before that rounding is below ~1e-4 ulp).
    """
    n = validate_branch(n)
    if not math.isfinite(x):
        raise NonFiniteArgument(f"x must be finite, got {x!r}")
    if n < 0:
        return -eval_real(x, -n, side=side)
    if x == 0.0:
        if side is None:
            raise SignedZeroRequired(
                "x = 0 is a branch point; pass side=+1 for the x->0+ limit "
                "or side=-1 for the x->0- limit"
            )
        if side > 0:
            return (n - 1) * math.pi
        return n * math.pi
    if abs(x) > POLE_SIDE * (n - 0.5):
        return _pole_side_root(x, n)
    if x > 0.0:
        C = (n - 1) * math.pi
        t0 = _seed_branch1_positive(x) if n == 1 else math.atan(x / C)
        t = _solve_shifted(C, +1, x, t0)
        return C + t
    C = n * math.pi
    t0 = math.atan(-x / C)
    t = _solve_shifted(C, -1, -x, t0)
    return C - t


# ---------------------------------------------------------------------------
# Halley kernel and derivatives
# ---------------------------------------------------------------------------

def halley_step(x: complex, y: complex) -> complex:
    """One Halley update toward a root of f(w) = x - w*tan(w), at fixed x.

    Third-order one-point refinement:

        w' = w + (x - w*tan w) / [ w*(1+tan^2 w) + tan w
             + (w*tan w + 1)*(tan^2 w + 1)/(w*(1+tan^2 w) + tan w) * (x - w*tan w) ]

    Fixed points are exactly the roots of the defining equation.

    Raises
    ------
    PoleProximity
        If |cos y| < 1e-8: the update divides by quantities that are
        singular at the poles of tan; the caller should re-seed or bisect.
    """
    complex_mode = isinstance(x, complex) or isinstance(y, complex)
    cos_ = cmath.cos if complex_mode else math.cos
    tan_ = cmath.tan if complex_mode else math.tan
    if abs(cos_(y)) < POLE_GUARD:
        raise PoleProximity(f"|cos(y)| < {POLE_GUARD:g} at y={y!r}")
    t = tan_(y)
    f = x - y * t
    sec2 = 1.0 + t * t
    den = y * sec2 + t
    if abs(den) < 1e-12 * (1.0 + abs(y)) ** 2:
        raise PoleProximity(f"degenerate Halley denominator at y={y!r}")
    return y + f / (den + (y * t + 1.0) * sec2 / den * f)


def derivative(x: complex, y: complex) -> complex:
    """dw/dx given a consistent pair (x, y) with y*tan(y) = x.

    Equal to y / (x + x^2 + y^2); diverges exactly at the branch points,
    where y^2 + x^2 + x = 0.
    """
    q = y * y + x * x + x
    if abs(q) < BRANCH_POINT_GUARD:
        raise AtBranchPoint(
            f"|y^2 + x^2 + x| = {abs(q):.3e} < {BRANCH_POINT_GUARD:g}; "
            "derivative diverges at a branch point"
        )
    return y / q


def second_derivative(x: complex, y: complex) -> complex:
    """d2w/dx2 for a consistent pair (x, y):

        -2*x*y/(y^2+x^2+x)^2 - 2*y^3/(y^2+x^2+x)^3
    """
    q = y * y + x * x + x
    if abs(q) < BRANCH_POINT_GUARD:
        raise AtBranchPoint(
            f"|y^2 + x^2 + x| = {abs(q):.3e} < {BRANCH_POINT_GUARD:g}; "
            "second derivative diverges at a branch point"
        )
    return -2.0 * x * y / (q * q) - 2.0 * y ** 3 / (q * q * q)


def branch_identity_residual(x: float, n: BranchIndex, y: float) -> float:
    """Consistency residual of the closed-form branch labeling.

    Every real branch value satisfies

        y = sgn(n)*(|n|-1/2)*pi + Theta(-x)*sgn(y)*pi + arg(x - i*y)

    with the principal argument and the step convention Theta(0) = 0.
    Returns |lhs - rhs|; a correct (x, n, y) triple gives ~0.
    """
    n = validate_branch(n)
    sgn_n = 1.0 if n > 0 else -1.0
    rhs = sgn_n * (abs(n) - 0.5) * math.pi
    if x < 0.0:
        rhs += math.copysign(math.pi, y)
    rhs += math.atan2(-y, x)
    return abs(y - rhs)


# ---------------------------------------------------------------------------
# Gauss-Legendre rules (integrals and the dispersion reconstruction)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1].

    Each positive node is Newton's root of P_n from the guess
    cos(pi*(i + 3/4)/(n + 1/2)), with P_n, P_(n-1) and
    P_n' = n*(P_(n-1) - x*P_n)/(1 - x^2) from the three-term recurrence
    (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013); the negative nodes
    mirror them, and odd n adds x = 0.  The weight is
    2/((1 - x^2)*P_n'(x)^2): its relative sensitivity to a node error is
    only 2x/(1 - x^2), where the equivalent 2(1 - x^2)/(n*P_(n-1)(x))^2
    amplifies a half-ulp node error by 2(n+1)x/(1 - x^2).  For n = 10, 16
    and 24, the only sizes used, nodes are within one ulp and weights
    within 1e-14 relative of a 40-digit reference.  Cached: the rule
    depends on n alone.
    """
    def legendre(x):  # (P_n(x), P_(n-1)(x))
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, p0

    nodes, weights = [], []
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(10):  # converges in at most 5 steps for n <= 24
            p, q = legendre(x)
            dx = p * (1.0 - x) * (1.0 + x) / (n * (q - x * p))
            x -= dx
            if abs(dx) <= EPS:
                break
        p, q = legendre(x)
        s = (1.0 - x) * (1.0 + x)
        d = n * (q - x * p) / s
        nodes.append(x)
        weights.append(2.0 / (s * d * d))
    if n % 2:
        nodes.append(0.0)
        weights.append(2.0 / (n * legendre(0.0)[1]) ** 2)
    half = n // 2
    return (tuple(-x for x in nodes[:half]) + tuple(reversed(nodes)),
            tuple(weights[:half]) + tuple(reversed(weights)))


def _panel_nodes(length: float, panels: int,
                 nodes: int) -> tuple[list[float], list[float]]:
    """Composite Gauss-Legendre rule on [0, length]: `panels` equal panels
    of `nodes` points from `_gauss_legendre`; (points, weights), ascending."""
    xs, ws = _gauss_legendre(nodes)
    width = length / panels
    pts, wts = [], []
    for p in range(panels):
        lo = p * width
        pts += [lo + 0.5 * width * (x + 1.0) for x in xs]
        wts += [0.5 * width * w for w in ws]
    return pts, wts
