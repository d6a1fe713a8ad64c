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

Each real root is a window end plus or minus an offset e in (0, pi/2) that
solves an atan form: e = atan(|x|/w) from the end where w*tan(w) = 0, and
e = atan(w/|x|) from the tan pole.  Newton on that form, with one stop
rule per end, serves every (x, n) and stays finite and well conditioned
for subnormal and huge x alike (`_window_end_root`).  The module also builds the Gauss-Legendre
rules that `integrals` and the dispersion code share.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from typing import NamedTuple

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

# Relative residual target in the complex plane: eval_complex accepts an
# uncertified root, and a stalled Halley polish, once
# |w*tan(w) - x| <= TOL * (1 + |x|).  eval_real's Newton loop stops on its
# step instead and gives up after MAX_ITER iterations.
TOL = 1e-13
MAX_ITER = 60

# Which window end eval_real solves from.  Branch n >= 1 solves for the
# offset from the zero end for |x| <= POLE_SIDE*(n - 1/2), and from the
# pole end c = (n-1/2)*pi past it, where w = c -+ e is rounded once from an
# exact split of c (_pole_split, cached per n) and Newton stops on its
# predicted next step (_window_end_root).  Both forms are well conditioned
# on either side of the threshold; it sits where the pole end's correction
# step (_pole_side_exact), which sums atan's series for u = w/|x| < 0.051,
# is valid: past it u < pi/64, which also keeps F' >= 31/32 there.
POLE_SIDE = 64.0
# math.pi == _PI_NUM/_PI_DEN exactly; _PI_LO is the rest of pi
_PI_NUM, _PI_DEN = math.pi.as_integer_ratio()
_PI_LO = 1.2246467991473532e-16

# |cos(w)| below this triggers PoleProximity in halley_step.
POLE_GUARD = 1e-8

# |w^2 + x^2 + x| below this means the derivative formulas are blowing up.
DENOMINATOR_GUARD = 1e-4

# Branch index: any nonzero signed integer.
BranchIndex = int
_MAX_BRANCH = 2 ** 1020   # keeps (2|n| - 1/2)*pi, the largest multiple formed, finite


def _integer(value, name: str, least: int | None = None) -> int:
    """value as a Python int: numpy integers are converted, so that shifts,
    powers and negation do not wrap; TypeError "<name> must be an integer"
    for a bool or a non-integer, and ValueError "<name> must be >= <least>"
    below `least`."""
    # exact int first: the Integral check is an ABC lookup
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


def _float(v) -> float:
    """v rounded to the nearest float, +-inf past float64's range as IEEE
    rounding to nearest gives it (float() raises OverflowError there): a
    Python float from numpy scalars, ints, bools and Fractions alike.  Read
    through math's own conversion, so a str raises TypeError as it does in
    math.sqrt."""
    try:
        return math.ldexp(v, 0)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _finite(v, name: str) -> float:
    """v as `_float` gives it; NonFiniteArgument "<name> must be finite"
    unless that float is finite."""
    x = _float(v)
    if not math.isfinite(x):
        raise NonFiniteArgument(f"{name} must be finite, got {x!r}")
    return x


def _number(v) -> float | complex:
    """v as a Python float where it is real, as `_float` gives it (+-inf
    past float64's range, where complex() raises OverflowError), else as
    complex() gives it: the Python number nearest a numpy scalar, an int,
    a bool or a Fraction."""
    return _float(v) if isinstance(v, numbers.Real) else complex(v)


def _complex(z) -> tuple[complex, float]:
    """(complex(z), |z|); NonFiniteArgument unless |z| is finite.  A real
    past float64's range (complex() raises OverflowError) is shown as the
    +-inf it rounds to, and finite parts whose modulus passes 1.8e308
    (abs() raises OverflowError) are refused too."""
    try:
        z = complex(z)
        r = abs(z)
    except OverflowError:
        z, r = complex(_number(z)), math.inf
    if not math.isfinite(r):
        raise NonFiniteArgument(f"z must have a finite modulus, got {z!r}")
    return z, r


def validate_branch(n: int) -> int:
    """Return n as a Python int if it is a valid branch label (nonzero
    integer, numpy integers included; bool is rejected; DomainViolation
    past _MAX_BRANCH)."""
    if type(n) is not int:   # inline: a call costs on the hot path
        n = _integer(n, "branch index")
    if not 0 < abs(n) <= _MAX_BRANCH:   # one test on the hot path for both limits
        if n == 0:
            raise ValueError("branch index 0 does not exist; branches are +-1, +-2, ...")
        raise DomainViolation("branch index past 2**1020: (|n| - 1/2)*pi overflows")
    return n


class BranchedValue(NamedTuple):
    """A finite-cuts value from `complex_plane.eval_complex`: y on sheet
    `branch` at the point x, with the residual |y*tan(y) - x|."""

    x: complex
    y: complex
    branch: BranchIndex
    residual: float


def defining_residual(x: complex, y: complex) -> float:
    """|y*tan(y) - x|, the defining-equation residual, real or complex; inf
    where it exceeds float64 (abs() of a complex raises OverflowError).
    x and y are taken as `_number` gives them."""
    if type(x) is not complex or type(y) is not complex:   # two tests on the hot path
        x, y = _number(x), _number(y)
    r = y * cmath.tan(y) - x   # for real y, cmath.tan gives math.tan's bits
    return math.hypot(r.real, r.imag)


# ---------------------------------------------------------------------------
# real-axis solver
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def _pole_split(n: int) -> tuple[float, float]:
    """(hi, lo): hi the double nearest c = (n-1/2)*pi and lo the rest, to
    a few ulp of lo, from math.pi's exact ratio in big-integer arithmetic
    (~1 us) plus (n-1/2)*_PI_LO.  Cached: it depends on n alone."""
    num, den = (2 * n - 1) * _PI_NUM, 2 * _PI_DEN
    hi = num / den
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q) + (n - 0.5) * _PI_LO


def _window_end_root(x: float, n: int) -> float:
    """Root on branch n >= 1 as a window end plus or minus an offset e.

    With s = sgn(x) and a = |x|: up to POLE_SIDE*(n-1/2), w = E + s*e from
    the zero end E = (n-1)*pi (x > 0) or n*pi (x < 0), e = atan(a/w); past
    it w = c - s*e from the pole end c = (n-1/2)*pi, e = atan(w/a).  At
    both ends Newton on F(e) = e - atan(...) has

        F'(e) = 1 + s/dd >= 1 - 1/pi,   dd = w*(w/a) + a,

    a form that stays finite for subnormal a, where w^2 + a^2 is 0.

    No bracket is needed.  On the zero end F is increasing and concave in
    e (the atan term is convex), so no Newton step lands above the root,
    and from below the iterates rise to it without overshooting.  The seed
    atan(a/E), the root with w replaced by E, lies above the root only for
    x > 0, where F' >= 1 keeps the first iterate above atan(a/(E + e)) > 0.
    For n = 1, x > 0 (E = 0) the seed (pi/2)*sqrt(a)/sqrt(a + pi^2/4)
    solves e*tan(e) = a with tan replaced by its Becker-Stark upper bound
    pi^2*e/(pi^2 - 4e^2), so it lies below the root (a quotient of roots:
    sqrt(a/(a + pi^2/4)) underflows).  On the pole end F is convex and the
    seed the closed form c/(a + s).  Either way the iterates approach the
    root from one side after at most one step.

    The two ends stop differently.  The pole end predicts the next step,
    K*step^2 with K = |F''|/(2F'), F'' = 2aw/(w^2 + a^2)^2 and F' >= 31/32
    there, and stops once (step/dd)^2*(w/a) = K*F'*step^2, a form that
    cannot overflow, is below 0.1*eps*e: at most two steps over the whole
    float64 range, where waiting for a small step takes up to three.  The
    zero end stops once |step| <= 4*eps*e, at least two ulp of e and above
    the rounding noise of F/F' (~2*eps*e), so it cannot alternate between
    neighbours.  It cannot predict its stop yet: E + s*e is rounded with E
    itself rounded, so the last bits of e show in w, and stopping a step
    earlier moves values by an ulp (eval_real(1, 1) from -0.29 to +0.71
    ulp) and the README's eval_x, cheb and integrals outputs.

    The zero end rounds E and E + s*e: within 1.5 ulp.  On the pole end c
    is split exactly into hi + lo (_pole_split), so only the final addition
    rounds.  The float e is within ~3*eps*e of its root (rounded u, libm's
    atan; at most 2.2*eps*e measured), which moves w by up to ~4/a ulp: if
    c - s*e can lie that close to a rounding midpoint (the two ends of an
    8*eps*e margin round apart), _pole_side_exact decides it."""
    s = 1.0 if x > 0.0 else -1.0
    a = abs(x)
    if a > POLE_SIDE * (n - 0.5):
        hi, lo = _pole_split(n)
        e = hi / (a + s)
        for _ in range(MAX_ITER):
            w = hi - s * e
            u = w / a
            dd = w * u + a
            step = (e - math.atan(u)) / (1.0 + s / dd)
            e -= step
            if (step / dd) * (step / dd) * u <= 0.1 * EPS * e:
                t = lo - s * e
                margin = 8.0 * EPS * e
                if hi + (t - margin) == hi + (t + margin):
                    return hi + t
                return _pole_side_exact(hi, lo, s, a, e)
    else:
        E = (n - 1) * math.pi if x > 0.0 else n * math.pi
        if E == 0.0:
            e = HALF_PI * math.sqrt(a) / math.sqrt(a + HALF_PI * HALF_PI)
        else:
            e = math.atan(a / E)
        for _ in range(MAX_ITER):
            w = E + s * e
            step = (e - math.atan(a / w)) / (1.0 + s / (w * (w / a) + a))
            e -= step
            if abs(step) <= 2.0 ** -50 * e:   # 4*EPS, folded at compile time
                return E + s * e
    raise NoConvergence(
        f"no convergence after {MAX_ITER} iterations (last step "
        f"{step:.3e}, offset {e:.3e})")


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
        Finite real argument.  Any other real (a numpy scalar, an int past
        the float range) is rounded to the nearest float first, to +-inf
        past float64's range.
    n : int
        Branch label, nonzero.  Negative branches follow from the odd
        symmetry w(x, -n) = -w(x, n).
    side : {+1, -1}, optional
        Required only at x = 0 exactly, where the two one-sided limits
        differ: +1 selects lim x->0+ = sgn(n)*(|n|-1)*pi, -1 selects
        lim x->0- = n*pi.

    Returns
    -------
    float
        The unique root in the branch window, from Newton on the offset
        from a window end (`_window_end_root`).  For |x| <= POLE_SIDE*(|n|-1/2)
        (64*(|n|-1/2)) it is w = E + e, E the multiple of pi at the zero
        end, within 1.5 ulp.  Past that it is c -+ d (c = (|n|-1/2)*pi,
        d = atan(w/|x|)) with c held exactly, rounded once: the correctly
        rounded root (the error before that rounding is below ~1e-4 ulp).
    """
    n = validate_branch(n)
    if type(x) is not float or not math.isfinite(x):   # the two tests of a float
        x = _finite(x, "x")
    if x == 0.0:
        if side is None:
            raise SignedZeroRequired(
                "x = 0 is a branch point; pass side=+1 for the x->0+ limit "
                "or side=-1 for the x->0- limit"
            )
        w = (abs(n) - 1) * math.pi if side > 0 else abs(n) * math.pi
        return w if n > 0 else -w
    if n < 0:
        return -_window_end_root(x, -n)
    return _window_end_root(x, n)


# ---------------------------------------------------------------------------
# Halley kernel and derivatives
# ---------------------------------------------------------------------------

def halley_step(x: complex, y: complex) -> complex:
    """One Halley update toward a root of f(w) = x - w*tan(w), at fixed x,
    in complex arithmetic (cmath): the update is complex for real x, y too.
    x and y are taken as `_number` gives them.

    Third-order one-point refinement:

        w' = w + (x - w*tan w) / [ w*(1+tan^2 w) + tan w
             + (w*tan w + 1)*(tan^2 w + 1)/(w*(1+tan^2 w) + tan w) * (x - w*tan w) ]

    Fixed points are exactly the roots of the defining equation.

    The pole guard is |cos y| < POLE_GUARD = 1e-8, and tan decides it
    first: |cos y|^2 * |1 + tan^2 y| = 1, so the guard can fire only where
    |1 + tan^2 y| > 1e16.  cmath.cos is called only where the computed
    |1 + t^2| (t = tan y) exceeds 2.5e15, a factor 4 of room for the
    roundings of t, or is not positive: it is 0 wherever |Im y| >= ~373,
    where t is +-i exactly, so at every |Im y| >= 700, where cos can
    overflow (from ~709.8 on), and nan or 0 where y is not finite.  tan
    raises only where cos raises the same error, so every value and
    exception is the one a guard that forms cos first gives.

    Raises
    ------
    PoleProximity
        If |cos y| < 1e-8: the update divides by quantities that are
        singular at the poles of tan; the caller should re-seed or bisect.
    OverflowError
        Where cmath.cos overflows, at |Im y| beyond ~710 (there tan y ~ +-i).
    """
    if type(x) is not complex or type(y) is not complex:   # two tests on the hot path
        x, y = _number(x), _number(y)
    t = cmath.tan(y)
    sec2 = 1.0 + t * t
    if not 0.0 < abs(sec2) <= 2.5e15 and abs(cmath.cos(y)) < POLE_GUARD:
        raise PoleProximity(f"|cos(y)| < {POLE_GUARD:g} at y={y!r}")
    yt = y * t
    f = x - yt
    ysec2 = y * sec2
    den = ysec2 + t
    # degenerate against its terms: where tan(y) ~ i, |den| ~ 1 is regular
    if abs(den) < 1e-12 * (1.0 + abs(ysec2) + abs(t)):
        raise PoleProximity(f"degenerate Halley denominator at y={y!r}")
    return y + f / (den + (yt + 1.0) * sec2 / den * f)


def _branch_denominator(x: complex, y: complex, what: str) -> complex:
    """q = y^2 + x^2 + x, the denominator of every derivative of the pair
    (x, y); AtBranchPoint, saying that `what` diverges, where |q| is below
    DENOMINATOR_GUARD."""
    q = y * y + x * x + x
    if abs(q) < DENOMINATOR_GUARD:
        raise AtBranchPoint(
            f"|y^2 + x^2 + x| = {abs(q):.3e} < {DENOMINATOR_GUARD:g}; "
            f"{what} diverges at a branch point"
        )
    return q


def derivative(x: complex, y: complex) -> complex:
    """dw/dx given a consistent pair (x, y) with y*tan(y) = x.

    Equal to y / (x + x^2 + y^2); diverges exactly at the branch points,
    where y^2 + x^2 + x = 0.  x and y are taken as `_number` gives them.
    """
    x, y = _number(x), _number(y)
    return y / _branch_denominator(x, y, "derivative")


def second_derivative(x: complex, y: complex) -> complex:
    """d2w/dx2 for a consistent pair (x, y):

        -2*x*y/(y^2+x^2+x)^2 - 2*y^3/(y^2+x^2+x)^3

    each term scaled by q = y^2+x^2+x first, -2*(x/q)*(y/q) - 2*(y/q)^3,
    so that neither 2xy, y^3 nor q^2 leaves the float range.  x and y are
    taken as `_number` gives them.
    """
    x, y = _number(x), _number(y)
    q = _branch_denominator(x, y, "second derivative")
    return -2.0 * (x / q) * (y / q) - 2.0 * (y / q) ** 3


def branch_identity_residual(x: float, n: BranchIndex, y: float) -> float:
    """Consistency residual of the closed-form branch labeling.

    Every real branch value satisfies

        y = sgn(n)*(|n|-1/2)*pi + Theta(-x)*sgn(y)*pi + arg(x - i*y)

    with the principal argument and the step convention Theta(0) = 0.
    Returns |lhs - rhs|; a correct (x, n, y) triple gives ~0.  x and y
    are taken as `_float` gives them.
    """
    n = validate_branch(n)
    x, y = _float(x), _float(y)
    sgn_n = 1.0 if n > 0 else -1.0
    rhs = sgn_n * (abs(n) - 0.5) * math.pi
    if x < 0.0:
        rhs += math.copysign(math.pi, y)
    rhs += math.atan2(-y, x)
    return abs(y - rhs)


def _ordered_sum(terms) -> float:
    """The float (or complex) terms added one at a time, left to right,
    from 0.0: the floats sum() gives before Python 3.12.  From 3.12 on sum()
    compensates its rounding of floats, and from 3.14 on of complex terms
    too, and a fit's or an integral's last bits, and the CLI's bytes, would
    depend on the interpreter."""
    total = 0.0
    for term in terms:
        total += term
    return total


# ---------------------------------------------------------------------------
# Gauss-Legendre rules (integrals and the dispersion reconstruction)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], n even.

    Each positive node is Newton's root of P_n from the guess
    cos(pi*(i + 3/4)/(n + 1/2)), with P_n, P_(n-1) and
    P_n' = n*(P_(n-1) - x*P_n)/(1 - x^2) from the three-term recurrence
    (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013); the negative nodes
    mirror them.  The weight is 2/((1 - x^2)*P_n'(x)^2): its relative
    sensitivity to a node error is only 2x/(1 - x^2), where the equivalent
    2(1 - x^2)/(n*P_(n-1)(x))^2 amplifies a half-ulp node error by
    2(n+1)x/(1 - x^2).  For n = 10, 16 and 24, the only sizes used, nodes
    are within one ulp and weights within 1e-14 relative of a 40-digit
    reference.  Cached: the rule depends on n alone.
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
    return (tuple(-x for x in nodes) + tuple(reversed(nodes)),
            tuple(weights) + tuple(reversed(weights)))


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
