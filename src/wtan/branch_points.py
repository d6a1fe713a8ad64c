"""Branch points of w*tan(w) = x and their local square-root structure.

All derivatives of the function share the denominator (w^2 + x^2 + x), so
every singularity at finite x solves, together with the defining equation,

    sin(w) cos(w) + w = 0 .

`find_branch_point` solves this by complex Newton iteration from the
large-n approximation of `asymptotic_branch_point`.  Writing
2w = u + i v with u, v real and eliminating v gives the equivalent single
real equation

    tan(u) * arccosh(-u / sin u) = sqrt(u^2 - sin^2 u)

with exactly one root u_n in each interval [(2n-1)*pi, (2n-1/2)*pi],
n = 1, 2, ..., and cosh(v) = -u/sin(u); the solver checks that its root
lies in that interval, to a few ulp.  The stored representative takes
v > 0 (upper half-plane w), which puts x_n = w_n*tan(w_n) in the upper
half-plane as well; the conjugate point is implied.  The trivial root
w = 0 corresponds to the branch point at x = 0 and is not indexed here.

Near any x_n the function behaves like a square root,

    w(x) -> w(x_n) + c * (x - x_n)^(1/2),    c^2 = 1,

which `local_expansion_check` verifies numerically by continuation on small
circles around the point.
"""

from __future__ import annotations

import cmath
import math
import numbers
from typing import NamedTuple, Sequence

from .core import EPS, _ordered_sum, validate_branch
from .errors import BracketFailure, ContinuationFailure, NoConvergence, WtanError

__all__ = [
    "BranchPoint",
    "find_branch_point",
    "asymptotic_branch_point",
    "local_expansion_check",
]

# continuation points per loop around x_n in local_expansion_check
SAMPLES_PER_LOOP = 128


def _index(n: int) -> int:
    """n as an int, checked as `core.validate_branch` checks a branch index:
    TypeError unless an integer (bool excluded), ValueError below 1 and
    DomainViolation past 2**1020."""
    if type(n) is int or (isinstance(n, numbers.Integral) and not isinstance(n, bool)):
        if n < 1:
            raise ValueError("branch point index must be >= 1")
    return validate_branch(n)


class BranchPoint(NamedTuple):
    """One branch point, upper-half-plane representative.

    n : index, 1-based
    u, v : real solution pair, 2*w = u + i*v, v > 0
    y : function value w_n at the branch point
    x : branch point location x_n = w_n * tan(w_n), Im x > 0
    b : the asymptotic scale (2n - 1/2)*pi
    """

    n: int
    u: float
    v: float
    y: complex
    x: complex
    b: float

    @property
    def conjugate_x(self) -> complex:
        return self.x.conjugate()


def find_branch_point(n: int) -> BranchPoint:
    """Locate the n-th branch point (n >= 1) by complex Newton iteration.

    Newton runs on h(w) = sin(w)cos(w) + w, h'(w) = cos(2w) + 1, from the
    seed `asymptotic_branch_point(n).y_approx` and stops once a step falls
    below one ulp of |w|.

    Raises
    ------
    NoConvergence
        If the steps do not settle within 50 iterations.
    BracketFailure
        If the root found has u = 2 Re w outside [(2n-1)*pi, (2n-1/2)*pi]
        or v = 2 Im w <= 0, i.e. it is not the n-th branch point.  The
        interval is widened at each end by 4 ulp of its upper end, since u
        and both ends are rounded: from n ~ 1e8 on the root lies within an
        ulp of the upper end, and at n = 1e9 and 1e13 the rounded u is one
        ulp past the rounded end.

    Past n = 2**52 float64 no longer resolves the points' order: Im x_n
    stops rising with n (Im x_(2**53) lies below Im x_(2**53 - 1)) and Re
    x_n jumps by several units between neighbours.  Both still pass the
    bracket check, so nothing is raised here; `complex_plane` searches
    branch points only up to 2**52 and refuses in-disk points beyond it.

    n is checked as `asymptotic_branch_point` checks it.
    """
    n = _index(n)
    y = asymptotic_branch_point(n).y_approx
    for _ in range(50):
        step = (cmath.sin(y) * cmath.cos(y) + y) / (cmath.cos(2 * y) + 1.0)
        y -= step
        if abs(step) <= EPS * abs(y):
            break
    else:
        raise NoConvergence(
            f"Newton for branch point {n} did not settle in 50 steps "
            f"(last step {abs(step):.3e} at w={y!r})"
        )
    u, v = 2 * y.real, 2 * y.imag
    lo, hi = (2 * n - 1) * math.pi, (2 * n - 0.5) * math.pi
    slack = 4.0 * math.ulp(hi)
    if not (lo - slack <= u <= hi + slack and v > 0.0):
        raise BracketFailure(
            f"Newton for branch point {n} settled at u={u!r}, v={v!r}, outside "
            f"u in [{lo}, {hi}] (+-4 ulp), v > 0"
        )
    return BranchPoint(n=n, u=u, v=v, y=y, x=y * cmath.tan(y),
                       b=(2 * n - 0.5) * math.pi)


class AsymptoticBranchPoint(NamedTuple):
    u_approx: float
    x_approx: complex
    y_approx: complex


def asymptotic_branch_point(n: int) -> AsymptoticBranchPoint:
    """Large-n approximation of the n-th branch point.

    With b = (2n - 1/2)*pi:

        u ~ b - ln(2b)/b
        y ~ b/2 + (i/2) ln(2b)
        x ~ -(1/2) ln(2b) - 1/2 + (i/2) b

    each with an O(ln n / n) error.  y is the seed of the Newton iteration
    in `find_branch_point`.  The approximation is crude at n = 1, but even
    there u lies inside [pi, 3*pi/2].

    Raises TypeError unless n is an integer (a bool is not), ValueError
    below 1 and DomainViolation past 2**1020, as `core.validate_branch`.
    """
    n = _index(n)
    b = (2 * n - 0.5) * math.pi
    log2b = math.log(2.0 * b)
    u = b - log2b / b
    y = complex(0.5 * b, 0.5 * log2b)
    x = complex(-0.5 * log2b - 0.5, 0.5 * b)
    return AsymptoticBranchPoint(u, x, y)


def local_expansion_check(n: int, radii: Sequence[float]) -> tuple[float, float]:
    """Fit the local exponent and coefficient of w(x) - w(x_n) near x_n.

    For each radius r the function is continued around the circle
    |x - x_n| = r twice (the local structure is two-sheeted, so the double
    loop closes).  Averaging log|w - w_n| over the uniformly sampled double
    loop kills every oscillatory term of the local expansion, leaving

        mean_theta log|w - w_n| = log|c| + kappa * log r

    exactly, so a linear fit over the radii returns kappa (expected 1/2)
    and c^2 (expected 1).

    Returns
    -------
    (kappa, c_squared)

    Raises ValueError, before any continuation, unless every radius is
    finite and positive and at least two differ; n is checked first, as
    `asymptotic_branch_point` checks it.
    """
    from .complex_plane import _point, _walk_segment, continue_from_anchor  # avoids a cycle

    n = _index(n)
    if len(set(radii)) < 2 or not all(0.0 < r < math.inf for r in radii):
        raise ValueError("need at least two distinct radii for the fit, each finite and positive")
    radii = sorted(radii, reverse=True)
    bp = _point(n)
    try:
        # anchor on the circle of the largest radius, angle 0
        z0 = bp.x + radii[0]
        y0 = continue_from_anchor(z0, n)
    except WtanError as exc:
        raise ContinuationFailure(f"could not anchor near x_{n}: {exc}") from exc

    log_means = []
    z_cur, y_cur = z0, y0
    for r in radii:
        # spiral inward along the positive-real ray from the previous circle
        target = bp.x + r
        y_cur = _walk_segment(z_cur, y_cur, target)
        z_cur = target
        logs = []
        z_loop, y_loop = z_cur, y_cur
        y_start = y_loop
        total = 2 * SAMPLES_PER_LOOP
        for j in range(1, total + 1):
            ang = 2.0 * math.pi * 2.0 * j / total
            z_next = bp.x + r * cmath.exp(1j * ang)
            y_loop = _walk_segment(z_loop, y_loop, z_next)
            z_loop = z_next
            logs.append(math.log(abs(y_loop - bp.y)))
        if abs(y_loop - y_start) > 1e-8 * (1.0 + abs(y_start)):
            raise ContinuationFailure(
                f"double loop at r={r} failed to close: |dy|={abs(y_loop - y_start):.3e}"
            )
        log_means.append(_ordered_sum(logs) / len(logs))

    # least-squares line through (log r, mean log|dy|)
    xs = [math.log(r) for r in radii]
    mx = _ordered_sum(xs) / len(xs)
    my = _ordered_sum(log_means) / len(log_means)
    sxx = _ordered_sum((xi - mx) ** 2 for xi in xs)
    sxy = _ordered_sum((xi - mx) * (yi - my) for xi, yi in zip(xs, log_means))
    kappa = sxy / sxx
    log_c = my - kappa * mx
    return kappa, math.exp(2.0 * log_c)
