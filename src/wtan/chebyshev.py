"""Three-region piecewise Chebyshev model of the principal real branch.

The principal branch is smooth on each of [0, a], [-a, 0), and |x| > a once
the right prefactor is peeled off, so it is represented as

    w(x) = sqrt(x) * sum_k alpha_k T_k(2x/a - 1)      0 <= x <= a
    w(x) = (pi/2)  * sum_k beta_k  T_k(a/x)           |x| > a
    w(x) = pi      * sum_k gamma_k T_k(2x/a + 1)      -a <= x < 0

with the split point a = 3.5 by default.  The middle series covers both
signs of large x in the single variable t = a/x; its t = 0 point is the
regular point at infinity where w = pi/2.  The negative region follows the
real-axis convention (values in (pi/2, pi), approaching pi at 0-).

Coefficients come from Chebyshev-Gauss interpolation at order-matched
nodes; since each prefactor-reduced target is analytic on its interval the
interpolation coefficients converge geometrically to the expansion
coefficients, and the magnitude of the last retained coefficient estimates
the truncation error of the whole region.  The three regions share their
nodes, so each row of cosines cos(k pi (j + 1/2) / order) is computed once
per fit and serves all three.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul, truediv
from typing import NamedTuple

from .core import HALF_PI, _float, _ordered_sum, eval_real
from .errors import NonFiniteArgument, SamplingFailure, WtanError

__all__ = ["ChebyshevModel", "fit", "eval_cheb"]


class ChebyshevModel(NamedTuple):
    """Piecewise Chebyshev coefficients; see the module docstring for the map."""

    split_a: float
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    gamma: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.alpha)

    def truncation_estimates(self) -> dict[str, float]:
        """Per-region error estimate: |last retained coefficient|."""
        return {
            "alpha": abs(self.alpha[-1]),
            "beta": abs(self.beta[-1]),
            "gamma": abs(self.gamma[-1]),
        }


def _cheb_interp_coeffs(funs, order: int) -> list[tuple[float, ...]]:
    """Chebyshev-Gauss interpolation coefficients for the plain sum
    f(s) = sum_{k=0}^{order-1} c_k T_k(s) (the k = 0 term is not halved),
    one tuple per function of `funs`.

    Every function is sampled before any coefficient is formed, in the
    order given.  Each row of cosines cos(k pi (j + 1/2) / order) over the
    nodes j is computed once and shared by all functions; row 1 is the node
    list.  An odd order samples f at exactly s = 0: the middle node
    cos(pi/2) is set to 0.0, where floats give 6e-17 (2.8e-16 for order
    15)."""
    halves = [j + 0.5 for j in range(order)]

    def row(k: int) -> list[float]:
        return list(map(math.cos, map(truediv, map(mul, repeat(k * math.pi), halves),
                                      repeat(order))))

    nodes = row(1)
    if order % 2:
        nodes[order // 2] = 0.0
    samples = [list(map(f, nodes)) for f in funs]
    coeffs = [[] for _ in samples]
    for k in range(order):
        cosines = row(k)
        scale = 1.0 if k == 0 else 2.0
        for vals, out in zip(samples, coeffs):
            out.append(scale * _ordered_sum(map(mul, vals, cosines)) / order)
    return [tuple(c) for c in coeffs]


def fit(split_a: float = 3.5, order: int = 15) -> ChebyshevModel:
    """Fit the three regional coefficient lists by node sampling.

    Targets sampled through the real solver: w/sqrt(x) on [0, a];
    (2/pi) w(a/t) against t on [-1, 1] (t = 0 is the limit value 1 at
    infinity, sampled exactly at an odd order's middle node); w/pi on
    [-a, 0).  The Gauss nodes never reach s = +-1, so neither x = 0 end is
    sampled.
    """
    if split_a <= 0:
        raise ValueError("split point must be positive")
    if order < 4:
        raise ValueError("order must be >= 4")
    a = split_a

    def alpha_target(s: float) -> float:
        x = 0.5 * a * (s + 1.0)
        return eval_real(x, 1) / math.sqrt(x)

    def beta_target(t: float) -> float:
        if t == 0.0:
            return 1.0
        return eval_real(a / t, 1) * 2.0 / math.pi

    def gamma_target(s: float) -> float:
        return eval_real(0.5 * a * (s - 1.0), 1) / math.pi

    try:
        alpha, beta, gamma = _cheb_interp_coeffs(
            (alpha_target, beta_target, gamma_target), order)
    except WtanError as exc:
        raise SamplingFailure(f"solver failed at a fit node: {exc}") from exc
    return ChebyshevModel(split_a=a, alpha=alpha, beta=beta, gamma=gamma)


def eval_cheb(x: float, model: ChebyshevModel) -> float:
    """Evaluate the piecewise model at real x (branch 1, real-axis
    convention for x < 0).  x = 0 belongs to the positive region, whose
    value there is 0; the negative region is one-sided at 0-.  x = +-inf
    gives the limit (pi/2) * sum_k beta_k T_k(0); NaN raises
    NonFiniteArgument.  Any real other than a Python float (a numpy
    scalar, an int) is rounded to the nearest float first, to +-inf past
    float64's range.  The region picks (s, coefficients, prefactor), and
    one Clenshaw loop sums the series at s."""
    x = x if type(x) is float else _float(x)
    a = model.split_a
    if 0.0 <= x <= a:
        s, coeffs, scale = 2.0 * x / a - 1.0, model.alpha, math.sqrt(x)
    elif x < -a or x > a:
        s, coeffs, scale = a / x, model.beta, HALF_PI
    elif x != x:   # NaN fails both comparisons above
        raise NonFiniteArgument("x is NaN")
    else:
        s, coeffs, scale = 2.0 * x / a + 1.0, model.gamma, math.pi
    s2, d1, d2 = 2.0 * s, 0.0, 0.0
    for ck in coeffs[:0:-1]:
        d1, d2 = s2 * d1 - d2 + ck, d1
    return scale * (s * d1 - d2 + coeffs[0])
