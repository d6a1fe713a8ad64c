"""Infinite square well with an energy-dependent contact interaction.

A particle in a box of width a with the extra potential
-lambda * E * delta(xi - a/2) keeps its odd eigenstates (they vanish at the
center) while the even ones satisfy

    (k*a/2) * tan(k*a/2) = a / lambda ,

so the even wavenumbers are k_n = (2/a) * W^(n)(a/lambda) in terms of the
branches of the w*tan(w) = x solution.  Even wavefunctions are
A sin(k xi) mirrored about the center; the derivative jump across the
contact term fixes the eigencondition, and the natural normalization is
the generalized inner product with weight N = 1 + lambda*delta(xi - a/2)
(the problem is H0 psi = E N psi, so eigenstates are orthonormal in N).
Energies are in units of hbar^2/2m, so E = k^2.

The same structure yields variational upper bounds on the ground branch:
with trial functions sin(xi) and sin(xi) + b sin(3 xi) at a = pi, the
Rayleigh quotient of the generalized problem gives the closed-form bounds
implemented in `variational_bound_1` / `variational_bound_2`.
"""

from __future__ import annotations

import enum
import math
import sys
from operator import itemgetter
from typing import NamedTuple

from .core import BranchIndex, _float, _integer, eval_real
from .errors import DomainViolation, NonFiniteArgument, NonPositiveNorm

__all__ = [
    "Parity",
    "WellModel",
    "SpectrumEntry",
    "Wavefunction",
    "spectrum",
    "wavefunction",
    "variational_bound_1",
    "variational_bound_2",
    "rayleigh_quotient",
]


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


class _WellFields(NamedTuple):
    width_a: float
    lam: float


class WellModel(_WellFields):
    """Well of width a with contact strength lambda (positive = attractive,
    the strength scales with the state's energy).  Energies are in units of
    hbar^2/2m.  The width must be positive and finite, lambda finite.  Both
    are kept as Python floats: any other real (a numpy scalar, an int) is
    rounded to the nearest float, to +-inf past float64's range."""

    __slots__ = ()

    def __new__(cls, width_a: float, lam: float):
        width_a, lam = _float(width_a), _float(lam)
        if not 0.0 < width_a < math.inf:
            raise ValueError(f"well width must be positive and finite, got {width_a!r}")
        if not math.isfinite(lam):
            raise ValueError(f"lambda must be finite, got {lam!r}")
        return super().__new__(cls, width_a, lam)

    @classmethod
    def _make(cls, iterable):   # _replace builds through it: check there too
        return cls(*iterable)


class SpectrumEntry(NamedTuple):
    index: int
    parity: Parity
    k: float
    E: float
    branch: BranchIndex | None  # set for even states only


class Wavefunction(NamedTuple):
    """Piecewise amplitudes: A_I sin(k xi) left of center, A_II sin(k (a - xi))
    right of it, and 0 outside [0, a]; calling it with xi = nan raises
    NonFiniteArgument."""

    A_I: float
    A_II: float
    k: float
    width_a: float

    def __call__(self, xi: float) -> float:
        a = self.width_a
        if not 0.0 <= xi <= a:
            if math.isnan(xi):
                raise NonFiniteArgument("xi must not be nan")
            return 0.0
        if xi < 0.5 * a:
            return self.A_I * math.sin(self.k * xi)
        return self.A_II * math.sin(self.k * (a - xi))


def spectrum(model: WellModel, count: int) -> list[SpectrumEntry]:
    """Lowest `count` states: even levels k_n = (2/a) W^(n)(a/lambda) merged
    with the unaffected odd levels k = 2*m*pi/a, sorted by energy
    E = k^2 (units of hbar^2/2m).

    Only the first h + 2 levels of each family are built (all `count` if
    fewer), h = floor(count/2).  Even level n lies in [2(n-1)pi/a, 2n*pi/a],
    beside odd levels n - 1 and n, so the families interleave and the
    lowest `count` states hold at most h + 1 of either.  Floats can
    reorder only neighbours, and only at a tie: as a/lambda -> 0+ even
    level n rounds onto odd level n - 1 and sorts first, which takes the
    one level past h.  The second extra level is slack.

    lambda = 0 is the unperturbed well: even levels reduce to their
    (2n-1)*pi/a limits (the branch value at infinity).  So does a lambda
    so small that a/lambda overflows.  Where a/lambda underflows to a
    signed zero, the even levels are eval_real's one-sided limit on the
    zero's side: 2n*pi/a at 0-, and (2n-2)*pi/a at 0+, whose first level
    E = 0 raises DomainViolation below.

    Raises TypeError for a bool or non-integer count (numpy integers are
    converted), ValueError for count < 1, and DomainViolation where a
    returned level's k or E is not finite, or E is below the smallest
    normal float (extreme widths).
    """
    count = _integer(count, "count")
    if count < 1:
        raise ValueError("count must be >= 1")
    a = model.width_a
    x = a / model.lam if model.lam else math.inf
    even, odd = Parity.EVEN, Parity.ODD
    levels = range(1, min(count, count // 2 + 2) + 1)
    if math.isinf(x):
        entries = [((2.0 * n - 1.0) * math.pi / a, even, n) for n in levels]
    elif x == 0.0:   # a/lambda underflowed: the one-sided limit on the zero's side
        entries = [(2.0 / a * eval_real(x, n, side=math.copysign(1, x)), even, n) for n in levels]
    else:
        scale = 2.0 / a
        entries = [(scale * eval_real(x, n), even, n) for n in levels]
    entries += [(2.0 * m * math.pi / a, odd, None) for m in levels]
    entries.sort(key=itemgetter(0))
    tiny, inf, new = sys.float_info.min, math.inf, tuple.__new__
    out = []
    for i, (k, parity, branch) in enumerate(entries[:count]):
        E = k * k
        if not tiny <= E < inf:
            raise DomainViolation(f"level {i} of a well of width {a!r} has k = {k!r}, "
                                  f"E = {E!r}: outside the normal float range")
        # skips the NamedTuple's Python __new__
        out.append(new(SpectrumEntry, (i, parity, k, E, branch)))
    return out


def wavefunction(model: WellModel, entry: SpectrumEntry) -> Wavefunction:
    """Amplitudes for one spectrum entry, normalized in the generalized
    inner product <psi| 1 + lambda*delta(xi - a/2) |psi> = 1 (plain L^2 for
    odd states, whose center value vanishes).  Raises NonPositiveNorm for an
    even entry whose generalized norm is not positive, which no entry of
    `spectrum(model, ...)` has, and NonFiniteArgument where k*a/2 is not
    finite."""
    a, k = model.width_a, entry.k
    half = 0.5 * k * a
    if not math.isfinite(half):
        raise NonFiniteArgument(f"k*a/2 must be finite, got k={k!r}, a={a!r}")
    if entry.parity is Parity.ODD:
        # psi = A sin(k xi) globally; the mirrored amplitude carries the
        # sign flip sin(k(a - xi)) = -sin(k xi) at k = 2 m pi / a
        norm_sq = 0.5 * a
        A = 1.0 / math.sqrt(norm_sq)
        return Wavefunction(A_I=A, A_II=-A, k=k, width_a=a)
    # even: continuity at the center gives A_I = A_II.  At an eigenvalue the
    # generalized norm equals (a/2)(1 + sin(ka)/(ka)) > 0; a non-positive one
    # means the entry does not belong to this model
    s = math.sin(half)
    norm_sq = 0.5 * a - math.sin(k * a) / (2.0 * k) + model.lam * s * s
    if norm_sq <= 0.0:
        raise NonPositiveNorm(
            f"generalized norm {norm_sq:.3e} <= 0 at k={k}; the entry is not "
            f"an even eigenstate of this model"
        )
    A = 1.0 / math.sqrt(norm_sq)
    return Wavefunction(A_I=A, A_II=A, k=k, width_a=a)


def variational_bound_1(x: float) -> float:
    """Ground-branch upper bound (pi/2) sqrt(x/(x+2)) from the unperturbed
    ground trial state; valid for 1/x > -1/2, i.e. x >= 0 or x < -2.
    NaN and +-inf raise NonFiniteArgument."""
    if not math.isfinite(x):
        raise NonFiniteArgument(f"x must be finite, got {x!r}")
    if x < 0.0 and x >= -2.0:
        raise DomainViolation(f"bound valid for 1/x > -1/2; x={x} is outside")
    if x == 0.0:
        return 0.0
    return 0.5 * math.pi * math.sqrt(x / (x + 2.0))


def variational_bound_2(x: float) -> float:
    """Improved upper bound from the two-term trial state
    sin(xi) + b sin(3 xi), minimized over b:

        (3 pi/2) sqrt( x / (5x + 10 + 2 sgn(x) sqrt(25 + 16x + 4x^2)) )

    The square-root sign is fixed by b -> 0 as x -> +-infinity.  Total on
    the finite reals (the inner discriminant is negative); near 0+ it
    behaves as 1.0537 sqrt(x) and its 0- limit is pi*sqrt(5)/2; on [-2, 0),
    where den cancels, x/den is (5x + 10 + 2 sqrt(...))/(9(x + 4)) instead.
    Where 4x^2 overflows, |x| beyond ~6.7e153, x/den is divided through by
    x: 1/(5 + 10/x + 2 sqrt(4 + 16/x + 25/x^2)), whose limit gives pi/2.
    NaN and +-inf raise NonFiniteArgument."""
    if not math.isfinite(x):
        raise NonFiniteArgument(f"x must be finite, got {x!r}")
    if x == 0.0:
        return 0.0
    xx = 4.0 * x * x
    if xx == math.inf:
        return 1.5 * math.pi * math.sqrt(
            1.0 / (5.0 + 10.0 / x + 2.0 * math.sqrt(4.0 + 16.0 / x + 25.0 / x / x)))
    root = 2.0 * math.sqrt(25.0 + 16.0 * x + xx)
    ratio = ((5.0 * x + 10.0 + root) / (9.0 * (x + 4.0)) if -2.0 <= x < 0.0
             else x / (5.0 * x + 10.0 + math.copysign(root, x)))
    return 1.5 * math.pi * math.sqrt(ratio)


def rayleigh_quotient(x: float, b: float) -> float:
    """Generalized Rayleigh quotient of the trial state sin(xi) + b sin(3 xi)
    at well width pi, expressed as a bound on the squared ground value:

        Q(x, b) = (pi^2/4) (1 + 9 b^2) / [ (1 + b^2) + (2/x)(1 - b)^2 ]

    Q(x, b) >= W^(1)(x)^2 for every admissible b; minimizing over b and
    taking the square root reproduces `variational_bound_2`, and b = 0
    reproduces the square of `variational_bound_1`.  For |b| > 1 it is
    divided through by b^2, so a huge b gives its limit; NaN and +-inf
    raise NonFiniteArgument."""
    if not (math.isfinite(x) and math.isfinite(b)):
        raise NonFiniteArgument(f"x and b must be finite, got x={x!r}, b={b!r}")
    if x == 0.0:
        raise DomainViolation("x = 0 is outside the quotient's domain")
    p, q = (1.0 / b, 1.0) if abs(b) > 1.0 else (1.0, b)   # (1, b), or (1, b)/b
    den = p * p + q * q
    if p != q:   # at b = 1 Q does not depend on x, and 2/x can overflow
        den += 2.0 / x * (p - q) ** 2
    if den <= 0.0:
        raise NonPositiveNorm(
            f"generalized norm denominator {den:.3e} <= 0 at x={x}, b={b}"
        )
    return 0.25 * math.pi ** 2 * (p * p + 9.0 * q * q) / den
