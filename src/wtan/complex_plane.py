"""Complex-plane evaluation on the finite-cuts sheet convention.

Sheets and cuts
---------------
In the finite-cuts convention every sheet n has infinity as a regular point
with w -> sgn(n)*(|n|-1/2)*pi.  The cuts of sheet n are:

* one vertical segment joining each relevant branch point x_j to its
  conjugate x_j* (j = |n| for sheets +-1; j in {|n|-1, |n|} otherwise), and
* one real-axis segment: [Re x_1, 0] on sheets +-1, and
  [Re x_|n|, Re x_(|n|-1)] on sheets with |n| >= 2.

Crossing the real segment connects n to -n; crossing the vertical segment
(x_j, x_j*) connects j to j+1 for positive sheets and -j to -(j+1) for
negative ones.  All cuts of sheet n satisfy |x| <= |x_|n|| and
Re x_|n| <= Re x <= Re x_(|n|-1) (with x_0 taken as the origin).

Evaluation
----------
`eval_complex` picks one of two routes from r = |x|, then runs only the
guards that x can trip: OnCut within CUT_GUARD of a cut of the sheet or
within BRANCH_POINT_GUARD of x_(m-1), x_m or a conjugate.  Take n > 0,
m = |n| and c = (m-1/2)*pi; negative sheets follow from w(x, -n) = -w(x, n).
Neither the exterior nor the window form evaluates tan, so neither has a
pole to guard.

Exterior, r >= EXTERIOR_FACTOR*|x_m|: no guard, since every cut and branch
point of the sheet lies in |x| <= |x_m|, at least 0.2*|x_m| >= 0.5 away.
Outside that disk every root on the sheet satisfies the pole-free form

    w = c - atan(w/x)          (principal atan)

since tan(c - d) = cot(d); it is solved by Newton iteration on
h(w) = w - c + atan(w/x) from the seed c/(1 + 1/x), up to |x| = 1.7e308.
The map contracts by q = |1/(x + w^2/x)|, which is 1 at a branch point and
below 0.46 here; a root is used only if Newton converged and q <= 1/2 at
the last iterate it evaluated, w_k.  That certifies it with no further
evaluation: the last step s = h(w_k)/(1 + d), d = h'(w_k) - 1, |d| <= 1/2,
is at most 2*eps*|y|, so |h(w_k)| = |s|*|1 + d| <= 3*eps*|y|, and by
contraction |y - y*| <= |w_k - y*| + |s| <= 2*|h(w_k)| + |s| <= 8*eps*|y|.

Regions.  For w = u + iv, Im(w tan w) = (u sinh 2v + v sin 2u)/(cos 2u +
cosh 2v) vanishes only on the axes, so every root for Im x > 0 lies in
the first or third quadrant, and the upper half of sheet m maps onto a
region R_m of the first.  Besides the axes, R_m is bounded by two arcs:
A_j, the image of both sides of the vertical cut at x_j = a_j + i*b_j,
runs from i*v_j, -v_j tanh v_j = a_j, over w_j down to the real root
u_j*, u_j* tan u_j* = a_j, and R_m lies inside A_m and outside A_(m-1)
(A_0 is the origin), as Lambert W branches lie between the images of
their cuts (Corless et al., Adv. Comput. Math. 5, 1996).  So a root of
w tan w = x in R_m (its conjugate, for Im x < 0) is the sheet-m value.
A_j lies on the level curve Re f(w) = a_j, f = w tan w.  The lines
u = Re w_j, v = Im w_j and u = j*pi cut the quadrant into rectangles on
which at most one tan places a point against A_j: left of Re w_j and
below Im w_j it is inside, right of Re w_j it is outside from Im w_j or
j*pi on, and elsewhere it is inside where Re f(w) > a_j left of Re w_j and
where Re f(w) < a_j right of it.  Re f is harmonic off the poles of tan,
all on the real axis, so by the maximum principle Re f - a_j keeps one
sign inside each of three regions whose boundary holds it:

* D, left of Re w_j between v = Im w_j and A_j: Re f > a_j on its bottom
  edge off the corner w_j, and on i*v below v_j (-v tanh v falls with v);
* U, left of Re w_j above A_j: Re f < a_j on u = Re w_j above w_j, on
  i*v above v_j, and as v -> oo, where tan w -> i and Re f ~ -v;
* Q' = [Re w_j, j*pi] x [0, Im w_j], which holds no pole of tan
  (Re w_j > (j-1/2)*pi): Re f < a_j on its left edge off w_j and on its
  bottom edge left of u_j*, where u tan u rises through a_j, and Re f >
  a_j on its top edge off w_j, on its bottom edge right of u_j*, and on
  its right edge, where Re f = -v tanh v and v <= Im w_j < v_j.

So A_j's left half, where Re f = a_j, never meets v = Im w_j left of w_j,
and [0, Re w_j] x [0, Im w_j] lies inside.  On the boundary of Q' the
sign changes only at w_j and u_j*, where one level line each enters Q'
(f - x_j ~ (w - w_j)^2 at w_j; f' != 0 at u_j*), and a closed level curve
would make Re f constant inside it: A_j's right half is the one curve of
Re f = a_j in Q', from w_j to u_j*, with Re f < a_j on its inner side and
Re f > a_j on its outer side, and every point right of Re w_j outside Q'
is outside.  The tests check these edges' signs on sheets 1 to 10**8.  A
root is taken within 8*eps*(1+|w|) of its own value: right of Re w_j the
lines decide only beyond that, and the sign only beyond Re f's rounding
and |f'| times that error.  A root nearer A_j is undecided.

Sides.  An undecided root is placed by the side of the cut its point lies
on, as for Lambert W.  f'(w_j) = 0 gives sec^2 w_j (1 + x_j) = 1, so
f''(w_j) = 2 and f(w) - x_j ~ (w - w_j)^2 near w_j: Re f = a_j there on
two lines at right angles.  Along arg(w - w_j) = 135 and 315 degrees
Im f < b_j: the halves of A_j left and right of Re w_j (A_j is a graph
over u).  Along 45 and 225 degrees Im f > b_j: B_j, the image of the line
Re x = a_j above x_j.  Run counterclockwise, the inside's boundary takes
A_j from u_j* to i*v_j, so the inside is 135 < arg(w - w_j) < 315, split
by B_j into Re f > a_j beside the left half and Re f < a_j beside the
right half; off w_j, f' has no zero on A_j (its zeros are 0 and the w_k),
so these signs hold along each half.  For z and w folded to Im >= 0 and
u = Re w, a root w of f(w) = z nearer to A_j than to B_j therefore obeys

    w is inside A_j iff (Re z < a_j) == (u > Re w_j).

Re z < a_j compares two floats exactly, and a root within A_j's
uncertainty of a point BRANCH_POINT_GUARD or more from x_j lies ~0.03 or
more from w_j, far nearer to A_j than to B_j, with |u - Re w_j| far above
u's error.  On the line Re z = a_j the rule gives the limit from the
right below x_j (on the cut, which the guards refuse), and above x_j the
root lies on B_j, inside at 225 degrees (u < Re w_j) and outside at 45
(u > Re w_j), as the rule says.  So every root is placed: inside A_m and
outside A_(m-1), by `_in_arc` or, where it has no answer, by this rule.

Disk, r < EXTERIOR_FACTOR*|x_m|.  One guard runs where Re x <= 0 or
r < CUT_GUARD, and there only inside its gaps: where |Im x| < CUT_GUARD,
or |Re x - a| < BRANCH_POINT_GUARD for a = Re x_m or Re x_(m-1) (0 on
sheets +-1), the record's floats lo and hi.  It raises OnCut where the
least distance to the real cut [Re x_m, Re x_(m-1)] and the vertical cuts
at x_(m-1) and x_m, taken from floats of the sheet record exactly as
`Cut.distance` measures it, is below CUT_GUARD, or where x lies within
BRANCH_POINT_GUARD of x_(m-1), x_m or a conjugate.  Outside the gaps it
cannot fire: every distance it measures is at least one of them (the
real cut's at least |Im x|, each vertical cut's and each branch point's
at least |Re x - Re x_j|, and BRANCH_POINT_GUARD > CUT_GUARD), and a
faithful hypot or abs() never rounds below its larger argument.
Elsewhere (Re x > 0, r >= CUT_GUARD) it cannot fire: every cut and
branch point has Re <= Re x_1 ~ -1.65, save the end of the real cut of
sheets +-1 at the origin, at distance r.  For Im x >= 0 (its conjugate
otherwise, and on the axis the root with Im >= 0) the value is
the first root placed in R_m of, in turn, the Newton roots of

    g(w) = w - k*pi - atan(x/w),   g'(w) = 1 + x/(w^2 + x^2),

for k = m left of Re x_m and k = m-1 otherwise, then for the other k (the
complex form of `eval_real`'s windows C + t: near x = 0 on sheet 1 the
exterior form loses relative accuracy, forming w ~ sqrt(x) as
c - atan(w/x), and this one does not), and the Halley roots from the germ
seeds w_j +- sqrt(2(x - x_j)/f''(w_j)) for j = m, m-1 (f'' = 2 sec^2 w
(1 + w tan w), w_0 = x_0 = 0), and from -i*x, where tan w -> i as Im w
grows: the values in the band and beside its cut lines lie near it on
sheets past ~500 (0.8 of the way up at 600-1000, at every height at
10**6), where germ seeds' Halley iterates can overflow cos (a failed
seed).  Last comes the exterior form's Newton root from c/(1 + 1/x),
polished by Halley: just above x_m and right of the band, on sheets from
~50 on, z/w ~ 1.02i lies beside the principal atan's cut, and both
windows' roots and every seed's can lie in other sheets' regions.  The
region, not |g'|, decides the sheet, so no floor on |g'| is needed where
it vanishes, at x_m, where the germs of sheets m and m+1 merge: the
sheet-(m+1) root lies outside R_m, and a root near an arc maps to a
point near a cut or branch point, which the guards refuse.  The region
also turns away the mirror root -w on sheet 1 and, 0.1 to 1 left
of x_m, the values of sheets m+1..m+5, which solve the same form.

Where no root is placed, or the exterior root is refused, NoConvergence
is raised: no test or benchmark point reaches it, nor any of 36400 drawn
on 14 sheets from 2 to 10**8 (2000 in each disk, 200 in its band and 400
within 5% above x_m right of the band), on both signs of the sheet.
Far out it is reached: of 4000 eval_complex calls at points drawn as
tests/compare_trees.py draws a sheet's, on both signs, none raise it on
sheets 2**30 and 2**40, 12 on 2**44, 18 on 2**48, 614 on 2**49 and 740
on 2**52 (continue_from_anchor: 16, 18, 704 and 826).  There the floats
of x_j drift too: from sheet ~2**32 on Re x_j errs by more than an ulp,
by 1.1e-10 (16 band widths) at 2**36: w*tan(w) is stationary at w_j
(f' = 0, f'' = 2), so at the float root y it misses x_j by about
(y - w_j)^2, which is about ulp(w_j)^2.
Past sheet 2**52, where float64 no longer orders the branch points, a
point in the disk raises DomainViolation.  Only `trace_path` and
`local_expansion_check`, which ask about a path, continue, and only the
germ followed sizes the steps: Halley corrects each one, and each is at
most BP_FACTOR times |f'|^2/(2|f''|) at the current value, f = w tan w.
Near x_j f - x_j ~ (w - w_j)^2, so that is the distance |z - x_j| to the
germ's own branch point, near which the two local sheets differ by
O(sqrt(distance)); far out on sheet n it is ~|z|/4.
The cuts do not enter the walk: `trace_path` labels each value with the
sheet m whose region R_m holds it (+-y inside A_m and outside A_(m-1)),
found by doubling and halving from the last label, since one step can
cross many cut lines (left of Re x ~ -3 they lie ~0.5/j apart).

Boundary values.  On every sheet's real segment the limit from above is
i*p, p*tanh(p) = -u, p > 0: w(conj x, n) = conj w(x, n) and w(x, -n) =
-w(x, n) continue the limit w+ from above into -conj(w+), so w+ is
imaginary.  On the vertical cut at x_j a side's limit is the root on the
half of A_j the side rule gives it (right side: the left half on sheet j,
the right half on sheet j+1), by Halley iteration from that half's germ
seed, accepted outside A_(j-1) and inside A_(j+1), where the cut point has
no other root.  Else it is the root that `_place` puts in R_m at
the cut point itself, by the side rule for a point on the requested
side: the cut point's real part for the right side, one ulp left of it
for the left (at the foot, on the axis, R_m holds the limit from above
and its conjugate, and the limit from above is taken), polished by
Halley.  It is solved at the cut point itself: the band between the cut
lines is ~0.5/m wide, below 1e-4 from sheet ~5000 on, so a point a fixed
step off one cut line can lie beyond the other.  At x_j itself both limits
are the double root w_j (its conjugate below the axis).  Close beside it
Halley stalls within ~sqrt(eps)*(1+|w_j|) of w_j, possibly on the other
half, where the arcs turn the germ's root away.  The stall is often an
exact 2- or 3-cycle of iterates, and `_refine` ends the solve once an
iterate repeats, with the iterate 16 steps would have left (its
docstring).  Where `_place` then gives no root either, the germ's root
is the limit if it lies within sqrt(eps)*(1+|w_j|) of w_j, the distance
within which a limit may lie on the other half at all.  `_vertical_limit`
holds both rules.

Dispersion reconstruction
-------------------------
Sheet 1 can be rebuilt from its cut discontinuities alone.  With
a = Re x_1, b = Im x_1, D0(u) = Im w(u + i0+) on the real cut and
D1(v) = [w(a + 0+ + iv) - w(a - 0+ + iv)]/2 on the vertical cut,
a Cauchy integral around the two cuts gives

    w(z) = pi/2 + (1/pi) Integral_a^0 D0(u)/(u - z) du
                - (1/pi) Integral_0^b [ D1(v)/(a + iv - z)
                                      + conj(D1(v))/(a - iv - z) ] dv .

The minus sign of the vertical-cut term follows from the counterclockwise
Cauchy contour with D1 defined as the right-minus-left jump; closure against
`eval_complex` fixes the convention unambiguously (and is enforced in
the test suite to 1e-12).  D0 and D1 are the boundary values above at the
quadrature nodes, each solved directly, so the tables hold polished roots
on the cuts.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from typing import Callable, NamedTuple

from . import core
from .branch_points import BranchPoint, find_branch_point
from .core import (
    EPS,
    BranchedValue,
    BranchIndex,
    _complex,
    _float,
    _number,
    _ordered_sum,
    _panel_nodes,
    defining_residual,
    halley_step,
    validate_branch,
)
from .errors import (
    DomainViolation,
    NoConvergence,
    NonFiniteArgument,
    NotOnCut,
    OnCut,
    OutOfCutRange,
    PoleProximity,
    QuadratureFailure,
    StepTooLarge,
)

__all__ = [
    "CutKind",
    "Cut",
    "ContinuationPath",
    "SheetAtlas",
    "Side",
    "continue_from_anchor",
    "cuts_for",
    "distance_to_cuts",
    "eval_complex",
    "trace_path",
    "boundary_value",
    "discontinuity_delta0",
    "discontinuity_delta1",
    "dispersion_eval",
]

CUT_GUARD = 1e-10          # closer than this to a cut -> OnCut
BRANCH_POINT_GUARD = 1e-3  # eval_complex rejects targets this close to x_n
EXTERIOR_FACTOR = 1.2      # solved directly where |z| >= this times |x_|n||

# Continuation step policy.  Each step is capped at BP_FACTOR times the
# distance to the germ's own branch point, estimated at the current value
# (module docstring), which keeps the walk off the other local sheet near
# x_n, and shrinks by STEP_SHRINK whenever the Halley correction exceeds
# MAX_DY (or fails).
STEP_SHRINK = 0.5
MAX_DY = 0.2
MIN_STEP = 1e-9
BP_FACTOR = 0.5
# Past _LAST_POINT float64 no longer keeps Im x_j rising with j.  Below it
# the disk route already raises NoConvergence at some points from ~2**44 on
# (12 of 4000 eval_complex calls on sheet 2**44, 740 on 2**52; module
# docstring), and Re x_j errs by more than CUT_GUARD from ~2**36 on.
_LAST_POINT = 2 ** 52
# Entries in the process's cache of x_j (~350 bytes each) and in its cache of
# sheet records (~0.6 kB each, ~0.9 kB with their own x_j)
_CACHED = 1024


@functools.lru_cache(_CACHED)
def _point(j: int) -> BranchPoint:
    """x_j, found once per process: the branch points are constants of the
    function."""
    return find_branch_point(j)


class CutKind(enum.Enum):
    REAL_SEGMENT = "real"
    VERTICAL_SEGMENT = "vertical"


class Side(enum.Enum):
    UPPER = "upper"
    LOWER = "lower"
    LEFT = "left"
    RIGHT = "right"


class Cut(NamedTuple):
    """One branch cut of a sheet, with the sheet pair it glues together."""

    kind: CutKind
    endpoints: tuple[complex, complex]
    connects: tuple[BranchIndex, BranchIndex]

    def distance(self, z: complex) -> float:
        """Distance from z, taken as `_number` gives it, to the cut segment;
        NonFiniteArgument unless z is finite."""
        z = _number(z)
        if not cmath.isfinite(z):
            raise NonFiniteArgument(f"z must be finite, got {z!r}")
        a, b = self.endpoints
        if self.kind is CutKind.VERTICAL_SEGMENT:
            offset, t, lo, hi = z.real - a.real, z.imag, min(a.imag, b.imag), max(a.imag, b.imag)
        else:
            offset, t, lo, hi = z.imag, z.real, a.real, b.real
        return math.hypot(offset, max(lo - t, t - hi, 0.0))


class _PathFields(NamedTuple):
    waypoints: tuple[complex, ...]


class ContinuationPath(_PathFields):
    """Waypoints for `trace_path`, each converted with complex(), a real
    past float64's range to the +-inf it rounds to (`_number`)."""

    __slots__ = ()

    def __new__(cls, waypoints):
        waypoints = tuple(complex(_number(z)) for z in waypoints)
        if len(waypoints) < 2:
            raise ValueError("a path needs at least two waypoints")
        return super().__new__(cls, waypoints)

    @classmethod
    def _make(cls, iterable):   # _replace builds through it: check there too
        return cls(*iterable)


# ---------------------------------------------------------------------------
# sheets
# ---------------------------------------------------------------------------

class _Sheet(NamedTuple):
    """What sheets +-m need of their branch points x_(m-1) and x_m."""

    bp: BranchPoint                 # x_m
    c: float                        # (m-1/2)*pi: w -> +-c at infinity on sheets +-m
    disk: float                     # |x_m|: every cut of the sheet lies within it
    lo: float                       # Re x_m, the real cut's left end
    hi: float                       # Re x_(m-1) (0 on sheets +-1), its right end
    near: tuple[BranchPoint, ...]   # x_(m-1) (m > 1) and x_m, the guarded points
    germs: tuple                    # (w_j, x_j, f''(w_j)), j = m, m-1; j = 0: origin


@functools.lru_cache(_CACHED)
def _sheet(m: int) -> _Sheet:
    """The record of sheets +-m (m >= 1), built once per process, as the
    x_j it holds are: it is a constant of the function too."""
    bp = _point(m)
    near = (_point(m - 1), bp) if m > 1 else (bp,)
    germs = [(b.y, b.x, 2.0 * (1.0 + (b.x / b.y) ** 2) * (1.0 + b.x))
             for b in reversed(near)] + [(0j, 0j, 2.0)] * (m == 1)
    return _Sheet(bp, (m - 0.5) * math.pi, abs(bp.x), bp.x.real,
                  near[0].x.real if m > 1 else 0.0, near, tuple(germs))


def _cut_distances(z: complex, s: _Sheet) -> tuple[float, ...]:
    """Distances from finite z to the cuts of sheets +-m, s = _sheet(m): the
    real cut [lo, hi], then the vertical cut at each of s.near, the same
    floats as `Cut.distance` gives."""
    return (math.hypot(max(s.lo - z.real, z.real - s.hi, 0.0), z.imag),
            *(math.hypot(z.real - b.x.real, max(abs(z.imag) - b.x.imag, 0.0))
              for b in s.near))


def _guard(z: complex, s: _Sheet) -> None:
    """OnCut if a cut of sheet s lies within CUT_GUARD of z, or x_(m-1),
    x_m or a conjugate within BRANCH_POINT_GUARD of it.

    `_solve` calls it only inside its gaps, |Im z| < CUT_GUARD or
    |Re z - a| < BRANCH_POINT_GUARD for a = s.lo or s.hi, since outside
    them it cannot raise: the real cut's distance is at least |Im z|, each
    vertical cut's and each branch point's at least |Re z - Re x_j|, with
    Re x_j = s.lo or s.hi, and a faithful hypot or abs() never rounds below
    its larger argument (module docstring)."""
    if min(_cut_distances(z, s)) < CUT_GUARD:
        raise OnCut(f"z={z!r} lies on a cut of sheet +-{s.bp.n}")
    for bp in s.near:
        # x_j or its conjugate, whichever lies on z's side of the axis:
        # the same float as the nearer of |z - x_j| and |z - conj x_j|
        if abs(complex(z.real - bp.x.real, abs(z.imag) - bp.x.imag)) < BRANCH_POINT_GUARD:
            raise OnCut(f"z={z!r} is within {BRANCH_POINT_GUARD:g} of branch point "
                        f"x_{bp.n}; too close for direct evaluation")


class SheetAtlas:
    """A caller's dispersion tables (`dispersion_eval`), and with `build(k)`
    the branch points x_1..x_k as `branch_points`.  Nothing else reads an
    atlas: the x_j and each sheet's record of cuts, germs, disk radius and
    band edges are constants of the function, found on first use in the
    process's least-recently-used caches of _CACHED entries each.  The
    tables fill idempotently, and no value depends on what an atlas or the
    process has evaluated or found before.  The origin x = 0 (w = 0, index
    0) is a branch point too, though no :class:`BranchPoint` record."""

    def __init__(self):
        self.branch_points: list[BranchPoint] = []   # x_1..x_k of `build(k)`
        self._disp_tables: dict[tuple, tuple] = {}

    @classmethod
    def build(cls, sheets: int = 4) -> "SheetAtlas":
        """An atlas with x_1..x_sheets found up front, as `branch_points`."""
        atlas = cls()
        atlas.branch_points = [_point(j) for j in range(1, sheets + 1)]
        return atlas


def cuts_for(n: BranchIndex) -> tuple[Cut, ...]:
    """The cuts of sheet n in the finite-cuts convention."""
    n = validate_branch(n)
    m, step = abs(n), 1 if n > 0 else -1
    s = _sheet(m)
    # crossing x_j's vertical cut leads from sheet +-j to +-(j+1)
    return (Cut(CutKind.REAL_SEGMENT, (complex(s.lo, 0.0), complex(s.hi, 0.0)), (n, -n)),
            *(Cut(CutKind.VERTICAL_SEGMENT, (b.conjugate_x, b.x),
                  (n, n + step if b.n == m else n - step)) for b in s.near))


def distance_to_cuts(z: complex, n: BranchIndex) -> float:
    """Distance from z to the nearest cut of sheet n; NonFiniteArgument
    unless |z| is finite (`_complex`)."""
    return min(_cut_distances(_complex(z)[0], _sheet(abs(validate_branch(n)))))


def continue_from_anchor(z: complex, n: BranchIndex) -> complex:
    """Value of sheet n at z by the routes of `eval_complex`, with no
    guards: on a real cut it gives the limit from above, on a vertical
    one the side rule's limit from the right, and near a branch point
    any root placed in the region.

    Raises NonFiniteArgument if |z| is not finite, including finite
    parts whose modulus overflows, and NoConvergence where no root is
    found: the exterior root refused, or no root placed in the disk.
    """
    n = validate_branch(n)
    z, r = _complex(z)
    y = _solve(z, abs(n), r, False)[0]
    return y if n > 0 else -y


def _solve(z: complex, m: int, r: float, guarded: bool) -> tuple[complex, bool]:
    """Sheet-m (m > 0) value at z, r = |z|, and whether it took the
    exterior route: the exterior root, taken only where the contraction
    |h' - 1| <= 1/2 at its last iterate certifies it (`_exterior_root`),
    or inside the disk `_place`'s, else NoConvergence; `guarded` runs
    the guard wherever z can trip it (module docstring)."""
    s = _sheet(m)
    if r >= EXTERIOR_FACTOR * s.disk:
        found = _exterior_root(z, s.c)
        if found is None or not abs(found[1] - 1.0) <= 0.5:
            raise NoConvergence(f"exterior root refused at z={z!r} on sheet {m}")
        return found[0], True
    if m > _LAST_POINT:
        raise DomainViolation(f"z={z!r} lies inside the cut disk of sheet {m}, past 2**52: "
                              "float64 no longer orders the branch points there")
    # the gap screen: the guard runs only inside one of its gaps (`_guard`).
    # The half-plane test is not needed for the values, but it spares right
    # of the band the gap tests: without it that route ran 4.5% slower,
    # faster in only 6 of 40 alternated passes.
    if guarded and (z.real <= 0.0 or r < CUT_GUARD) and (
            abs(z.imag) < CUT_GUARD or abs(z.real - s.lo) < BRANCH_POINT_GUARD
            or abs(z.real - s.hi) < BRANCH_POINT_GUARD):
        _guard(z, s)
    y = _place(z, s)
    if y is None:
        raise NoConvergence(f"no root placed in the region of sheet {m} at z={z!r}")
    return y, False

# ---------------------------------------------------------------------------
# low-level continuation
# ---------------------------------------------------------------------------

def _reflect(y: complex, z: complex) -> complex:
    """y, a root placed for z folded to Im z >= 0, back at z: its conjugate
    below the axis and, on it, wherever Im y < 0."""
    return y.conjugate() if z.imag < 0.0 or (z.imag == 0.0 and y.imag < 0.0) else y


def _newton(form: str, x, c: float, w) -> tuple | None:
    """Newton iteration from w on one of three pole-free forms of the point
    x and the constant c, named by `form` and written out in the loop, so
    that an iterate calls nothing but cmath.atan or math.tanh:

    * "exterior": h(w) = w - c + atan(w/x), h'(w) = 1 + 1/(x + w*(w/x)),
      c = (n-1/2)*pi on sheet n;
    * "window": g(w) = w - c - atan(x/w), g'(w) = 1 + x/(w^2 + x^2), c = k*pi
      on window k;
    * "tanh": p*tanh(p) - x and tanh(p) + p*sech^2(p) at real w = p and x
      (c unused).

    Returns the root and the derivative at the last iterate evaluated, the
    one before the root's final step, or None if the steps did not fall
    below 2*eps*|w| within 16 iterations (measured: at most 5 on the
    exterior form, 6 on the window form beyond 0.25 of x_n, and 5 on the
    tanh form for x up to 40) or an iterate hit a singularity of the form
    (atan at +-i, w = 0, a vanishing denominator).

    The bound is relative: an absolute one passes a tiny iterate far from
    any root, where the derivative is huge (x = 1.2e-38 on sheet 2 gave
    9.7e-37 for pi).

    The form is tested once per call, and what no iterate changes is
    formed once: the stop's 2*eps, and the window form's x*x.  Each
    iterate performs the same float operations, on the same operands and
    in the same order, as one that formed them anew."""
    tol = 2.0 * EPS
    try:
        if form == "exterior":
            for _ in range(16):
                u = w / x
                f, d = w - c + cmath.atan(u), 1.0 + 1.0 / (x + w * u)
                step = f / d
                w -= step
                if abs(step) <= tol * abs(w):
                    return w, d
        elif form == "window":
            xx = x * x
            for _ in range(16):
                f, d = w - c - cmath.atan(x / w), 1.0 + x / (w * w + xx)
                step = f / d
                w -= step
                if abs(step) <= tol * abs(w):
                    return w, d
        else:
            for _ in range(16):
                t = math.tanh(w)
                f, d = w * t - x, t + w * (1.0 - t * t)
                step = f / d
                w -= step
                if abs(step) <= tol * abs(w):
                    return w, d
    except (ZeroDivisionError, ValueError):
        pass
    return None


def _exterior_root(x: complex, c: float) -> tuple[complex, complex] | None:
    """`_newton`'s root of the exterior form h(w) = w - c + atan(w/x) and h'
    at its last iterate, from the overflow-safe seed c/(1 + 1/x); None where
    Newton fails, or where the seed divides by 0 (x = 0 or x = -1).  A
    contraction |h' - 1| <= 1/2 certifies the root to 8*eps*|y| (module
    docstring): h' = fl(1 + d), d = 1/(x + w^2/x), so h' - 1 is exact there
    (Sterbenz) and differs from d only by the rounding of 1 + d."""
    try:
        return _newton("exterior", x, c, c / (1.0 + 1.0 / x))
    except ZeroDivisionError:
        return None


def _window_newton(x: complex, c: float, k: int) -> tuple[complex, complex] | None:
    """`_newton`'s root of the window form g(w) = w - k*pi - atan(x/w) and
    g' at its last iterate, from the sheet-n (n > 0) seed c/(1 + 1/x),
    c = (n-1/2)*pi, or for k = 0, where w ~ sqrt(x) near the origin, from
    c*sqrt(x/(x + c^2)), the root with tan(w) replaced by w/(1 - (w/c)^2):
    <= 5 Newton steps for |x| in [3e-10, 3.2] where c/(1 + 1/x) ~ c*x takes
    up to 21.  For k >= 1 at x = 0, where c/(1 + 1/x) ~ c*x squares to 0
    (|x| below ~1e-163) and g' - 1 = x/(w^2 + x^2) would divide by 0, or
    where it is not finite (both parts of x subnormal, where 1/x overflows
    to inf - inf*j), the seed is k*pi + x/(k*pi), the root to rounding
    there."""
    k_pi = k * math.pi
    try:
        seed = c * cmath.sqrt(x / (x + c * c)) if k == 0 else c / (1.0 + 1.0 / x)
    except ZeroDivisionError:   # x = -1 or -c^2, inside the band, or x = 0
        if x:
            return None
        seed = 0j
    if k and (seed * seed == 0 or not cmath.isfinite(seed)):
        seed = k_pi + x / k_pi
    return _newton("window", x, k_pi, seed)


def _place(z: complex, s: _Sheet, left: bool = False) -> complex | None:
    """The first root placed in R_m, s = the record of sheets +-m, for
    Im z >= 0 and reflected back: the window-form roots, then the Halley
    roots of the germ seeds and of -i*z, then the exterior form's Newton
    root, polished (module docstring); None if none is placed.  On the
    axis, where a root's conjugate is a root too, the one with Im >= 0: the
    limit from above on a real cut, and at a vertical cut's foot.  With
    `left` the roots of z are placed, and the windows ordered, as for a
    point one ulp left of z: on a vertical cut line the side rule then
    gives the limit from the left, and without it the limit from the
    right."""
    x = z.conjugate() if z.imag < 0.0 else z
    at = complex(math.nextafter(x.real, -math.inf), x.imag) if left else x
    m = s.bp.n
    first = m if at.real < s.lo else m - 1
    for k in (first, 2 * m - 1 - first):
        found = _window_newton(x, s.c, k)
        if found is not None and _holds(found[0], s, at):
            return _reflect(found[0], z)
    for seed in [w + e * cmath.sqrt(2.0 * (x - xj) / f2) for w, xj, f2 in s.germs
                 for e in (1.0, -1.0)] + [-1j * x]:
        y = _refine(x, seed)
        if y is not None and _holds(y, s, at):
            return _reflect(y, z)
    found = _exterior_root(x, s.c)
    y = None if found is None else _refine(x, found[0])
    return _reflect(y, z) if y is not None and _holds(y, s, at) else None


def _holds(w: complex, s: _Sheet, z: complex) -> bool:
    """True if w, or its conjugate, lies in R_m, s = the record of sheets
    +-m: then w is the sheet-m value at z = w*tan(w).  Within the
    uncertainty of an arc the side of the cut that z lies on decides
    (module docstring); on the edge u = 0, the image of the real cut, only
    the limit from above lies."""
    u, v = w.real, abs(w.imag)
    return ((u > 0.0 or (u == 0.0 and w.imag > 0.0))
            and _inside(u, v, z.real, s.near[-1])
            and (s.bp.n == 1 or not _inside(u, v, z.real, s.near[0])))


def _in_arc(u: float, v: float, bp: BranchPoint) -> bool | None:
    """Whether u + iv (u > 0, v >= 0) lies inside A_j, j = bp.n, closed by
    the axes, on the rectangles of the lines u = Re w_j, v = Im w_j and
    u = j*pi (module docstring): inside left of Re w_j and below Im w_j,
    outside right of Re w_j from a root's own error, 8*eps*(1 + |w|), above
    Im w_j or right of j*pi, and elsewhere by the sign of Re f - a_j, with
    one tan, beyond its rounding and |f'| times that error; else None."""
    a, top = bp.x.real, bp.y
    left = u <= top.real
    if left and v < top.imag:
        return True
    tol = 8.0 * EPS * (1.0 + math.hypot(u, v))
    if not left and (v >= top.imag + tol or u >= bp.n * math.pi + tol):
        return False
    w = complex(u, v)
    t = cmath.tan(w)
    gap = u * t.real - v * t.imag - a   # Re f(w) - a_j
    if abs(gap) <= 4.0 * EPS * (abs(w) * abs(t) + abs(a)) + abs(t + w * (1.0 + t * t)) * tol:
        return None
    return (gap > 0.0) == left


def _inside(u: float, v: float, x_re: float, bp: BranchPoint) -> bool:
    """Whether u + iv, a root at a point of real part x_re, lies inside
    A_j, j = bp.n: `_in_arc`'s answer, or where it has none the side rule
    (module docstring)."""
    inside = _in_arc(u, v, bp)
    if inside is None:
        return (x_re < bp.x.real) == (u > bp.y.real)
    return inside


def _label(z: complex, y: complex, last: BranchIndex) -> BranchIndex:
    """The sheet whose value at z is y: the m with +-y inside A_m and
    outside A_(m-1), by `_inside` (so an undecided root goes by the side
    of the cut z lies on), searched from |last| by doubling, then
    halving; DomainViolation past 2**52."""
    sign = 1 if y.real > 0.0 or (y.real == 0.0 and y.imag > 0.0) else -1
    u, v = sign * y.real, abs(y.imag)

    def inside(j: int) -> bool:
        if j > _LAST_POINT:
            raise DomainViolation(f"the value {y!r} at z={z!r} lies past sheet 2**52")
        return _inside(u, v, z.real, _point(j))

    lo, hi, step = abs(last), abs(last), 1
    if inside(hi):
        lo -= 1
        while lo > 0 and inside(lo):
            hi, lo, step = lo, max(lo - 2 * step, 0), 2 * step
    else:
        hi += 1
        while not inside(hi):
            lo, hi, step = hi, min(hi + 2 * step, _LAST_POINT + 1), 2 * step
    while hi - lo > 1:   # inside A_hi, and outside A_lo (A_0: the origin)
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if inside(mid) else (mid, hi)
    return sign * hi


def _refine(x: complex, y: complex) -> complex | None:
    """Polish y toward the root of w*tan(w) = x by Halley iteration: the
    value once a step falls to 1e-15 relative, or after 16 steps with the
    residual within TOL; None where it fails, a stall, a step at a tan
    pole, or cos overflowing (far up, where tan y -> i).

    A stall is often a cycle: beside a branch point Halley's iterates fall
    into an exact 2- or 3-cycle.  Iterates are kept from the 4th on; once
    one repeats a kept one bit for bit (signed zeros differ, nan repeats
    nothing), every later step repeats a step already taken, which failed
    the 1e-15 test, so the 16th iterate is read off the cycle,
    y_(s + (16 - s) mod p) for first index s and period p, and the
    residual test decides on it as it would after 16 steps."""
    kept = []   # (y, sign of Re y, sign of Im y): equal where the bits of y are
    try:
        for i in range(1, 17):
            y_new = halley_step(x, y)
            if abs(y_new - y) <= 1e-15 * (1.0 + abs(y_new)):
                return y_new
            y = y_new
            if i >= 4:
                key = (y, math.copysign(1.0, y.real), math.copysign(1.0, y.imag))
                if key in kept:
                    s = kept.index(key)
                    y = kept[s + (12 - s) % (i - 4 - s)][0]
                    break
                kept.append(key)
    except (PoleProximity, OverflowError):
        return None
    return y if defining_residual(x, y) <= core.TOL * (1.0 + abs(x)) else None


def _predict(z: complex, y: complex, dz: complex) -> complex:
    """Euler predictor using dw/dx = w/(x + x^2 + w^2); identity near x_n."""
    q = y * y + z * z + z
    if abs(q) < 1e-12:
        return y
    return y + y / q * dz


def _walk_segment(z0: complex, y0: complex, z1: complex,
                  on_step: Callable[[complex, complex, complex], None] | None = None) -> complex:
    """Continue the germ through (z0, y0) to z1 with adaptive steps; returns
    the value at z1.  Each step is at most BP_FACTOR times |f'|^2/(2|f''|)
    at the current value, the distance to the germ's branch point (module
    docstring), and halves while `_refine` returns None (cos overflowing
    too, where tan y -> i leaves that distance unbounded) or corrects by
    more than MAX_DY.  `on_step` observes each accepted step.  Raises
    StepTooLarge when a step would have to fall below MIN_STEP.
    """
    z, y = z0, y0
    while z != z1:
        rem = z1 - z
        t = cmath.tan(y)
        sec2 = 1.0 + t * t
        d1, d2 = abs(t + y * sec2), 4.0 * abs(sec2 * (1.0 + y * t))   # |f'|, 2|f''|
        reach = d1 * (d1 / d2) if d2 else math.inf
        take = min(abs(rem), max(BP_FACTOR * reach, MIN_STEP))
        while True:
            z_new = z1 if take >= abs(rem) else z + rem / abs(rem) * take
            y_new = _refine(z_new, _predict(z, y, z_new - z))
            if y_new is not None and abs(y_new - y) <= MAX_DY:
                break
            take *= STEP_SHRINK
            if take < MIN_STEP:
                raise StepTooLarge(f"continuation step fell below {MIN_STEP:g} near z={z!r}")
        if on_step is not None:
            on_step(z, z_new, y_new)
        z, y = z_new, y_new
    return y


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def eval_complex(z: complex, n: BranchIndex, atlas: SheetAtlas | None = None) -> BranchedValue:
    """Sheet-n value at z in the finite-cuts convention.  `atlas` is taken
    for callers that pass one and is not read, here or by the other cut
    operations: the value is a function of (z, n) alone.

    The route is picked once, from |z|, and only the guards z can trip
    run (module docstring).  From |z| = EXTERIOR_FACTOR*|x_|n|| on
    w = c - atan(w/z) is solved directly, with no guard.  Inside that disk,
    on every sheet up to 2**52, the value is the first window-form, germ
    or exterior-form root that the sheet's w-plane region R_|n| holds;
    within the uncertainty of a boundary arc the side of the cut that z
    lies on decides.  Nothing is continued.

    The value is accepted if either

    * it took the exterior route: Newton on h(w) = w - c + atan(w/z)
      (sheet |n|) converged with q = |1/(z + w^2/z)| <= 1/2 at its last
      iterate evaluated, which puts y within 8*eps*|y| of the root by that
      step alone (module docstring), or
    * the residual |y*tan(y) - z| is at most TOL*(1+|z|) or, near the tan
      pole, the conditioning floor 4*eps*|d(y tan y)/dy|*(1+|y|), which is
      evaluated only where the first bound fails.

    `BranchedValue.residual` is |y*tan(y) - z| on every route.  For |z|
    beyond ~1e16 tan(y) no longer resolves the root, so there it reports
    float64's limit, not an error in y; the first test is what certifies
    such values.

    Raises
    ------
    NonFiniteArgument
        If |z| is not finite (`_complex`): an infinite or NaN part, finite
        parts whose modulus overflows, or a real past float64's range.
    OnCut
        If z lies within 1e-10 of a cut of sheet n, or within 1e-3 of one of
        the sheet's branch points (where the sheets' roots merge; use
        `boundary_value` / `trace_path` for on-cut and near-point work).
    DomainViolation
        If |n| > 2**52 and z lies inside the disk, where float64 no longer
        orders the branch points.
    NoConvergence
        If no root is found or accepted: the exterior root refused, no
        root placed in the disk, or a disk root's residual above both
        bounds.  No point of the tests or of the benchmark reaches it.
    """
    n = validate_branch(n)
    z, r = _complex(z)
    y, certified = _solve(z, abs(n), r, True)
    if n < 0:
        y = -y
    t = cmath.tan(y)
    res = abs(y * t - z)
    if not certified and res > core.TOL * (1.0 + r):
        # near the tan pole (large real z on low sheets) the map y -> y*tan(y)
        # is so steep that a half-ulp of y already produces a large residual;
        # accept down to that conditioning floor, |d(y tan y)/dy| * ulp
        steepness = abs(y * (1.0 + t * t) + t)
        if res > 4.0 * EPS * steepness * (1.0 + abs(y)):
            raise NoConvergence(f"residual {res:.3e} above tolerance at z={z!r}")
    return tuple.__new__(BranchedValue, (z, y, n, res))   # skips the NamedTuple's Python __new__


def trace_path(path: ContinuationPath, start_sheet: BranchIndex,
               atlas: SheetAtlas | None = None) -> list[tuple[complex, complex, BranchIndex]]:
    """Continue along a waypoint path, labelling each value with its sheet.

    The continued value is a single analytic germ; each accepted step is
    labelled with the sheet whose value at that point it is, the sheet whose
    w-plane region holds it (module docstring), so the label changes as the
    path crosses cuts.  Returns the accepted steps as (point, value, sheet)
    records, starting with the initial point.  Raises NonFiniteArgument if
    a waypoint's modulus is not finite, NoConvergence where no root is
    found at the first waypoint (at the origin on sheet 1, say), StepTooLarge
    where a continuation step would fall below MIN_STEP, and
    DomainViolation where a value lies past sheet 2**52.
    """
    start_sheet = validate_branch(start_sheet)
    for point in path.waypoints:
        _complex(point)
    z = path.waypoints[0]
    y = continue_from_anchor(z, start_sheet)
    records = [(z, y, start_sheet)]

    def on_step(za: complex, zb: complex, yb: complex) -> None:
        records.append((zb, yb, _label(zb, yb, records[-1][2])))

    for target in path.waypoints[1:]:
        y, z = _walk_segment(z, y, target, on_step), target
    return records


def _check_on_cut(point: complex, n: BranchIndex, side: Side) -> None:
    """NotOnCut unless a cut of sheet n lies within 1e-9 of the point, and
    ValueError unless one of them is of the side's kind (UPPER/LOWER: the
    real segment, LEFT/RIGHT: a vertical one): near the junction of the two
    a point can sit on both, and the side picks one."""
    d = _cut_distances(point, _sheet(abs(n))) if cmath.isfinite(point) else (math.inf,)
    if min(d) > 1e-9:
        raise NotOnCut(f"{point!r} is not on a cut of sheet {n}")
    if min(d[:1] if side in (Side.UPPER, Side.LOWER) else d[1:]) > 1e-9:
        raise ValueError(f"side {side.value} does not apply to the cut kind at {point!r}")


def _tanh_root(s: float) -> float:
    """p >= 0 with p*tanh(p) = s (s >= 0), by `_newton` on the tanh form
    p*tanh(p) - s from sqrt(s + s^2/3), the root to O(s^3) as s -> 0: at
    most 5 steps for s up to 40 (200000 draws), past |Re x_j| for every
    j <= 2**52 (19.7)."""
    if s <= 0.0:
        return 0.0
    found = _newton("tanh", s, 0.0, math.sqrt(s * (1.0 + s / 3.0)))
    if found is None:
        raise NoConvergence(f"p*tanh(p) = {s!r} did not converge")
    return found[0]


def _vertical_limit(z: complex, s: _Sheet, bp: BranchPoint, right: bool) -> complex:
    """Sheet-m limit at z, s = the record of sheets +-m, on the vertical cut
    at x_j = bp.x (one of s.near) from its right (else left) side (module
    docstring): w_j at x_j itself, where both halves of A_j meet at the
    double root (its conjugate below the axis); else the Halley root from
    the germ seed of the side's half of A_j, where the arcs accept it, else
    `_place`'s root placed by the side rule, polished, else the germ's root
    if it lies within sqrt(eps)*(1 + |w_j|) of w_j; NoConvergence where
    none gives a root on the side's half or that close to w_j.  At the foot
    Im z = 0 the limits are taken from above."""
    x = z.conjugate() if z.imag < 0.0 else z
    if x.imag == bp.x.imag:
        return bp.y.conjugate() if z.imag < 0.0 else bp.y
    m = s.bp.n
    # the right half (u > Re w_j) is the left side's inside A_j (j = m) and
    # the right side's outside
    half = right != (bp.n == m)
    y = germ = _refine(x, bp.y + (1.0 if half else -1.0) * cmath.sqrt(x - bp.x))
    # the germ of that half found A_j's root there: outside A_(j-1) and
    # inside A_(j+1) the cut point has no other
    if y is None or not (y.real > 0.0 and (y.real > bp.y.real) == half
            and _in_arc(y.real, abs(y.imag), _point(bp.n + 1)) is True
            and (bp.n == 1 or _in_arc(y.real, abs(y.imag), _point(bp.n - 1)) is False)):
        y = _place(x, s, not right)
        y = None if y is None else _refine(x, y)
        # a few ulps beside x_j the germ's root can stall on the other half,
        # and no root is placed: it stands within the final check's distance
        if y is None and germ is not None and (
                abs(germ - bp.y) <= math.sqrt(EPS) * (1.0 + abs(bp.y))):
            y = germ
        if y is None:
            raise NoConvergence(f"no root placed in the region of sheet {m} at {z!r}")
    # near x_j both halves nearly meet, and Halley stalls within ~sqrt(eps)
    # of the double root
    if (y.real > bp.y.real) != half and abs(y - bp.y) > math.sqrt(EPS) * (1.0 + abs(bp.y)):
        raise NoConvergence(f"limit at {z!r} on sheet {m} off its half of the cut's image")
    return y.conjugate() if z.imag < 0.0 else y


def _half_jump(z: complex) -> complex:
    """D1 at z = Re x_1 + iv, 0 <= v <= Im x_1, unchecked: half the
    right-minus-left jump of sheet 1's limits on its vertical cut."""
    s = _sheet(1)
    return 0.5 * (_vertical_limit(z, s, s.bp, True) - _vertical_limit(z, s, s.bp, False))


def boundary_value(point: complex, n: BranchIndex, side: Side,
                   atlas: SheetAtlas | None = None) -> complex:
    """One-sided limit of sheet n on a cut, at the foot of the point on
    the cut line (the point must lie within 1e-9 of the cut).

    Solved directly (module docstring): on a real segment i*p from above,
    p*tanh(p) = -Re point, and -i*p from below (negated on negative
    sheets); on a vertical cut the root polished to working precision on
    the half of the cut's image that the side rule gives the side, else
    NoConvergence.  At a branch point x_j itself, where the root is double,
    both limits are w_j (its conjugate below the axis; negated on negative
    sheets) exactly; close beside it, where the two roots nearly merge, a
    value is accurate to about the square root of working precision.

    `side` is a `Side` or its value ("upper", "lower", "left", "right"),
    taken as `Side(side)`: anything else raises ValueError before any solve.
    The point is converted with complex(), a real past float64's range to
    the +-inf it rounds to (`_number`), which no cut holds.
    """
    n = validate_branch(n)
    point = complex(_number(point))
    side = Side(side)
    _check_on_cut(point, n, side)
    if side in (Side.UPPER, Side.LOWER):
        y = (1j if side is Side.UPPER else -1j) * _tanh_root(-point.real)
    else:
        s = _sheet(abs(n))
        bp = min(s.near, key=lambda b: abs(b.x.real - point.real))
        foot = complex(bp.x.real, min(max(point.imag, -bp.x.imag), bp.x.imag))
        y = _vertical_limit(foot, s, bp, side is Side.RIGHT)
    return y if n > 0 else -y


def discontinuity_delta0(u: float, atlas: SheetAtlas | None = None) -> float:
    """Imaginary part of the upper boundary value on the sheet-1 real cut.

    Defined for Re x_1 <= u <= 0; equals (1/2i)[w(u+i0) - w(u-i0)] by
    reflection symmetry.  The value solves p*tanh(p) = -u for the purely
    imaginary boundary limit w = i*p.  u is taken as `_float` gives it.
    """
    a, u = _sheet(1).bp.x.real, _float(u)
    if not (a - 1e-12 <= u <= 0.0 + 1e-12):
        raise OutOfCutRange(f"u={u} outside the real cut [{a}, 0]")
    return _tanh_root(-u)


def discontinuity_delta1(v: float, atlas: SheetAtlas | None = None) -> complex:
    """Half the right-minus-left jump across the sheet-1 vertical cut at
    height v, 0 <= v <= Im x_1.  Vanishes like sqrt(Im x_1 - v) at the
    branch point where the two boundary values merge; at v = 0, the
    junction with the real cut, the limits are taken from above.  v is
    taken as `_float` gives it."""
    x1, v = _sheet(1).bp.x, _float(v)
    if not (-1e-12 <= v <= x1.imag + 1e-12):
        raise OutOfCutRange(f"v={v} outside [0, {x1.imag}]")
    return _half_jump(complex(x1.real, min(max(v, 0.0), x1.imag)))


# ---------------------------------------------------------------------------
# dispersion relation
# ---------------------------------------------------------------------------

# Quadrature layout of the dispersion reconstruction.  Both cut integrals
# are transformed so the integrand vanishes smoothly at the branch-point
# endpoints (u = -s^2 absorbs the sqrt(-u) behavior of D0 at the origin,
# v = b - t^2 the sqrt(b - v) vanishing of D1 at x_1), then integrated by
# composite Gauss-Legendre panels, each layout given as (panels, nodes per
# panel).  The discontinuity tables are computed once per atlas and reused
# for every z; the coarse layout provides the error estimate, which must
# not exceed DISPERSION_ABS_TOL.
DISPERSION_FINE = (6, 24)
DISPERSION_COARSE = (3, 16)
DISPERSION_ABS_TOL = 1e-6


def _delta_tables(atlas: SheetAtlas, panels: int, nodes: int):
    key = (panels, nodes)
    if key in atlas._disp_tables:
        return atlas._disp_tables[key]
    bp = _sheet(1).bp
    a, b = bp.x.real, bp.x.imag
    # real-cut table: nodes u = -s^2 (the s nodes ascend, so the u nodes
    # descend: 0- -> a), each D0 = p with p*tanh(p) = s^2
    s_nodes, s_wts = _panel_nodes(math.sqrt(-a), panels, nodes)
    us = [-s * s for s in s_nodes]
    d0 = [_tanh_root(s * s) for s in s_nodes]
    # vertical-cut table: nodes v = b - t^2 (descending: b- -> 0+), each
    # side's limit solved at its node
    t_nodes, t_wts = _panel_nodes(math.sqrt(b), panels, nodes)
    vs = [b - t * t for t in t_nodes]
    d1 = [_half_jump(complex(a, v)) for v in vs]
    tables = (us, [2.0 * s * w for s, w in zip(s_nodes, s_wts)], d0,
              vs, [2.0 * t * w for t, w in zip(t_nodes, t_wts)], d1)
    atlas._disp_tables[key] = tables
    return tables


def _assemble(z: complex, tables, a: float) -> complex:
    us, w0, d0, vs, w1, d1 = tables
    i0 = _ordered_sum(w * d / (u - z) for u, w, d in zip(us, w0, d0))
    i1 = _ordered_sum(w * (d / (a + 1j * v - z) + d.conjugate() / (a - 1j * v - z))
                      for v, w, d in zip(vs, w1, d1))
    return 0.5 * math.pi + (i0 - i1) / math.pi


def dispersion_eval(z: complex, atlas: SheetAtlas) -> complex:
    """Sheet-1 value at z rebuilt from the cut discontinuities alone.

    Matches `eval_complex(z, 1)` wherever z keeps a reasonable
    distance from the cuts (the integrals' kernels are Cauchy-type); the
    large-|z| limit is pi/2 since the integral terms decay like 1/z.

    Raises NonFiniteArgument if |z| is not finite, and QuadratureFailure
    when the fine/coarse quadrature disagreement exceeds DISPERSION_ABS_TOL.
    """
    z = _complex(z)[0]
    a = _sheet(1).bp.x.real
    fine = _assemble(z, _delta_tables(atlas, *DISPERSION_FINE), a)
    coarse = _assemble(z, _delta_tables(atlas, *DISPERSION_COARSE), a)
    if abs(fine - coarse) > DISPERSION_ABS_TOL:
        raise QuadratureFailure(
            f"dispersion quadrature error estimate {abs(fine - coarse):.3e} "
            f"exceeds {DISPERSION_ABS_TOL:g} at z={z!r}"
        )
    return fine
