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
below 0.46 here; a root is used only if Newton converged and q <= 1/2, and
then |y - y*| <= 2*|h(y)| certifies it where |h(y)| <= 4*eps*(1+|y|).

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
A_j lies on the level curve Re f(w) = a_j, f = w tan w, as the graph of
some v = phi_j(u) over [0, u_j*]: u + iv is inside A_j iff u < u_j* and
v < phi_j(u).  Left of Re w_j, phi_j(u) is the highest solution of
Re f(u + iv) = a_j, reached by Newton iteration in v (d/dv Re f = -Im f',
f' = tan w + w sec^2 w) from v = ln(4(j+1)pi)/2 + |a_j| + 1 above it;
above phi_j(u) Re f stays below a_j, so a point with Re f(w) > a_j, beyond
its rounding and |f'| times the root's error, is inside with one tan.
Right of Re w_j, where the curve's other branch through w_j lies above
the arc, the arc's u at height v < Im w_j is found by Newton iteration
in u from u_j*, and a point with v >= Im w_j is outside.  A point nearer
the arc than its root's own error, 8*eps*(1+|w|), plus the solve's
rounding over the slope (which grows like 1/|w - w_j|) is undecided.

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

Disk, r < EXTERIOR_FACTOR*|x_m|.  In the band Re x_m <= Re x <= 0 of the
cuts every guard runs.  Right of it (Re x > 0) the only guard is |x| <
CUT_GUARD on sheets +-1, the end of their real cut at the origin: every
other cut and branch point has Re <= Re x_1 ~ -1.65.  Left of it the
guards are the vertical cut at Re x_m, whose foot is the real cut's
nearest point, and x_m, x_(m-1) and their conjugates.  The cut at
Re x_(m-1) is at least the gap Re x_(m-1) - Re x_m ~ 0.5/m away (0.117 at
m = 4, 5e-4 at m = 1000): far beyond CUT_GUARD, but within
BRANCH_POINT_GUARD from m ~ 500 on, so x_(m-1) stays guarded.  For
Im x >= 0 (its conjugate otherwise) the value is the first root placed in
R_m of, in turn, the Newton roots of

    g(w) = w - k*pi - atan(x/w),   g'(w) = 1 + x/(w^2 + x^2),

for k = m left of Re x_m and k = m-1 otherwise, then for the other k (the
complex form of `eval_real`'s windows C + t: near x = 0 on sheet 1 the
exterior form loses relative accuracy, forming w ~ sqrt(x) as
c - atan(w/x), and this one does not), and the Halley roots from the germ
seeds w_j +- sqrt(2(x - x_j)/f''(w_j)) for j = m, m-1 (f'' = 2 sec^2 w
(1 + w tan w), w_0 = x_0 = 0), and last from -i*x, where tan w -> i as
Im w grows: the values in the band and beside its cut lines lie near it
on sheets past ~500 (0.8 of the way up at 600-1000, at every height at
10**6), where germ seeds' Halley iterates can overflow cos (a failed
seed).  The region, not |g'|, decides the sheet, so no floor on |g'| is
needed where it vanishes, at x_m, where the germs of sheets m and m+1
merge: the sheet-(m+1) root lies outside R_m, and a root near an arc maps
to a point near a cut or branch point, which the guards refuse.  The
region also turns away the mirror root -w on sheet 1 and, 0.1 to 1 left
of x_m, the values of sheets m+1..m+5, which solve the same form.

Where no root is placed, or the exterior root is refused, NoConvergence
is raised: no test or benchmark point reaches it, nor any of 24000 drawn
in the disks of 14 sheets from 2 to 10**8.  Past sheet 2**52, where
float64 no longer orders the branch points, a point in the disk raises
DomainViolation.  Only `trace_path` and `local_expansion_check`, which ask
about a path, continue: Halley corrects each step, and steps shrink with
the distance to the nearest branch point of any sheet, near which the two
local sheets differ by O(sqrt(distance)).  A cut only labels the sheet.

Boundary values.  On every sheet's real segment the limit from above is
i*p, p*tanh(p) = -u, p > 0: w(conj x, n) = conj w(x, n) and w(x, -n) =
-w(x, n) continue the limit w+ from above into -conj(w+), so w+ is
imaginary.  On the vertical cut at x_j a side's limit is the root on the
half of A_j the side rule gives it (right side: the left half on sheet j,
the right half on sheet j+1), by Halley iteration from that half's germ
seed, accepted outside A_(j-1) and inside A_(j+1), where the cut point has
no other root; else from the sheet's root SIDE_OFFSET off the cut, which
near x_j lies 45 degrees or more inside the wanted root's Halley basin.

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
    CutScheme,
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
    "eval_complex",
    "trace_path",
    "boundary_value",
    "discontinuity_delta0",
    "discontinuity_delta1",
    "dispersion_eval",
]

CUT_GUARD = 1e-10          # closer than this to a cut -> OnCut
BRANCH_POINT_GUARD = 1e-3  # eval_complex rejects targets this close to x_n
SIDE_OFFSET = 1e-4         # a vertical cut's limits are seeded by the roots this far off it
EXTERIOR_FACTOR = 1.2      # solved directly where |z| >= this times |x_|n||

# Continuation step policy.  Steps never exceed MAX_STEP, shrink by
# STEP_SHRINK whenever the Halley correction exceeds MAX_DY (or fails), and
# are additionally capped at BP_FACTOR times the distance to the nearest
# branch point, which is what prevents hopping onto the wrong local sheet
# near x_n.
MAX_STEP = 0.5
STEP_SHRINK = 0.5
MAX_DY = 0.2
MIN_STEP = 1e-9
BP_FACTOR = 0.5
_LAST_POINT = 2 ** 52   # past it float64 no longer keeps Im x_j rising with j
# Entries in each of an atlas's two caches, of x_j (~300 bytes each) and of
# sheet records (~3 kB): an atlas stays under ~3.5 MB however far and on
# however many sheets it continues.  A far step finds ~15 x_j near its path
# whatever the size (measured on 2000 far walks: 1024 entries recompute
# 2.8x the x_j an unbounded cache would, and take ~1.25x the time).
_CACHED = 1024


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

    def crossing(self, z0: complex, z1: complex) -> float | None:
        """Parameter t in [0, 1] where segment z0->z1 crosses the cut, else None.

        A point exactly on the cut line counts as lying on the positive
        side, so a step landing on the line registers the crossing on
        arrival and not again on a departure to the positive side.
        """
        if self.kind is CutKind.VERTICAL_SEGMENT:
            a = self.endpoints[0].real
            d0, d1 = z0.real - a, z1.real - a
            if (d0 >= 0.0) == (d1 >= 0.0):
                return None
            t = d0 / (d0 - d1)
            imc = z0.imag + t * (z1.imag - z0.imag)
            lo = min(self.endpoints[0].imag, self.endpoints[1].imag)
            hi = max(self.endpoints[0].imag, self.endpoints[1].imag)
            return t if lo <= imc <= hi else None
        d0, d1 = z0.imag, z1.imag
        if (d0 >= 0.0) == (d1 >= 0.0):
            return None
        t = d0 / (d0 - d1)
        rec = z0.real + t * (z1.real - z0.real)
        lo, hi = self.endpoints[0].real, self.endpoints[1].real
        return t if lo <= rec <= hi else None

    def distance(self, z: complex) -> float:
        """Euclidean distance from z to the cut segment."""
        if self.kind is CutKind.VERTICAL_SEGMENT:
            a = self.endpoints[0].real
            lo = min(self.endpoints[0].imag, self.endpoints[1].imag)
            hi = max(self.endpoints[0].imag, self.endpoints[1].imag)
            dy = 0.0 if lo <= z.imag <= hi else min(abs(z.imag - lo), abs(z.imag - hi))
            return math.hypot(z.real - a, dy)
        lo, hi = self.endpoints[0].real, self.endpoints[1].real
        dx = 0.0 if lo <= z.real <= hi else min(abs(z.real - lo), abs(z.real - hi))
        return math.hypot(dx, z.imag)


class _PathFields(NamedTuple):
    waypoints: tuple[complex, ...]


class ContinuationPath(_PathFields):
    """Waypoints for `trace_path`, each converted with complex()."""

    __slots__ = ()

    def __new__(cls, waypoints):
        waypoints = tuple(complex(z) for z in waypoints)
        if len(waypoints) < 2:
            raise ValueError("a path needs at least two waypoints")
        return super().__new__(cls, waypoints)

    @classmethod
    def _make(cls, iterable):   # _replace builds through it: check there too
        return cls(*iterable)


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------

class _Points(dict):
    """x_j by j (j >= 1), each found on first use; emptied when _CACHED are
    held (a plain dict lookup: `SheetAtlas._nearest` reads several a step)."""

    def __missing__(self, j: int) -> BranchPoint:
        if len(self) >= _CACHED:
            self.clear()
        bp = self[j] = find_branch_point(j)
        return bp


class _Sheet(NamedTuple):
    """What sheets +-m need of their branch points x_(m-1) and x_m."""

    bp: BranchPoint                 # x_m
    disk: float                     # |x_m|: every cut of the sheet lies within it
    lo: float                       # Re x_m, the band's left edge
    near: tuple[BranchPoint, ...]   # x_(m-1) (m > 1) and x_m, the guarded points
    germs: tuple                    # (w_j, x_j, f''(w_j)), j = m, m-1; j = 0: origin
    cuts: tuple                     # the cuts of sheet -m and of sheet m
    roots: tuple[float, ...]        # u_j* for each of near: A_j meets the real axis there


def _sheet_record(points: _Points, m: int) -> _Sheet:
    """The record of sheets +-m (m >= 1) from an atlas's points; the atlas's
    `_sheet` caches it."""
    bp = points[m]
    near = (points[m - 1], bp) if m > 1 else (bp,)
    germs = [(b.y, b.x, 2.0 * (1.0 + (b.x / b.y) ** 2) * (1.0 + b.x))
             for b in reversed(near)] + [(0j, 0j, 2.0)] * (m == 1)
    hi = near[0].x.real if m > 1 else 0.0
    # crossing x_j's vertical cut leads from sheet +-j to +-(j+1)
    cuts = tuple(
        (Cut(CutKind.REAL_SEGMENT, (complex(bp.x.real, 0.0), complex(hi, 0.0)), (n, -n)),
         *(Cut(CutKind.VERTICAL_SEGMENT, (b.conjugate_x, b.x),
               (n, n + s if b.n == m else n - s)) for b in near))
        for n, s in ((-m, -1), (m, 1)))
    return _Sheet(bp, abs(bp.x), bp.x.real, near, tuple(germs), cuts,
                  tuple(core.eval_real(b.x.real, b.n) for b in near))


class SheetAtlas:
    """Branch points and per-sheet cuts of every sheet.  x_j, and each
    sheet's cuts, germs, disk radius and band edges, are found on first use
    and cached, at most _CACHED of each kind; every cache fills
    idempotently, and no value depends on what an atlas has evaluated or
    found before.  The origin x = 0 (w = 0, index 0) is a branch point too,
    though no :class:`BranchPoint` record."""

    scheme = CutScheme.FINITE_CUTS

    def __init__(self):
        self.branch_points: list[BranchPoint] = []   # x_1..x_k of `build(k)`
        self._points = _Points()
        # no reference back to the atlas: a dropped atlas is freed at once
        self._sheet = functools.lru_cache(_CACHED)(
            functools.partial(_sheet_record, self._points))
        self._disp_tables: dict[tuple, tuple] = {}

    @classmethod
    def build(cls, sheets: int = 4) -> "SheetAtlas":
        """An atlas with x_1..x_sheets found up front, as `branch_points`."""
        atlas = cls()
        atlas.branch_points = [atlas._points[j] for j in range(1, sheets + 1)]
        return atlas

    # -- geometry ----------------------------------------------------------

    def cuts_for(self, n: BranchIndex) -> tuple[Cut, ...]:
        """The cuts of sheet n in the finite-cuts convention."""
        n = validate_branch(n)
        return self._sheet(abs(n)).cuts[n > 0]

    def nearest_branch_distance(self, z: complex) -> float:
        """Distance from z to the nearest branch point: 0, x_j or conj(x_j), j <= 2**52."""
        return self._nearest(z, 2.0 * _modulus(z))   # never binds: the origin is |z| away

    def _nearest(self, z: complex, limit: float) -> float:
        """min(limit, nearest_branch_distance(z)), bit for bit the minimum of
        |z - x| over every branch point x, z folded to Im >= 0.  As j rises
        Re x_j falls from Re x_1 and Im x_j rises by ~pi, so only x_j with
        Im x_j within the best distance of Im z can be nearer, and none if z
        lies that far right of x_1.  The run of such j, around Im x_j ~
        (j-1/4)*pi, is widened until its ends are that far below and above
        z and searched by halving; its ends are multiples of the largest
        power of two g <= k ~ best/pi, so nearby calls visit the same x_j."""
        p = z if z.imag >= 0.0 else z.conjugate()
        v = p.imag
        best = abs(p)
        if limit < best:
            best = limit
        x = self._points
        if p.real - x[1].x.real >= best:
            return best
        # plain comparisons, not min/max: this runs once per continuation step
        k = int(best / math.pi) + 1
        g = 1 << (k.bit_length() - 1)
        level = int(v / math.pi + 0.75)
        lo, hi = (level - k) // g * g, (level + k + g - 1) // g * g
        if hi > _LAST_POINT:
            hi = _LAST_POINT
        if lo > hi:
            lo = hi
        elif lo < 1:
            lo = 1
        while lo > 1 and v - x[lo].x.imag < best:
            lo = max(lo - g, 1)
        while hi < _LAST_POINT and x[hi].x.imag - v < best:
            hi = min(hi + g, _LAST_POINT)
        return self._nearest_in(p, lo, hi, best)

    def _nearest_in(self, p: complex, lo: int, hi: int, best: float) -> float:
        """min(best, |p - x_j|) over lo <= j <= hi.  Every such x_j lies in
        the box spanned by x_lo and x_hi: a long run's box no nearer than
        best is skipped, a nearer one halved, the half nearer p first."""
        x = self._points
        if hi - lo <= 8:
            for j in range(lo, hi + 1):
                d = abs(p - x[j].x)
                if d < best:
                    best = d
            return best
        a, b = x[lo].x, x[hi].x
        if abs(complex(max(b.real - p.real, p.real - a.real, 0.0),
                       max(a.imag - p.imag, p.imag - b.imag, 0.0))) >= best:
            return best
        mid = (lo + hi) // 2
        halves = ((lo, mid), (mid + 1, hi))
        for j, k in halves[::-1] if p.imag > x[mid].x.imag else halves:
            best = self._nearest_in(p, j, k, best)
        return best

    def distance_to_cuts(self, z: complex, n: BranchIndex) -> float:
        return min(c.distance(z) for c in self.cuts_for(n))

    def _guard(self, z: complex, s: _Sheet, cut_distance: float) -> None:
        """OnCut if a cut of sheet s lies cut_distance < CUT_GUARD from z,
        or x_(m-1), x_m or a conjugate within BRANCH_POINT_GUARD of it."""
        if cut_distance < CUT_GUARD:
            raise OnCut(f"z={z!r} lies on a cut of sheet +-{s.bp.n}")
        for bp in s.near:
            if min(abs(z - bp.x), abs(z - bp.conjugate_x)) < BRANCH_POINT_GUARD:
                raise OnCut(f"z={z!r} is within {BRANCH_POINT_GUARD:g} of branch point "
                            f"x_{bp.n}; too close for direct evaluation")

    # -- evaluation --------------------------------------------------------

    def continue_from_anchor(self, z: complex, n: BranchIndex) -> complex:
        """Value of sheet n at z by the routes of `eval_complex`, with no
        guards: on a real cut it gives the limit from above, on a vertical
        one the side rule's limit from the right, and near a branch point
        any root placed in the region.

        Raises NonFiniteArgument if |z| is not finite, including finite
        parts whose modulus overflows, and NoConvergence where no root is
        found: the exterior root refused, or no root placed in the disk.
        """
        n = validate_branch(n)
        z = complex(z)
        y = self._solve(z, abs(n), _modulus(z), False)[0]
        return y if n > 0 else -y

    def _solve(self, z: complex, m: int, r: float,
               guarded: bool) -> tuple[complex, bool]:
        """Sheet-m (m > 0) value at z, r = |z|, and whether the exterior
        certificate holds for it: the exterior root, or inside the disk
        `_disk_root`, else NoConvergence; `guarded` runs the guards z can
        trip, and only those (module docstring)."""
        s = self._sheet(m)
        c = (m - 0.5) * math.pi
        if r >= EXTERIOR_FACTOR * s.disk:
            y = _exterior_root(z, c)
            if y is None:
                raise NoConvergence(f"exterior root refused at z={z!r} on sheet {m}")
            h, d = _atan_form(z, c, y)
            return y, abs(d) <= 0.5 and abs(h) <= 4.0 * EPS * (1.0 + abs(y))
        if m > _LAST_POINT:
            raise DomainViolation(f"z={z!r} lies inside the cut disk of sheet {m}, past 2**52: "
                                  "float64 no longer orders the branch points there")
        if guarded:
            if s.lo <= z.real <= 0.0:
                self._guard(z, s, self.distance_to_cuts(z, m))
            elif z.real < s.lo:
                self._guard(z, s, s.cuts[1][-1].distance(z))
            elif m == 1 and r < CUT_GUARD:
                raise OnCut(f"z={z!r} lies on a cut of sheet +-1")
        y = self._disk_root(z, m)
        if y is None:
            raise NoConvergence(f"no root placed in the region of sheet {m} at z={z!r}")
        return y, False

    def _disk_root(self, z: complex, m: int) -> complex | None:
        """The first root placed in R_m, for Im z >= 0 and reflected back:
        the window-form roots, then the Halley roots of the germ seeds and
        of -i*z (module docstring); None if none is placed."""
        x = z.conjugate() if z.imag < 0.0 else z
        s = self._sheet(m)
        first = m if x.real < s.lo else m - 1
        for k in (first, 2 * m - 1 - first):
            found = _window_newton(x, m, k)
            if found is not None and self._in_region(found[0], m, x):
                return found[0].conjugate() if z.imag < 0.0 else found[0]
        for seed in [w + e * cmath.sqrt(2.0 * (x - xj) / f2) for w, xj, f2 in s.germs
                     for e in (1.0, -1.0)] + [-1j * x]:
            try:
                y = _refine(x, seed)
            except (PoleProximity, NoConvergence, OverflowError):   # cos overflows
                continue
            if self._in_region(y, m, x):
                return y.conjugate() if z.imag < 0.0 else y
        return None

    # -- sheet regions -----------------------------------------------------

    def _in_region(self, w: complex, m: int, z: complex) -> bool:
        """True if w, or its conjugate, lies in R_m: then w is the sheet-m
        value at z = w*tan(w).  Within the uncertainty of an arc the side
        of the cut that z lies on decides (module docstring); on the edge
        u = 0, the image of the real cut, only the limit from above lies."""
        u, v = w.real, abs(w.imag)
        s = self._sheet(m)
        return ((u > 0.0 or (u == 0.0 and w.imag > 0.0))
                and _inside(u, v, z.real, s.near[-1], s.roots[-1])
                and (m == 1 or not _inside(u, v, z.real, s.near[0], s.roots[0])))


# ---------------------------------------------------------------------------
# low-level continuation
# ---------------------------------------------------------------------------

def _modulus(z: complex) -> float:
    """|z|, raising NonFiniteArgument where it is not finite (abs() raises a
    bare OverflowError when finite parts give a modulus above 1.8e308)."""
    r = math.hypot(z.real, z.imag)
    if not math.isfinite(r):
        raise NonFiniteArgument(f"z must have a finite modulus, got {z!r}")
    return r


def _atan_form(x: complex, c: float, w: complex) -> tuple[complex, complex]:
    """h(w) = w - c + atan(w/x) and h'(w) - 1 = 1/(x + w*(w/x))."""
    u = w / x
    return w - c + cmath.atan(u), 1.0 / (x + w * u)


def _window_form(x: complex, k_pi: float, w: complex) -> tuple[complex, complex]:
    """g(w) = w - k*pi - atan(x/w) and g'(w) - 1 = x/(w^2 + x^2)."""
    return w - k_pi - cmath.atan(x / w), x / (w * w + x * x)


def _newton(form: Callable[[complex], tuple[complex, complex]],
            w: complex) -> tuple[complex, complex] | None:
    """Newton iteration from w on an atan form f, where form(w) gives
    (f(w), f'(w) - 1).  Returns the root and f' - 1 at the last iterate, or
    None if the steps did not fall below 2*eps*|w| within 16 iterations
    (measured: at most 5 on the exterior form, and 6 on the window form
    beyond 0.25 of x_n) or an iterate hit a singularity of the form (atan
    at +-i, w = 0, a vanishing denominator).

    The bound is relative: an absolute one passes a tiny iterate far from
    any root, where f' is huge (x = 1.2e-38 on sheet 2 gave 9.7e-37 for
    pi)."""
    try:
        for _ in range(16):
            f, d = form(w)
            step = f / (1.0 + d)
            w -= step
            if abs(step) <= 2.0 * EPS * abs(w):
                return w, d
    except (ZeroDivisionError, ValueError):
        pass
    return None


def _exterior_root(x: complex, c: float) -> complex | None:
    """Newton root of h(w) = w - c + atan(w/x) from the overflow-safe seed
    c/(1 + 1/x), or None unless it converged with contraction |h' - 1| <= 1/2."""
    found = _newton(lambda w: _atan_form(x, c, w), c / (1.0 + 1.0 / x))
    return found[0] if found is not None and abs(found[1]) <= 0.5 else None


def _window_newton(x: complex, n: int, k: int) -> tuple[complex, complex] | None:
    """`_newton` on the window form g(w) = w - k*pi - atan(x/w) from the
    sheet-n (n > 0) seed c/(1 + 1/x), c = (n-1/2)*pi, or for k = 0, where
    w ~ sqrt(x) near the origin, from c*sqrt(x/(x + c^2)), the root with
    tan(w) replaced by w/(1 - (w/c)^2): <= 5 Newton steps for |x| in
    [3e-10, 3.2] where c/(1 + 1/x) ~ c*x takes up to 21.  For k >= 1 at
    x = 0, or where c/(1 + 1/x) ~ c*x squares to 0 (|x| below ~1e-163) and
    g' - 1 = x/(w^2 + x^2) would divide by 0, the seed is k*pi + x/(k*pi),
    the root to rounding there."""
    c = (n - 0.5) * math.pi
    k_pi = k * math.pi
    try:
        seed = c * cmath.sqrt(x / (x + c * c)) if k == 0 else c / (1.0 + 1.0 / x)
    except ZeroDivisionError:   # x = -1 or -c^2, inside the band, or x = 0
        if x:
            return None
        seed = 0j
    if k and seed * seed == 0:
        seed = k_pi + x / k_pi
    return _newton(lambda w: _window_form(x, k_pi, w), seed)


def _in_arc(u: float, v: float, bp: BranchPoint, root: float) -> bool | None:
    """Whether u + iv (u > 0, v >= 0) lies inside A_j, j = bp.n, closed by
    the axes (module docstring; root is u_j*), or None where it lies within
    8*eps*(1 + |w|), a root's own error, plus the solve's uncertainty."""
    a, top = bp.x.real, bp.y
    tol = 8.0 * EPS * (1.0 + math.hypot(u, v))
    if u <= top.real:
        # above phi_j(u) Re f < a for good, so Re f(w) > a, beyond its
        # rounding and |f'| times w's error, puts w inside with one tan
        w = complex(u, v)
        t = cmath.tan(w)
        if (u * t.real - v * t.imag - a > 4.0 * EPS * (abs(w) * abs(t) + abs(a))
                + abs(t + w * (1.0 + t * t)) * tol):
            return True
        start = 0.5 * math.log(4.0 * (bp.n + 1) * math.pi) - a + 1.0
        at, found = v, _level(complex(u, 0.0), 1j, start, a, v, tol)
    elif u < root + tol and v < top.imag:
        at, found = u, _level(complex(0.0, v), 1.0, root, a, u, tol)
    else:
        return False if u >= root + tol or v >= top.imag + tol else None
    if found is None or abs(at - found[0]) <= tol + found[1]:
        return None
    return bool(at < found[0])   # a numpy float's comparison gives no bool


def _inside(u: float, v: float, x_re: float, bp: BranchPoint, root: float) -> bool:
    """Whether u + iv, a root at a point of real part x_re, lies inside
    A_j, j = bp.n: `_in_arc`'s answer, or where it has none the side rule
    (module docstring)."""
    inside = _in_arc(u, v, bp, root)
    if inside is None:
        return (x_re < bp.x.real) == (u > bp.y.real)
    return inside


def _level(p: complex, d: complex, t: float, a: float,
           at: float, tol: float) -> tuple[float, float] | None:
    """Newton in t on Re f(p + d*t) = a, f = w*tan(w), d = 1 or 1j, from t:
    the root and its uncertainty, the last step plus the rounding of t and
    of Re f over the slope Re(d*f'), f' = tan(w) + w*sec^2(w); None unless
    a step falls within that in 32 iterations.  It returns early once `at`
    lies 4 steps plus tol from the iterate after a step at most half the
    one before: the steps then shrink at least geometrically (by 1/2 even
    at a double root), so the root lies within one step of the iterate."""
    last = 0.0
    try:
        for _ in range(32):
            w = p + d * t
            tw = cmath.tan(w)
            re, im = w.real * tw.real, w.imag * tw.imag
            slope = (d * (tw + w * (1.0 + tw * tw))).real
            step = (re - im - a) / slope
            t -= step
            size = abs(step)
            cond = 4.0 * EPS * ((abs(re) + abs(im) + abs(a)) / abs(slope) + abs(t))
            if size <= cond or (size <= 0.5 * last and abs(at - t) > 4.0 * size + cond + tol):
                return t, size + cond
            last = size
    except (ZeroDivisionError, ValueError):
        pass
    return None


def _refine(x: complex, y: complex) -> complex:
    """Polish y toward the root of w*tan(w) = x by Halley iteration."""
    for _ in range(16):
        y_new = halley_step(x, y)
        if abs(y_new - y) <= 1e-15 * (1.0 + abs(y_new)):
            return y_new
        y = y_new
    if defining_residual(x, y) <= core.TOL * (1.0 + abs(x)):
        return y
    raise NoConvergence(f"Halley polish stalled at x={x!r}")


def _predict(z: complex, y: complex, dz: complex) -> complex:
    """Euler predictor using dw/dx = w/(x + x^2 + w^2); identity near x_n."""
    q = y * y + z * z + z
    if abs(q) < 1e-12:
        return y
    return y + y / q * dz


def _walk_segment(z0: complex, y0: complex, z1: complex, atlas: SheetAtlas,
                  h_base: float | None = None,
                  step_filter: Callable[[complex, complex], bool] | None = None,
                  on_step: Callable[[complex, complex, complex], None] | None = None,
                  ) -> complex:
    """Continue (z0, y0) to z1 with adaptive steps; returns the value at z1.

    `step_filter` may veto a proposed sub-step (forcing it to shrink);
    `on_step` observes each accepted sub-step.  Raises StepTooLarge when the
    step would have to fall below MIN_STEP.
    """
    z, y = z0, y0
    h_cap = h_base if h_base is not None else MAX_STEP
    while z != z1:
        rem = z1 - z
        # only a distance below h_cap/BP_FACTOR can shorten the step
        dist = atlas._nearest(z, h_cap / BP_FACTOR)
        allowed = min(h_cap, BP_FACTOR * dist if dist > 0.0 else MIN_STEP)
        take = min(abs(rem), max(allowed, MIN_STEP))
        while True:
            z_new = z1 if take >= abs(rem) else z + rem / abs(rem) * take
            ok = step_filter is None or step_filter(z, z_new)
            if ok:
                try:
                    y_new = _refine(z_new, _predict(z, y, z_new - z))
                    ok = abs(y_new - y) <= MAX_DY
                except (PoleProximity, NoConvergence):
                    ok = False
            if ok:
                break
            take *= STEP_SHRINK
            if take < MIN_STEP:
                raise StepTooLarge(
                    f"continuation step fell below {MIN_STEP:g} near z={z!r}"
                )
        if on_step is not None:
            on_step(z, z_new, y_new)
        z, y = z_new, y_new
    return y


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def eval_complex(z: complex, n: BranchIndex, atlas: SheetAtlas) -> BranchedValue:
    """Sheet-n value at z in the finite-cuts convention.

    The route is picked once, from |z|, and only the guards z can trip
    run (module docstring).  From |z| = EXTERIOR_FACTOR*|x_|n|| on
    w = c - atan(w/z) is solved directly, with no guard.  Inside that disk,
    on every sheet up to 2**52, the value is the first window-form or germ
    root that the sheet's w-plane region R_|n| holds; within the
    uncertainty of a boundary arc the side of the cut that z lies on
    decides.  Nothing is continued.

    The value is accepted if either

    * it took the exterior route, q = |1/(z + w^2/z)| <= 1/2 at y and
      |h(y)| = |y - c + atan(y/z)| <= 4*eps*(1+|y|) (sheet |n|), which
      puts y within 8*eps*(1+|y|) of the root, or
    * the residual |y*tan(y) - z| is at most TOL*(1+|z|) or, near the tan
      pole, the conditioning floor 4*eps*|d(y tan y)/dy|*(1+|y|).

    `BranchedValue.residual` is |y*tan(y) - z| on every route.  For |z|
    beyond ~1e16 tan(y) no longer resolves the root, so there it reports
    float64's limit, not an error in y; the first test is what certifies
    such values.

    Raises
    ------
    OnCut
        If z lies within 1e-10 of a cut of sheet n, or within 1e-3 of one of
        the sheet's branch points (where the sheets' roots merge; use
        `boundary_value` / `trace_path` for on-cut and near-point work).
    DomainViolation
        If |n| > 2**52 and z lies inside the disk, where float64 no longer
        orders the branch points.
    NoConvergence
        If no root is found or accepted: no point of the tests or of the
        benchmark reaches it.
    """
    n = validate_branch(n)
    z = complex(z)
    r = _modulus(z)
    y, certified = atlas._solve(z, abs(n), r, True)
    if n < 0:
        y = -y
    t = cmath.tan(y)
    res = abs(y * t - z)
    if not certified:
        # near the tan pole (large real z on low sheets) the map y -> y*tan(y)
        # is so steep that a half-ulp of y already produces a large residual;
        # accept down to that conditioning floor, |d(y tan y)/dy| * ulp
        steepness = abs(y * (1.0 + t * t) + t)
        floor = 4.0 * EPS * steepness * (1.0 + abs(y))
        if res > max(core.TOL * (1.0 + abs(z)), floor):
            raise NoConvergence(f"residual {res:.3e} above tolerance at z={z!r}")
    return BranchedValue(x=z, y=y, branch=n, scheme=atlas.scheme, residual=res)


def trace_path(path: ContinuationPath, start_sheet: BranchIndex,
               atlas: SheetAtlas) -> list[tuple[complex, complex, BranchIndex]]:
    """Continue along a waypoint path, reporting sheet-label transitions.

    The continued value is a single analytic germ; the sheet label flips
    whenever a sub-step crosses a cut of the current sheet, following the
    cut's `connects` pair.  Returns the accepted steps as
    (point, value, sheet) records, starting with the initial point.
    Raises NonFiniteArgument if a waypoint's modulus is not finite.
    """
    start_sheet = validate_branch(start_sheet)
    for point in path.waypoints:
        _modulus(point)
    z0 = path.waypoints[0]
    y0 = atlas.continue_from_anchor(z0, start_sheet)
    records = [(z0, y0, start_sheet)]
    state = {"sheet": start_sheet}

    def crossings(za: complex, zb: complex) -> list[Cut]:
        return [c for c in atlas.cuts_for(state["sheet"]) if c.crossing(za, zb) is not None]

    def step_filter(za: complex, zb: complex) -> bool:
        return len(crossings(za, zb)) <= 1

    def on_step(za: complex, zb: complex, yb: complex) -> None:
        hits = crossings(za, zb)
        if hits:
            a, b = hits[0].connects
            state["sheet"] = b if state["sheet"] == a else a
        records.append((zb, yb, state["sheet"]))

    z, y = z0, y0
    for target in path.waypoints[1:]:
        y = _walk_segment(z, y, target, atlas,
                          step_filter=step_filter, on_step=on_step)
        z = target
    return records


def _check_on_cut(point: complex, n: BranchIndex, atlas: SheetAtlas,
                  side: Side) -> None:
    """NotOnCut unless a cut of sheet n lies within 1e-9 of the point, and
    ValueError unless one of them is of the side's kind (UPPER/LOWER: the
    real segment, LEFT/RIGHT: a vertical one): near the junction of the two
    a point can sit on both, and the side picks one."""
    kinds = {cut.kind for cut in atlas.cuts_for(n) if cut.distance(point) <= 1e-9}
    if not kinds:
        raise NotOnCut(f"{point!r} is not on a cut of sheet {n}")
    wanted = (CutKind.REAL_SEGMENT if side in (Side.UPPER, Side.LOWER)
              else CutKind.VERTICAL_SEGMENT)
    if wanted not in kinds:
        raise ValueError(f"side {side.value} does not apply to the cut kind at {point!r}")


def _tanh_root(s: float) -> float:
    """p >= 0 with p*tanh(p) = s (s >= 0), by Newton iteration from
    sqrt(s + s^2/3), the root to O(s^3) as s -> 0: at most 5 steps for s up
    to 40 (200000 draws), past |Re x_j| for every j <= 2**52 (19.7)."""
    if s <= 0.0:
        return 0.0
    p = math.sqrt(s * (1.0 + s / 3.0))
    for _ in range(16):
        t = math.tanh(p)
        step = (p * t - s) / (t + p * (1.0 - t * t))
        p -= step
        if abs(step) <= 2.0 * EPS * p:
            return p
    raise NoConvergence(f"p*tanh(p) = {s!r} did not converge")


def _vertical_limit(atlas: SheetAtlas, z: complex, m: int, bp: BranchPoint,
                    right: bool) -> complex:
    """Sheet-m (m > 0) limit at z on the vertical cut at x_j = bp.x from
    its right (else left) side (module docstring); at the foot Im z = 0
    the limits are taken from above."""
    x = z.conjugate() if z.imag < 0.0 else z
    # the right half (u > Re w_j) is the left side's inside A_j (j = m) and
    # the right side's outside
    half = right != (bp.n == m)
    inner, outer = atlas._sheet(bp.n), atlas._sheet(bp.n + 1)
    try:
        y = _refine(x, bp.y + (1.0 if half else -1.0) * cmath.sqrt(x - bp.x))
    except (PoleProximity, NoConvergence, OverflowError):
        y = -1.0   # no root: fails the test below
    # the germ of that half found A_j's root there: outside A_(j-1) and
    # inside A_(j+1) the cut point has no other
    if not (y.real > 0.0 and (y.real > bp.y.real) == half
            and _in_arc(y.real, abs(y.imag), outer.bp, outer.roots[-1]) is True
            and (bp.n == 1 or _in_arc(y.real, abs(y.imag), inner.near[0],
                                      inner.roots[0]) is False)):
        off = x + complex(SIDE_OFFSET if right else -SIDE_OFFSET, 0.0 if x.imag else SIDE_OFFSET)
        y = _refine(x, atlas._solve(off, m, abs(off), False)[0])
    # at x_j both halves meet, and Halley stalls within ~sqrt(eps) of the
    # double root
    if (y.real > bp.y.real) != half and abs(y - bp.y) > math.sqrt(EPS) * (1.0 + abs(bp.y)):
        raise NoConvergence(f"limit at {z!r} on sheet {m} off its half of the cut's image")
    return y.conjugate() if z.imag < 0.0 else y


def boundary_value(point: complex, n: BranchIndex, side: Side,
                   atlas: SheetAtlas) -> complex:
    """One-sided limit of sheet n on a cut, at the foot of the point on
    the cut line (the point must lie within 1e-9 of the cut).

    Solved directly (module docstring): on a real segment i*p from above,
    p*tanh(p) = -Re point, and -i*p from below (negated on negative
    sheets); on a vertical cut the root polished to working precision on
    the half of the cut's image that the side rule gives the side, else
    NoConvergence.  At a branch point, where the root is double, it is
    accurate to about the square root of that.
    """
    n = validate_branch(n)
    point = complex(point)
    _check_on_cut(point, n, atlas, side)
    if side in (Side.UPPER, Side.LOWER):
        y = (1j if side is Side.UPPER else -1j) * _tanh_root(-point.real)
    else:
        m = abs(n)
        bp = min(atlas._sheet(m).near, key=lambda b: abs(b.x.real - point.real))
        foot = complex(bp.x.real, min(max(point.imag, -bp.x.imag), bp.x.imag))
        y = _vertical_limit(atlas, foot, m, bp, side is Side.RIGHT)
    return y if n > 0 else -y


def discontinuity_delta0(u: float, atlas: SheetAtlas) -> float:
    """Imaginary part of the upper boundary value on the sheet-1 real cut.

    Defined for Re x_1 <= u <= 0; equals (1/2i)[w(u+i0) - w(u-i0)] by
    reflection symmetry.  The value solves p*tanh(p) = -u for the purely
    imaginary boundary limit w = i*p.
    """
    a = atlas._sheet(1).bp.x.real
    if not (a - 1e-12 <= u <= 0.0 + 1e-12):
        raise OutOfCutRange(f"u={u} outside the real cut [{a}, 0]")
    return boundary_value(complex(u, 0.0), 1, Side.UPPER, atlas).imag


def discontinuity_delta1(v: float, atlas: SheetAtlas) -> complex:
    """Half the right-minus-left jump across the sheet-1 vertical cut at
    height v, 0 <= v <= Im x_1.  Vanishes like sqrt(Im x_1 - v) at the
    branch point where the two boundary values merge; at v = 0, the
    junction with the real cut, the limits are taken from above."""
    bp = atlas._sheet(1).bp
    a, b = bp.x.real, bp.x.imag
    if not (-1e-12 <= v <= b + 1e-12):
        raise OutOfCutRange(f"v={v} outside [0, {b}]")
    point = complex(a, min(max(v, 0.0), b))
    right = boundary_value(point, 1, Side.RIGHT, atlas)
    left = boundary_value(point, 1, Side.LEFT, atlas)
    return 0.5 * (right - left)


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
    bp = atlas._sheet(1).bp
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
    d1 = [0.5 * (_vertical_limit(atlas, complex(a, v), 1, bp, True)
                 - _vertical_limit(atlas, complex(a, v), 1, bp, False)) for v in vs]
    tables = (us, [2.0 * s * w for s, w in zip(s_nodes, s_wts)], d0,
              vs, [2.0 * t * w for t, w in zip(t_nodes, t_wts)], d1)
    atlas._disp_tables[key] = tables
    return tables


def _assemble(z: complex, tables, a: float) -> complex:
    us, w0, d0, vs, w1, d1 = tables
    i0 = sum(w * d / (u - z) for u, w, d in zip(us, w0, d0))
    i1 = sum(w * (d / (a + 1j * v - z) + d.conjugate() / (a - 1j * v - z))
             for v, w, d in zip(vs, w1, d1))
    return 0.5 * math.pi + (i0 - i1) / math.pi


def dispersion_eval(z: complex, atlas: SheetAtlas) -> complex:
    """Sheet-1 value at z rebuilt from the cut discontinuities alone.

    Matches `eval_complex(z, 1, atlas)` wherever z keeps a reasonable
    distance from the cuts (the integrals' kernels are Cauchy-type); the
    large-|z| limit is pi/2 since the integral terms decay like 1/z.

    Raises QuadratureFailure when the fine/coarse quadrature disagreement
    exceeds DISPERSION_ABS_TOL.
    """
    z = complex(z)
    a = atlas._sheet(1).bp.x.real
    fine = _assemble(z, _delta_tables(atlas, *DISPERSION_FINE), a)
    coarse = _assemble(z, _delta_tables(atlas, *DISPERSION_COARSE), a)
    if abs(fine - coarse) > DISPERSION_ABS_TOL:
        raise QuadratureFailure(
            f"dispersion quadrature error estimate {abs(fine - coarse):.3e} "
            f"exceeds {DISPERSION_ABS_TOL:g} at z={z!r}"
        )
    return fine
