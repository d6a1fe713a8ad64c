import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest

from wtan import complex_plane
from wtan.complex_plane import (
    EXTERIOR_FACTOR,
    ContinuationPath,
    Cut,
    CutKind,
    SheetAtlas,
    Side,
    boundary_value,
    continue_from_anchor,
    cuts_for,
    discontinuity_delta0,
    discontinuity_delta1,
    dispersion_eval,
    distance_to_cuts,
    eval_complex,
    trace_path,
    _exterior_root,
    _holds,
    _place,
    _predict,
    _refine,
    _sheet,
    _walk_segment,
)
import wtan
from wtan.branch_points import find_branch_point, local_expansion_check
from wtan.core import _gauss_legendre, _panel_nodes, defining_residual, eval_real
from wtan.errors import (
    DomainViolation,
    NoConvergence,
    NonFiniteArgument,
    NotOnCut,
    OnCut,
    OutOfCutRange,
    PoleProximity,
    QuadratureFailure,
    StepTooLarge,
    WtanError,
)
from wtan.series import eval_series, large_x_coeffs

from conftest import imaginary_boundary_oracle, w_real_oracle

CLOSURE_POINTS = [5 + 0j, 2 + 2j, -3 + 2j, 10 - 4j, 1.2 + 0.8j, -0.5 - 3j,
                  -4 + 1j, 7 + 7j, 3 - 0.9j, 18 + 2j]


def _within_eval_complex_bound(z, y):
    """The residual acceptance rule of eval_complex: residual below
    TOL*(1+|z|) or below the conditioning floor 4*ulp*|d(y tan y)/dy|*(1+|y|)."""
    t = cmath.tan(y)
    floor = 4.0 * 2.220446049250313e-16 * abs(y * (1.0 + t * t) + t) * (1.0 + abs(y))
    return abs(y * t - z) <= max(1e-13 * (1.0 + abs(z)), floor)


# The three forms `complex_plane._newton` solves, as separate callables, and
# the loop that drove them: the reference its inline forms must match.
def _atan_form(x, c, w):
    """h(w) = w - c + atan(w/x) and h'(w) = 1 + 1/(x + w*(w/x))."""
    u = w / x
    return w - c + cmath.atan(u), 1.0 + 1.0 / (x + w * u)


def _window_form(x, k_pi, w):
    """g(w) = w - k*pi - atan(x/w) and g'(w) = 1 + x/(w^2 + x^2)."""
    return w - k_pi - cmath.atan(x / w), 1.0 + x / (w * w + x * x)


def _tanh_form(s, _, p):
    """p*tanh(p) - s and its derivative tanh(p) + p*sech^2(p)."""
    t = math.tanh(p)
    return p * t - s, t + p * (1.0 - t * t)


def _callable_newton(form, x, k, w):
    """Newton iteration from w on form(x, k, w) = (f(w), f'(w)): the root
    and f' at the last iterate evaluated, or None."""
    try:
        for _ in range(16):
            f, d = form(x, k, w)
            step = f / d
            w -= step
            if abs(step) <= 2.0 * complex_plane.EPS * abs(w):
                return w, d
    except (ZeroDivisionError, ValueError):
        pass
    return None


class TestAtlasGeometry:
    def test_first_sheet_cuts(self, atlas):
        cuts = cuts_for(1)
        kinds = sorted(c.kind.value for c in cuts)
        assert kinds == ["real", "vertical"]
        real = next(c for c in cuts if c.kind is CutKind.REAL_SEGMENT)
        x1 = atlas.branch_points[0].x
        assert real.endpoints[0] == pytest.approx(complex(x1.real, 0.0))
        assert real.endpoints[1] == 0j
        assert real.connects == (1, -1)
        vert = next(c for c in cuts if c.kind is CutKind.VERTICAL_SEGMENT)
        assert vert.endpoints == (x1.conjugate(), x1)
        assert vert.connects == (1, 2)

    def test_higher_sheet_cuts(self, atlas):
        cuts = cuts_for(3)
        verts = [c for c in cuts if c.kind is CutKind.VERTICAL_SEGMENT]
        real = [c for c in cuts if c.kind is CutKind.REAL_SEGMENT][0]
        assert len(verts) == 2
        x2, x3 = atlas.branch_points[1].x, atlas.branch_points[2].x
        assert {v.endpoints[1] for v in verts} == {x2, x3}
        assert real.endpoints[0].real == pytest.approx(x3.real)
        assert real.endpoints[1].real == pytest.approx(x2.real)
        # connectivity: (x_2, x_2*) joins 3 to 2; (x_3, x_3*) joins 3 to 4
        by_point = {v.endpoints[1]: v.connects for v in verts}
        assert by_point[x2] == (3, 2)
        assert by_point[x3] == (3, 4)

    def test_negative_sheet_connectivity(self, atlas):
        cuts = cuts_for(-2)
        verts = {v.endpoints[1]: v.connects
                 for v in cuts if v.kind is CutKind.VERTICAL_SEGMENT}
        x1, x2 = atlas.branch_points[0].x, atlas.branch_points[1].x
        assert verts[x1] == (-2, -1)
        assert verts[x2] == (-2, -3)

    def test_cut_bounds_within_modulus(self, atlas):
        # every cut of sheet n obeys |x| <= |x_n| and the real-part window
        for n in (1, 2, 3, 4):
            xn = atlas.branch_points[n - 1].x
            xprev_re = atlas.branch_points[n - 2].x.real if n >= 2 else 0.0
            for cut in cuts_for(n):
                for p in cut.endpoints:
                    assert abs(p) <= abs(xn) + 1e-12
                    assert xn.real - 1e-12 <= p.real <= xprev_re + 1e-12

    def test_sheet_limits_tables(self, atlas):
        for n in (1, 2, -1, -3):
            sgn = 1 if n > 0 else -1
            # the real-axis solver reproduces the 0+ limit sgn(n)(|n|-1)pi
            assert abs(eval_real(1e-12, n) - sgn * (abs(n) - 1) * math.pi) < 1e-6
            # infinity is a regular point with value sgn(n)(|n|-1/2)pi
            for z in (1e12 + 0j, 1e12j, cmath.rect(1e12, -2.5)):
                y = eval_complex(z, n, atlas).y
                assert abs(y - sgn * (abs(n) - 0.5) * math.pi) < 1e-6, (z, n)


class TestEvalComplex:
    def test_large_real_argument_matches_series(self, atlas):
        table = large_x_coeffs(30)
        bv = eval_complex(1e6 + 0j, 1, atlas)
        assert abs(bv.y - eval_series(1e6, table).value) < 1e-12

    def test_real_axis_consistency(self, atlas):
        for n in (1, 2, 3, 4, -1, -2, -3, -4):
            for x in (0.4, 3.3, 27.0):
                bv = eval_complex(complex(x, 0.0), n, atlas)
                assert abs(bv.y - eval_real(x, n)) < 1e-12

    def test_near_axis_point(self, atlas):
        # off-axis approach to x = 2 reproduces the real value 1.0769
        bv = eval_complex(2 + 1e-9j, 1, atlas)
        assert bv.y.real == pytest.approx(w_real_oracle(2.0, 1), abs=1e-6)
        assert bv.y.real == pytest.approx(1.0769, abs=1e-4)

    def test_purely_imaginary_boundary_limit(self, atlas):
        bv = eval_complex(-1 + 1e-6j, 1, atlas)
        p = imaginary_boundary_oracle(-1.0)
        assert p == pytest.approx(1.19968, abs=1e-5)
        assert bv.y.imag == pytest.approx(p, abs=1e-5)
        assert abs(bv.y.real) < 1e-5

    def test_reflection_symmetry(self, atlas):
        rng = np.random.default_rng(31)
        count = 0
        while count < 100:
            z = complex(rng.uniform(-8, 8), rng.uniform(0.05, 6))
            n = int(rng.integers(1, 4))
            try:
                up = eval_complex(z, n, atlas).y
                dn = eval_complex(z.conjugate(), n, atlas).y
            except OnCut:
                continue
            assert abs(dn - up.conjugate()) < 1e-10
            count += 1

    def test_odd_symmetry_across_sheets(self, atlas):
        for z in (2 + 2j, -3 + 1.5j, 0.5 - 4j):
            for n in (1, 2, 3):
                plus = eval_complex(z, n, atlas).y
                minus = eval_complex(z, -n, atlas).y
                assert abs(minus + plus) < 1e-10

    def test_inverse_single_valued(self, atlas):
        # w*tan(w) reproduces z: one and only one x per function value
        for z in (1 + 1j, -2 + 0.7j, 4 - 3j):
            for n in (1, 2):
                bv = eval_complex(z, n, atlas)
                assert abs(bv.y * cmath.tan(bv.y) - z) <= 1e-13 * (1 + abs(z))
                assert bv.residual <= 1e-13 * (1 + abs(z))

    def test_on_cut_rejected(self, atlas):
        with pytest.raises(OnCut):
            eval_complex(-1.0 + 0j, 1, atlas)       # real cut of sheet 1
        with pytest.raises(OnCut):
            eval_complex(complex(atlas.branch_points[0].x.real, 0.5), 1, atlas)

    def test_branch_point_proximity_rejected(self, atlas):
        z = complex(-1.650611, 2.059981)   # printed location, ~6e-7 off x_1
        with pytest.raises(OnCut):
            eval_complex(z, 1, atlas)

    def test_real_cut_interior_is_fine_on_other_sheets(self, atlas):
        # x = -1 sits on the sheet-1 cut but inside sheet 2's regular strip
        bv = eval_complex(-1 + 0j, 2, atlas)
        assert bv.y.imag == pytest.approx(0.0, abs=1e-12)
        assert bv.y.real == pytest.approx(w_real_oracle(-1.0, 1), abs=1e-10)


def _continued_from_far_anchor(z, n, atlas):
    """Sheet-n value at z by the route eval_complex took before it solved
    directly: continued from eval_real(10*(1+|z|), n) down the real axis to
    R = 1 + |z|, then straight to z if no cut of the sheet is in the way,
    else over the tallest vertical cut at height Im x_|n| + 1 (on z's side
    of the real axis) and straight down onto z."""
    R = 1.0 + abs(z)
    route = [complex(R, 0.0), z]
    # the chord from R > 0 never meets the real cut; it crosses the vertical
    # cut at x_j = a + ib iff it passes Re x = a at a height |Im| <= b
    if any(c.kind is CutKind.VERTICAL_SEGMENT and z.real < c.endpoints[1].real
           and abs(z.imag) * (R - c.endpoints[1].real)
           <= c.endpoints[1].imag * (R - z.real)
           for c in cuts_for(n)):
        top = atlas.branch_points[abs(n) - 1].x.imag + 1.0
        top = top if z.imag >= 0.0 else -top
        route[1:1] = [complex(R, top), complex(z.real, top)]
    cur, y = complex(10.0 * R, 0.0), complex(eval_real(10.0 * R, n), 0.0)
    for target in route:
        y = _walk_segment(cur, y, target)
        cur = target
    return y


def _root_40(z, ref):
    """The 40-digit root of w*tan(w) = z seeded from ref (at 40 digits)."""
    zz = mp.mpc(z.real, z.imag)
    seed = mp.mpc(ref.real, ref.imag)
    return mp.findroot(lambda w: w * mp.tan(w) - zz, (seed, seed * (1 + mp.mpf(1e-12))))


def _roots_beside_40(z, bp):
    """The two 40-digit roots of w*tan(w) = z beside the double root w_j of
    x_j = bp.x, both found at 40 digits, as (left, right) of Re w_j."""
    with mp.workdps(40):
        wj = mp.findroot(lambda w: mp.tan(w) + w / mp.cos(w) ** 2, mp.mpc(bp.y.real, bp.y.imag))
        xj, zz = wj * mp.tan(wj), mp.mpc(z.real, z.imag)
        # w - w_j ~ +-sqrt((z - x_j)/a_2), a_2 = f''(w_j)/2 = sec^2 w_j (1 + x_j)
        step = mp.sqrt((zz - xj) * mp.cos(wj) ** 2 / (1 + xj))
        roots = [mp.findroot(lambda w: w * mp.tan(w) - zz, (s, s * (1 + mp.mpf(10) ** -25)))
                 for s in (wj - step, wj + step)]
        left, right = sorted(roots, key=lambda r: r.real)
        assert left.real < wj.real < right.real
    return left, right


def _assert_continued_value(z, y, ref):
    """y, a continued value at z, is on the reference's sheet (within 1e-8
    of it) and within 4*eps*(|r| + |z|/|tan r + r sec^2 r|) of the 40-digit
    root r seeded from the reference: the rounding of w and of z."""
    assert abs(y - ref) <= 1e-8, z
    with mp.workdps(40):
        r = _root_40(z, ref)
        slope = abs(mp.tan(r) + r / mp.cos(r) ** 2)
        bound = 4 * complex_plane.EPS * (abs(r) + abs(mp.mpc(z.real, z.imag)) / slope)
        err = abs(mp.mpc(y.real, y.imag) - r)
    assert err <= bound, (z, float(err / bound))


def _count_halley_steps(monkeypatch):
    calls = []
    step = complex_plane.halley_step

    def counted(x, y):
        calls.append(x)
        return step(x, y)

    monkeypatch.setattr(complex_plane, "halley_step", counted)
    return calls


def _solved_directly(z, n):
    """True where continue_from_anchor solves z on sheet n inside the
    exterior disk: a window-form root or a germ seed's polished root lies in
    the sheet's region."""
    m = abs(n)
    return (abs(z) < EXTERIOR_FACTOR * _sheet(m).disk
            and _place(z, _sheet(m)) is not None)


def _count_continued(atlas, monkeypatch):
    """Record the targets of every continuation step the module takes (the
    tests' references use their own import of _walk_segment)."""
    calls = []
    walk = complex_plane._walk_segment

    def counted(z0, y0, z1, *args, **kwargs):
        calls.append(z1)
        return walk(z0, y0, z1, *args, **kwargs)

    monkeypatch.setattr(complex_plane, "_walk_segment", counted)
    return calls


def _inner_points(atlas, n, rng):
    """Points inside the exterior disk: in the ring between |x_n| and
    EXTERIOR_FACTOR*|x_n|, next to the sheet's branch points and just off
    its cuts, all outside the guards of eval_complex."""
    m = abs(n)
    r0 = _sheet(m).disk
    bps = [atlas.branch_points[j - 1].x for j in (m - 1, m) if j >= 1]
    bps += [x.conjugate() for x in bps]
    points = []
    while len(points) < 40:
        z = cmath.rect(rng.uniform(1.0, EXTERIOR_FACTOR) * r0, rng.uniform(-math.pi, math.pi))
        if min(abs(z - x) for x in bps) > 2e-3:
            points.append(z)
    for _ in range(40):
        x = bps[rng.integers(len(bps))]
        points.append(x + cmath.rect(10.0 ** rng.uniform(-2.9, -1.0),
                                     rng.uniform(-math.pi, math.pi)))
    for cut in cuts_for(n):
        p, q = cut.endpoints
        normal = 1.0 if cut.kind is CutKind.VERTICAL_SEGMENT else 1j
        for _ in range(20):
            on_cut = p + rng.uniform(0.05, 0.95) * (q - p)
            points.append(on_cut + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, -3.0)
                          * normal)
    return points


class TestExteriorRoute:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_continuation(self, atlas, monkeypatch, n):
        # 2000 points per sheet pair +-n with EXTERIOR_FACTOR*|x_n| <= |z| <= 1e6
        rng = np.random.default_rng(500 + n)
        r0 = EXTERIOR_FACTOR * _sheet(n).disk
        moduli = 10.0 ** rng.uniform(math.log10(r0), 6.0, 2000)
        points = [cmath.rect(r, t) for r, t in zip(moduli, rng.uniform(-math.pi, math.pi, 2000))]
        calls = _count_halley_steps(monkeypatch)
        plus = [eval_complex(z, n, atlas).y for z in points]
        minus = [eval_complex(z, -n, atlas).y for z in points]
        assert not calls          # solved directly, never continued
        monkeypatch.undo()
        for z, yp, ym in zip(points, plus, minus):
            ref = _continued_from_far_anchor(z, n, atlas)
            assert abs(yp - ref) <= 4e-15 * abs(ref), z
            assert abs(ym + ref) <= 4e-15 * abs(ref), z

    @pytest.mark.parametrize("n", [1, 2, 3, 4, -2])
    def test_inner_points_still_continued(self, atlas, monkeypatch, n):
        # named for the fallback these points once took: next to the cuts
        # and branch points every one is now solved directly, its root
        # placed in the sheet's region
        calls = _count_continued(atlas, monkeypatch)
        band = 0
        for z in _inner_points(atlas, n, np.random.default_rng(600 + abs(n))):
            y = eval_complex(z, n, atlas).y
            assert not calls, z
            assert _solved_directly(z, n), z
            band += _route(z, n) == "band"
            # the continued reference picks the sheet and is itself held to
            # the rounding of w and z; the direct value is held to 4e-15 of
            # the 40-digit root, not of the reference, whose own error is
            # about as large
            ref = _continued_from_far_anchor(z, n, atlas)
            assert abs(y - ref) <= 1e-8, z
            _assert_continued_value(z, ref, ref)
            with mp.workdps(40):
                r = _root_40(z, ref)
                assert abs(mp.mpc(y.real, y.imag) - r) <= 4e-15 * abs(r), z
        assert band >= 60

    def test_huge_modulus(self, atlas):
        # no tan is evaluated on this route, so no pole guard stops it
        for n in (1, 4, -3):
            for z in (1.7e308 + 0j, -1.2e308 + 1.2e308j, 1e300j, -1e200 - 1e-300j):
                y = eval_complex(z, n, atlas).y
                limit = math.copysign((abs(n) - 0.5) * math.pi, n)
                assert abs(y - limit) <= 4e-16 * abs(limit), (z, n)
        # finite parts, but a modulus beyond float64
        with pytest.raises(NonFiniteArgument):
            eval_complex(-1.7e308 + 1e308j, 1, atlas)

    @pytest.mark.parametrize("n", [1, -1, 4, -4, 600, -600, 10 ** 6, -10 ** 6])
    def test_within_8_eps_of_40_digit_roots(self, n):
        # the certificate taken from the last Newton step: each value lies
        # within 8*eps*(1+|y|) of the 40-digit root of w = c - atan(w/z),
        # c = sgn(n)*(|n|-1/2)*pi, for |z| from EXTERIOR_FACTOR*|x_|n|| to 1e300
        atlas = SheetAtlas()
        rng = np.random.default_rng([540, abs(n), int(n < 0)])
        r0 = EXTERIOR_FACTOR * _sheet(abs(n)).disk
        moduli = 10.0 ** rng.uniform(math.log10(r0), 300.0, 40)
        moduli[:4] = r0 * np.array([1.0, 1.0 + 1e-12, 1.5, 4.0])
        with mp.workdps(40):
            c = math.copysign(abs(n) - 0.5, n) * mp.pi
            for r, t in zip(moduli, rng.uniform(-math.pi, math.pi, 40)):
                z = cmath.rect(r, t)
                y = eval_complex(z, n, atlas).y
                zz, seed = mp.mpc(z.real, z.imag), mp.mpc(y.real, y.imag)
                root = mp.findroot(lambda w: w - c + mp.atan(w / zz),
                                   (seed, seed * (1 + mp.mpf(1e-12))))
                assert abs(seed - root) <= 8 * complex_plane.EPS * (1 + abs(y)), (z, n)

    @pytest.mark.parametrize("z", [-1.7e308 + 1e308j, complex(math.inf, 0.0),
                                   complex(1.0, math.nan), 10 ** 400, -(10 ** 400)])
    def test_non_finite_modulus_raises_wtan_error(self, atlas, z):
        # abs(z) overflows for the first point, and complex() for the ints
        # past float64's range: each entry point must turn that into
        # NonFiniteArgument, not a bare OverflowError
        for n in (1, -2):
            with pytest.raises(NonFiniteArgument):
                continue_from_anchor(z, n)
            with pytest.raises(NonFiniteArgument):
                eval_complex(z, n, atlas)
            with pytest.raises(NonFiniteArgument):
                distance_to_cuts(z, n)
        with pytest.raises(NonFiniteArgument):
            dispersion_eval(z, atlas)
        for waypoints in ((z, 1 + 1j), (1 + 1j, z)):
            with pytest.raises(NonFiniteArgument):
                trace_path(ContinuationPath(waypoints), 1, atlas)
        # no cut lies out there: boundary_value rejects the point as such
        with pytest.raises(NotOnCut):
            boundary_value(z, 1, Side.UPPER, atlas)

    @pytest.mark.parametrize("z, shown", [(10 ** 400, "(inf+0j)"), (-(10 ** 400), "(-inf+0j)")])
    def test_a_real_past_the_float_range_is_shown_as_its_inf(self, atlas, z, shown):
        # the message shows the point as floats give it, not 400 digits
        with pytest.raises(NonFiniteArgument) as raised:
            eval_complex(z, 1, atlas)
        assert str(raised.value) == f"z must have a finite modulus, got {shown}"
        assert ContinuationPath((z, 1 + 1j)).waypoints[0] == complex(shown)


# within this distance of x_n, where the germs of sheets n and n+1 merge and
# a window-form root's error grows like eps/|g'|, |g'| ~ sqrt(|z - x_n|),
# values are held to the bound of _assert_continued_value, not 4e-15
FLOOR_REACH = 0.25


def _newton_outcome(solve, form, x, k, w):
    """repr of what solve(form, x, k, w) returns, or the exception it raises."""
    try:
        return repr(solve(form, x, k, w))
    except ArithmeticError as e:
        return type(e).__name__


def _singular_starts(x, rng):
    """(x, w) pairs at the forms' singular points: w = 0, x = 0, x = -1, and
    w/x or x/w at +-i, where atan has its branch points."""
    w = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
    return [(x, 0j), (0j, w), (-1 + 0j, w), (x, 1j * x), (x, -1j * x)]


class TestNewtonForms:
    # each form written inline in `_newton` gives the floats, the None or
    # the exception of the callable form driven by the loop it replaced, on
    # 20000 or more draws: the seeds of `_exterior_root`, `_window_newton`
    # and `_tanh_root`, random starts and the forms' singular starts
    def _assert_same(self, form, old, draws):
        assert len(draws) >= 20000
        for x, k, w in draws:
            assert (_newton_outcome(complex_plane._newton, form, x, k, w)
                    == _newton_outcome(_callable_newton, old, x, k, w)), (x, k, w)

    def test_exterior_form(self):
        rng = random.Random(3501)
        draws = []
        while len(draws) < 20000:
            c = (rng.choice([1, 2, 3, 4, 8, 20, 600, 10 ** 4, 10 ** 6, 2 ** 52]) - 0.5) * math.pi
            x = cmath.rect(10.0 ** rng.uniform(-3.0, 300.0), rng.uniform(-math.pi, math.pi))
            w = cmath.rect(10.0 ** rng.uniform(-3.0, 8.0), rng.uniform(-math.pi, math.pi))
            draws += [(x, c, c / (1.0 + 1.0 / x)), (x, c, w)]
            draws += [(xs, c, ws) for xs, ws in _singular_starts(x, rng)]
        self._assert_same("exterior", _atan_form, draws)

    def test_window_form(self):
        rng = random.Random(3502)
        draws = []
        while len(draws) < 20000:
            m = rng.choice([1, 2, 3, 4, 8, 20, 600, 10 ** 4, 10 ** 6])
            c = (m - 0.5) * math.pi
            x = cmath.rect(10.0 ** rng.uniform(-12.0, math.log10(2.0 * m * math.pi)),
                           rng.uniform(-math.pi, math.pi))
            w = cmath.rect(10.0 ** rng.uniform(-3.0, 7.0), rng.uniform(-math.pi, math.pi))
            k_pi = rng.choice([0, m - 1, m]) * math.pi
            seed = c * cmath.sqrt(x / (x + c * c)) if k_pi == 0 else c / (1.0 + 1.0 / x)
            draws += [(x, k_pi, seed), (x, k_pi, w)]
            if k_pi:
                draws.append((x, k_pi, k_pi + x / k_pi))
            draws += [(xs, k_pi, ws) for xs, ws in _singular_starts(x, rng)]
        self._assert_same("window", _window_form, draws)

    def test_tanh_form(self):
        rng = random.Random(3503)
        draws = []
        while len(draws) < 20000:
            s = rng.uniform(0.0, 40.0) if rng.random() < 0.5 else 10.0 ** rng.uniform(-300.0, 2.0)
            draws += [(s, 0.0, math.sqrt(s * (1.0 + s / 3.0))), (s, 0.0, rng.uniform(-8.0, 8.0)),
                      (s, 0.0, 0.0), (0.0, 0.0, rng.uniform(0.0, 5.0)), (-1.0, 0.0, rng.uniform(0.0, 5.0))]
        self._assert_same("tanh", _tanh_form, draws)


def _off_band_points(atlas, n, rng, count):
    """Off-band points inside the exterior disk of sheet n and beyond
    FLOOR_REACH of x_n and x_n*: uniform over the disk, next to the
    imaginary axis on the right, and just left of the band."""
    xn = atlas.branch_points[n - 1].x
    radius = EXTERIOR_FACTOR * abs(xn)
    points = []
    while len(points) < count:
        kind = len(points) % 4
        if kind < 2:
            z = cmath.rect(radius * math.sqrt(rng.uniform(0.0, 1.0)),
                           rng.uniform(-math.pi, math.pi))
        elif kind == 2:
            z = complex(10.0 ** rng.uniform(-9.0, -1.0), rng.uniform(-radius, radius))
        else:
            z = complex(xn.real - 10.0 ** rng.uniform(-8.0, -0.5),
                        rng.uniform(-radius, radius))
        if (abs(z) < radius and not xn.real <= z.real <= 0.0
                and min(abs(z - xn), abs(z - xn.conjugate())) > FLOOR_REACH
                and distance_to_cuts(z, n) > complex_plane.CUT_GUARD):
            points.append(z)
    return points


def _left_of_branch_points(atlas, n, rng, count, lo, hi):
    """Points at distance lo..hi (log-uniform) left of x_n or x_n*."""
    xn = atlas.branch_points[n - 1].x
    return [(xn if j % 2 else xn.conjugate())
            + cmath.rect(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)),
                         rng.uniform(0.5 * math.pi + 1e-3, 1.5 * math.pi - 1e-3))
            for j in range(count)]


class TestWindowRoute:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_off_band_matches_continuation(self, atlas, monkeypatch, n):
        points = _off_band_points(atlas, n, np.random.default_rng(700 + n), 300)
        calls = _count_continued(atlas, monkeypatch)
        plus = [eval_complex(z, n, atlas).y for z in points]
        minus = [eval_complex(z, -n, atlas).y for z in points]
        assert not calls
        monkeypatch.undo()
        for z, yp, ym in zip(points, plus, minus):
            ref = _continued_from_far_anchor(z, n, atlas)
            assert abs(yp - ref) <= 4e-15 * abs(ref), z
            assert ym == -yp, z

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_left_approach_to_branch_points(self, atlas, monkeypatch, n):
        # the germs of sheets n and n+1 merge at x_n: each point is solved
        # directly, to the sheet-n value; all lie within FLOOR_REACH of x_n
        rng = np.random.default_rng(710 + n)
        calls = _count_continued(atlas, monkeypatch)
        for z in _left_of_branch_points(atlas, n, rng, 40, 1.001e-3, 0.1):
            ref = _continued_from_far_anchor(z, n, atlas)
            for sheet, sign in ((n, 1.0), (-n, -1.0)):
                calls.clear()
                y = sign * eval_complex(z, sheet, atlas).y
                assert not calls, (z, sheet)
                _assert_continued_value(z, y, ref)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_floor_rejects_the_merging_germ(self, atlas, monkeypatch, n):
        # within 3.5e-3 left of x_n the sheet n+1 value is a root of the
        # sheet-n window form inside the sheet-n window too: were Newton to
        # land on it, the sheet-n region would turn it away and a germ
        # seed would give the sheet-n value
        rng = np.random.default_rng(720 + n)
        for z in _left_of_branch_points(atlas, n, rng, 20, 1.001e-3, 3.5e-3):
            other = eval_complex(z, n + 1, atlas).y
            g, d = _window_form(z, n * math.pi, other)
            assert abs(g) <= 8 * complex_plane.EPS * abs(other), z
            assert -0.5 * math.pi < cmath.atan(z / other).real < 0.0, z
            assert not _holds(other, _sheet(n), z), z
            monkeypatch.setattr(complex_plane, "_newton", lambda form, x, k, w: (other, d))
            y = _place(z, _sheet(n))
            monkeypatch.undo()
            assert abs(y - eval_complex(z, n, atlas).y) <= 1e-8, z

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_residual_refuses_a_root_off_its_point(self, atlas, monkeypatch, n):
        # a disk root placed 1e-6 off the root, in, left and right of the
        # band, fails the residual test and its conditioning floor alike
        rng = np.random.default_rng(730 + n)
        points = _band_points(atlas, n, rng, 10) + _off_band_points(atlas, n, rng, 20)
        place = complex_plane._place
        monkeypatch.setattr(complex_plane, "_place",
                            lambda z, s, left=False: place(z, s, left) + 1e-6)
        for z in points:
            for sheet in (n, -n):
                with pytest.raises(NoConvergence, match="residual"):
                    eval_complex(z, sheet, atlas)

    def test_window_rejects_the_mirror_root(self, atlas, monkeypatch):
        # on sheet 1 right of the band g is odd, so the sheet -1 value -y is
        # a root with the same |g'|: the region of sheet 1 turns it away
        rng = np.random.default_rng(725)
        for z in _off_band_points(atlas, 1, rng, 40):
            if z.real <= 0.0:
                continue
            y = eval_complex(z, 1, atlas).y
            g, d = _window_form(z, 0.0, -y)
            assert abs(g) <= 8 * complex_plane.EPS * abs(y), z
            assert _holds(y, _sheet(1), z) and not _holds(-y, _sheet(1), z), z
            monkeypatch.setattr(complex_plane, "_newton", lambda form, x, k, w: (-y, d))
            mirror = _place(z, _sheet(1))
            monkeypatch.undo()
            assert abs(mirror - y) <= 1e-8, z

    @pytest.mark.parametrize("n", [4, -4, 8, -8, 64, -64, 600, -600])
    def test_origin_solved_directly(self, atlas, monkeypatch, n):
        # the window seed c/(1 + 1/z) divides by 0 at z = 0 and squares to 0
        # below |z| ~ 1e-163; there the root is k*pi + z/(k*pi), k = |n| - 1
        calls = _count_continued(atlas, monkeypatch)
        k_pi = (abs(n) - 1) * math.pi
        # where both parts are subnormal 1/z overflows to inf - inf*j, and
        # the seed c/(1 + 1/z) is NaN
        subnormal = [complex(s * a, t * a) for a in (5e-324, 1e-310)
                     for s in (1, -1) for t in (1, -1)]
        for z in [0j, complex(-0.0, 0.0), -0j, complex(-0.0, -0.0), 5e-324 + 0j,
                  complex(1e-300, 1e-300), complex(1e-300, -1e-300),
                  complex(-1e-300, 1e-300), complex(-1e-300, -1e-300), 1e-200j] + subnormal:
            y = eval_complex(z, n, atlas).y
            ref = math.copysign(1.0, n) * (k_pi + z / k_pi)
            assert abs(y - ref) <= 4 * complex_plane.EPS * abs(ref), (z, y)
        assert not calls

    def test_small_modulus_against_mpmath(self, atlas):
        # sheet 1 near the origin: w ~ sqrt(z) keeps full relative accuracy
        rng = np.random.default_rng(730)
        for _ in range(60):
            z = cmath.rect(10.0 ** rng.uniform(-9.0, 0.0),
                           rng.uniform(-0.5 * math.pi + 1e-3, 0.5 * math.pi - 1e-3))
            y = eval_complex(z, 1, atlas).y
            assert eval_complex(z, -1, atlas).y == -y
            with mp.workdps(60):
                zz = mp.mpc(z.real, z.imag)
                ref = mp.findroot(lambda w: w * mp.tan(w) - zz, mp.sqrt(zz))
                err = abs(mp.mpc(y.real, y.imag) - ref) / abs(ref)
            assert err <= 4e-16, (z, float(err))


def _beside_cut_lines(atlas, n, rng, count):
    """Pairs (z, clear): z 1e-9..1e-6.5 off a vertical cut line of sheet n
    and below its branch point, alternating sides and half-planes, and clear
    the point 1e-3 off the line on z's side at the same height.  Inside the
    band of a sheet |n| >= 2 both horizontal directions run into a cut."""
    m = abs(n)
    pairs = []
    for bp in atlas.branch_points[max(m - 2, 0):m]:
        for k in range(count):
            side = 1.0 if k % 2 else -1.0
            height = rng.uniform(0.02, 0.98) * bp.x.imag * (1.0 if k % 4 < 2 else -1.0)
            offset = side * 10.0 ** rng.uniform(-9.0, -6.5)
            pairs.append((complex(bp.x.real + offset, height),
                          complex(bp.x.real + side * 1e-3, height)))
    return pairs


class TestEscapeRoute:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_beside_a_cut_below_its_branch_point(self, atlas, n):
        # the vertical through z would brush x_j, so the reference walks on
        # to z from the point 1e-3 off the cut line at z's height; the
        # direct value (the escape route that once continued these points
        # is gone) is within the rounding of z and w of the root, and
        # eval_complex gives it on both sheets
        for z, clear in _beside_cut_lines(atlas, n, np.random.default_rng(740 + n), 16):
            ref = _walk_segment(clear, _continued_from_far_anchor(clear, n, atlas), z)
            y = continue_from_anchor(z, n)
            _assert_continued_value(z, y, ref)
            assert _solved_directly(z, n), z
            for sheet, sign in ((n, 1.0), (-n, -1.0)):
                y = sign * eval_complex(z, sheet, atlas).y
                assert abs(y - ref) <= 4e-15 * abs(ref), (z, sheet)

    def test_origin_seed_divides_by_zero(self):
        # the exterior form's seed c/(1 + 1/x) divides by 0 at x = 0 and
        # x = -1: no root; at the origin, where no window, germ or -i*z
        # root lies in R_1 either, _place's last resort is refused too
        for x in (0j, -1 + 0j):
            assert _exterior_root(x, 0.5 * math.pi) is None
        with pytest.raises(NoConvergence):
            continue_from_anchor(0j, 1)

    def test_refused_start_raises(self, atlas, monkeypatch):
        # z is 0.05 left of x_1 and 10 is beyond the disk; with no root
        # placed in the region, or the exterior root refused, there is no
        # value, and nothing is continued
        z = atlas.branch_points[0].x - 0.05
        monkeypatch.setattr(complex_plane, "_place", lambda z, s: None)
        monkeypatch.setattr(complex_plane, "_exterior_root", lambda x, c: None)
        calls = _count_continued(atlas, monkeypatch)
        for point in (z, 10.0 + 0j):
            for n in (1, -1):
                with pytest.raises(NoConvergence):
                    continue_from_anchor(point, n)
                with pytest.raises(NoConvergence):
                    eval_complex(point, n, atlas)
        assert not calls


def _branch_distance(z, m):
    """Distance from z to the nearest of 0, x_j and conj(x_j), j <= 2m+2.
    For z in the disk of sheet m, |z| < EXTERIOR_FACTOR*|x_m| ~ 1.2*m*pi,
    the others lie above Im x_(2m+3) ~ (2m+11/4)*pi, more than 2 away."""
    points = [find_branch_point(j).x for j in range(1, 2 * m + 3)]
    return min([abs(z)] + [abs(z - p) for x in points for p in (x, x.conjugate())])


def _band_points(atlas, n, rng, count):
    """Points in the band of sheet n inside its exterior disk, beyond 1e-3
    of its cuts and branch points."""
    m = abs(n)
    lo, radius = atlas.branch_points[m - 1].x.real, EXTERIOR_FACTOR * _sheet(m).disk
    points = []
    while len(points) < count:
        z = complex(rng.uniform(lo, 0.0), rng.uniform(-radius, radius))
        if (abs(z) < radius and distance_to_cuts(z, n) > 1e-3
                and _branch_distance(z, m) > 1e-3):
            points.append(z)
    return points


_Q_SHEETS = [1, 2, 3, 4, 5, 6, 7, 8, 20, 100, 1000, 10 ** 4, 10 ** 6, 10 ** 8]


def _arc(a, p, d, t):
    """The point of the level curve Re f(w) = a, f = w*tan(w), on the line
    w = p + d*t (d = 1j: in v at u = Re p; d = 1: in u at v = Im p), by
    Newton iteration in t from t, with Re f at 30 digits over the slope
    Re(d*f') in floats, f' = tan(w) + w*sec^2(w), to a step below
    1e-12*(1 + |t|): Newton's error after it, ~|f''/f'|*step^2, lies far
    below an ulp.  Returns the point rounded to a float, and an ulp of it,
    its uncertainty."""
    with mp.workdps(30):
        t = mp.mpf(t)
        for _ in range(40):
            w = p + d * float(t)
            tw = cmath.tan(w)
            wm = mp.mpc(p.real, p.imag) + d * t
            step = (mp.re(wm * mp.tan(wm)) - a) / (d * (tw + w * (1.0 + tw * tw))).real
            t -= step
            if abs(step) <= 1e-12 * (1 + abs(t)):
                return float(t), math.ulp(float(t))
    raise AssertionError(f"no point of Re f = {a} found on {p} + {d}*t")


@pytest.fixture(scope="module")
def big_atlas():
    return SheetAtlas.build(9)


class TestRegions:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
    def test_neighbour_sheets_are_rejected(self, big_atlas, n):
        # 0.1-1 left of x_n the values of sheets n+1..n+5 can solve the
        # sheet-n window form inside its window; R_n turns every one away
        passed = 0
        for z in _left_of_branch_points(big_atlas, n, np.random.default_rng(760 + n),
                                        40, 0.1, 1.0):
            for k in range(n + 1, n + 6):
                w = eval_complex(z, k, big_atlas).y
                g, _ = _window_form(z, n * math.pi, w)
                if (abs(g) <= 8 * complex_plane.EPS * abs(w)
                        and -0.5 * math.pi < cmath.atan(z / w).real < 0.0):
                    passed += 1
                    assert not _holds(w, _sheet(n), z), (z, k)
        assert passed >= 20

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_values_lie_in_their_own_region_only(self, atlas, n):
        rng = np.random.default_rng(770 + n)
        points = (_inner_points(atlas, n, rng) + _off_band_points(atlas, n, rng, 200)
                  + [z for z, _ in _beside_cut_lines(atlas, n, rng, 16)])
        for sheet, sign in ((n, 1.0), (-n, -1.0)):
            for z in points:
                w = sign * eval_complex(z, sheet, atlas).y
                # near an arc the side of the cut decides: every value is placed
                assert _holds(w, _sheet(n), z), (z, sheet)
                for m in range(1, 8):
                    assert m == n or not _holds(w, _sheet(m), z), (z, sheet, m)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, -3])
    def test_band_values_match_continuation(self, atlas, monkeypatch, n):
        # each solved directly, a root placed in R_n
        calls = _count_continued(atlas, monkeypatch)
        for z in _band_points(atlas, n, np.random.default_rng(780 + abs(n)), 40):
            y = eval_complex(z, n, atlas).y
            assert not calls, z
            ref = _continued_from_far_anchor(z, n, atlas)
            assert abs(y - ref) <= 4e-15 * abs(ref), z

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 8, 16])
    def test_marched_nodes_lie_on_the_level_curve(self, j):
        # 2000 nodes a side, uniform in t, continued node to node down both
        # sides of the vertical cut at x_j lie on A_j, solved at 30 digits:
        # at height phi_j(Re w) left of Re w_j, and at the arc's Re w for
        # their height right of it
        s = _sheet(j)
        a, b, top = s.bp.x.real, s.bp.x.imag, s.bp.y
        worst = 0.0
        for side in (-1.0, 1.0):
            ts = np.sqrt(b) * np.arange(1, 2001) / 2000
            zs = [complex(a, v) for v in np.maximum(b - ts * ts, 0.0)]
            cur = zs[0] + side * 1e-3
            w = continue_from_anchor(cur, j)
            for z in zs:
                w, cur = _walk_segment(cur, w, z), z
                u, v = w.real, abs(w.imag)
                if u <= top.real:
                    edge, _ = _arc(a, complex(u, 0.0), 1j, v)
                    worst = max(worst, abs(edge - v))
                else:
                    edge, _ = _arc(a, complex(0.0, v), 1.0, u)
                    worst = max(worst, abs(edge - u))
        assert worst <= 1e-12

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 8, 16])
    def test_points_within_the_margin_are_undecided(self, j):
        # on A_j left of Re w_j, and half a root's error above or below it,
        # the sign of Re f - a_j (beyond its rounding and |f'| times the
        # root's error) decides nothing; well below it the point is inside
        s = _sheet(j)
        a, top = s.bp.x.real, s.bp.y
        start = 0.5 * math.log(4.0 * (j + 1) * math.pi) - a + 1.0
        for u in top.real * np.arange(1, 201) / 201:
            u = float(u)
            # from above the arc: phi_j(u), the highest solution, to rounding
            v, _ = _arc(a, complex(u, 0.0), 1j, start)
            tol = 8.0 * complex_plane.EPS * (1.0 + math.hypot(u, v))
            for dv in (-0.5 * tol, 0.0, 0.5 * tol):
                assert complex_plane._in_arc(u, v + dv, s.bp) is None, (u, dv)
            assert complex_plane._in_arc(u, 0.5 * v, s.bp) is True, u

    @pytest.mark.parametrize("j", _Q_SHEETS)
    def test_one_tan_decides_the_right_half_as_the_level_solve(self, j):
        # on a 60 x 60 grid of Q = [Re w_j, u_j*] x [0, Im w_j] and at 0 to
        # 64 root errors either side of A_j at 59 heights, the sign of
        # Re f - a_j beyond its margin (_in_arc's answer, with one tan) is
        # the side of A_j solved at 30 digits in u for the point's height
        # wherever the point lies beyond a root's error of it, and it
        # decides nearly everywhere
        bp = find_branch_point(j)
        a, top, root = bp.x.real, bp.y, eval_real(bp.x.real, j)
        vs = [float(v) for v in np.linspace(0.0, top.imag, 61)[:-1]]
        arcs = {v: _arc(a, complex(0.0, v), 1.0, root) for v in vs}
        points = [(float(u), v) for u in np.linspace(top.real, root, 62)[1:-1] for v in vs]
        for v in vs[1:]:
            arc, _ = arcs[v]
            tol = 8.0 * complex_plane.EPS * (1.0 + math.hypot(arc, v))
            points += [(arc + k * tol, v) for k in (-64, -16, -4, -1, 0, 1, 4, 16, 64)]
        answers = [complex_plane._in_arc(u, v, bp) for u, v in points]
        compared = 0
        for (u, v), answer in zip(points, answers):
            tol = 8.0 * complex_plane.EPS * (1.0 + math.hypot(u, v))
            found = arcs[v]
            if answer is not None and abs(u - found[0]) > tol + found[1]:
                compared += 1
                assert answer == (u < found[0]), (u, v)
        assert answers.count(None) <= 0.05 * len(points)
        assert compared >= 0.9 * len(points)

    @pytest.mark.parametrize("j", _Q_SHEETS)
    def test_signs_on_the_edges_of_q(self, j):
        # Q holds no pole of tan (Re w_j > (j - 1/2)*pi), and off its
        # corners Re f < a_j on the bottom and left edges and Re f > a_j on
        # the top and right ones: by the maximum principle each side of A_j
        # in Q has one sign (the right edge is taken two ulps right of
        # eval_real's u_j*, a faithful root, ~1.1 ulps low at j = 10**8,
        # where Re f - a_j changes by ~18 over an ulp).  The module
        # docstring's D, U and Q' need three more: Re f > a_j on D's
        # bottom edge, v = Im w_j left of w_j; Re f < a_j on u = Re w_j
        # above w_j (0.01 to 99 above it); and on the right edge u = j*pi of
        # Q', where Re f = -v*tanh(v) falls with v, Re f > a_j at its top
        bp = find_branch_point(j)
        a, top, root = bp.x.real, bp.y, eval_real(bp.x.real, j)
        assert top.real > (j - 0.5) * math.pi
        ts = [float(t) for t in np.linspace(0.01, 0.99, 200)]

        def gap(u, v):
            w = complex(u, v)
            return (w * cmath.tan(w)).real - a

        assert all(gap(top.real + t * (root - top.real), 0.0) < 0.0 for t in ts)
        assert all(gap(top.real, t * top.imag) < 0.0 for t in ts)
        assert all(gap(top.real + t * (root - top.real), top.imag) > 0.0 for t in ts)
        right = math.nextafter(math.nextafter(root, math.inf), math.inf)
        assert all(gap(right, t * top.imag) > 0.0 for t in ts)
        assert all(gap(t * top.real, top.imag) > 0.0 for t in ts)
        assert all(gap(top.real, top.imag + t / (1.0 - t)) < 0.0 for t in ts)
        assert -top.imag * math.tanh(top.imag) > a

    @pytest.mark.parametrize("n", [5, 8, 16, 64])
    def test_every_sheet_solved_directly(self, monkeypatch, n):
        # window and band points in the disk of sheets past 4: each solved
        # directly, its root placed in R_n, and equal to the continued value
        big = SheetAtlas.build(n)
        rng = np.random.default_rng(790 + n)
        points = _band_points(big, n, rng, 10) + _off_band_points(big, n, rng, 10)
        calls = _count_continued(big, monkeypatch)
        values = [eval_complex(z, n, big).y for z in points]
        assert not calls
        monkeypatch.undo()
        for z, y in zip(points, values):
            ref = _continued_from_far_anchor(z, n, big)
            assert abs(y - ref) <= 4e-15 * abs(ref), z

    @pytest.mark.parametrize("n", [5, 8, 16, 64])
    def test_left_approach_solved_directly(self, monkeypatch, n):
        # 1.001e-3..0.1 left of x_n, where the germs of sheets n and n+1
        # merge: each point solved directly, on the continued value's sheet
        big = SheetAtlas.build(n)
        points = _left_of_branch_points(big, n, np.random.default_rng(1400 + n), 20,
                                        1.001e-3, 0.1)
        calls = _count_continued(big, monkeypatch)
        values = [eval_complex(z, n, big).y for z in points]
        assert not calls
        monkeypatch.undo()
        # on the continued value's sheet, and within 4e-15 of the root: this
        # close to x_n the continued value itself is up to 5e-15 off it
        for z, y in zip(points, values):
            ref = _continued_from_far_anchor(z, n, big)
            assert abs(y - ref) <= 1e-8, z
            with mp.workdps(40):
                r = _root_40(z, ref)
                assert abs(mp.mpc(y.real, y.imag) - r) <= 4e-15 * abs(r), z


class TestSideRule:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 64, 600, 601])
    def test_both_halves_of_both_arcs(self, n):
        # sheet-n values 1e-9..1e-3 either side of the cut lines at x_(n-1)
        # and x_n, at heights 0.02-0.98 Im x_j: the side rule, (Re z < a_j)
        # == (Re w > Re w_j) for w inside A_j, puts each inside A_n and
        # outside A_(n-1), on both halves of each arc, whether or not
        # _in_arc decides it; each is the continued value, and the
        # neighbouring sheet's region turns it away
        big = SheetAtlas.build(n)
        rng = np.random.default_rng(1700 + n)
        count = 4 if n >= 600 else 12
        gap = big.branch_points[n - 2].x.real - big.branch_points[n - 1].x.real
        halves, undecided = set(), 0
        for bp in big.branch_points[n - 2:n]:
            band_side = -1.0 if bp.n < n else 1.0
            picks = []
            for k in range(count):
                side = 1.0 if k % 2 else -1.0
                reach = 0.5 * gap if side == band_side else math.inf
                picks.append((side, reach, min(10.0 ** rng.uniform(-9.0, -3.0), 0.8 * reach),
                              rng.uniform(0.02, 0.98) * bp.x.imag * (1.0 if k % 4 < 2 else -1.0)))
            if bp.n == n:
                # a root within its arc's uncertainty on sheets 600 and 601
                picks.append((-1.0, math.inf, 2e-10, 0.5 * bp.x.imag))
            for side, reach, offset, height in picks:
                z = complex(bp.x.real + side * offset, height)
                clear = complex(bp.x.real + side * min(offset + 1e-3, reach), height)
                y = eval_complex(z, n, big).y
                ref = _walk_segment(clear, _continued_from_far_anchor(clear, n, big), z)
                assert abs(y - ref) <= 1e-8, (z, bp.n)
                u, v = y.real, abs(y.imag)
                right_half = u > bp.y.real
                assert ((z.real < bp.x.real) == right_half) == (bp.n == n), (z, bp.n)
                decided = complex_plane._in_arc(u, v, bp)
                assert decided is None or decided == (bp.n == n), (z, bp.n)
                undecided += decided is None
                halves.add((bp.n, right_half))
                neighbour = n + 1 if bp.n == n else n - 1
                assert not _holds(y, _sheet(neighbour), z), (z, bp.n)
        assert len(halves) == 4
        if n >= 600:
            assert undecided > 0


def _full_guard(z, n):
    """The full guard set, checked on every route: z within CUT_GUARD of a
    cut of sheet n, or within BRANCH_POINT_GUARD of x_(|n|-1), x_|n| or
    their conjugates.  eval_complex raises OnCut exactly where it fires."""
    return _full_guard_message(z, n) is not None


def _full_guard_message(z, n):
    """The OnCut message the full guard set gives z on sheet n, or None
    where it does not fire: a cut first, then x_(|n|-1), then x_|n|."""
    m = abs(n)
    if min(cut.distance(z) for cut in cuts_for(n)) < complex_plane.CUT_GUARD:
        return f"z={z!r} lies on a cut of sheet +-{m}"
    for j in (m - 1, m):
        if j >= 1 and any(abs(z - p) < complex_plane.BRANCH_POINT_GUARD
                          for p in (complex_plane._point(j).x, complex_plane._point(j).conjugate_x)):
            return (f"z={z!r} is within {complex_plane.BRANCH_POINT_GUARD:g} of branch point "
                    f"x_{j}; too close for direct evaluation")
    return None


def _route(z, n):
    m = abs(n)
    if abs(z) >= EXTERIOR_FACTOR * _sheet(m).disk:
        return "exterior"
    if z.real > 0.0:
        return "right"
    return "left" if z.real < complex_plane._point(m).x.real else "band"


def _raises_on_cut(z, n, atlas):
    return _on_cut_message(z, n, atlas) is not None


def _on_cut_message(z, n, atlas):
    """eval_complex's OnCut message at z on sheet n, or None."""
    try:
        eval_complex(z, n, atlas)
    except OnCut as exc:
        return str(exc)
    return None


def _ulps(x, k):
    """x moved k ulps (toward +inf for k > 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _straddling(point, direction, guard, nudges):
    """Points guard and guard +- 1 ulp from `point` along the unit
    `direction`, each coordinate the direction moves nudged by each of
    `nudges` ulps: the distances measured back fall on both sides of guard."""
    points = []
    for d in (math.nextafter(guard, 0.0), guard, math.nextafter(guard, 1.0)):
        z = point + d * direction
        points += [complex(_ulps(z.real, i), _ulps(z.imag, k))
                   for i in (nudges if direction.real else (0,))
                   for k in (nudges if direction.imag else (0,))]
    return points


def _guard_points(sheets):
    """Points on every cut of the sheets, 5e-11 and 2e-10 off each (and
    beyond its ends) and at CUT_GUARD +- 1-2 ulps; within, just beyond and
    at BRANCH_POINT_GUARD +- 1 ulp of each branch point of the sheets and
    its conjugate; within, just beyond and at CUT_GUARD +- 1 ulp of the
    origin."""
    cut_guard, point_guard = complex_plane.CUT_GUARD, complex_plane.BRANCH_POINT_GUARD
    points = []
    for cut in dict.fromkeys(c for k in sheets for c in cuts_for(k)):
        p, q = cut.endpoints
        along = (q - p) / abs(q - p)
        normal = along * 1j
        for t in (0.0, 0.013, 0.5, 0.97, 1.0):
            on = p + t * (q - p)
            points += [on + d * normal for d in (0.0, 5e-11, -5e-11, 2e-10, -2e-10)]
            for e in (normal, -normal):
                points += _straddling(on, e, cut_guard, (-2, -1, 0, 1, 2))
        points += [p - 5e-11 * along, p - 2e-10 * along, q + 5e-11 * along, q + 2e-10 * along]
        for end, e in ((p, -along), (q, along)):
            points += _straddling(end, e, cut_guard, (-2, -1, 0, 1, 2))
    centres = {x: None for k in sheets for j in (k - 1, k) if j >= 1
               for x in (complex_plane._point(j).x, complex_plane._point(j).conjugate_x)}
    for c, radii, guard in [(c, (5e-4, 9.99e-4, 1.001e-3, 2e-3), point_guard) for c in centres] + [
            (0j, (5e-11, 9.9e-11, 1.01e-10, 2e-10), cut_guard)]:
        for k in range(6):
            e = cmath.rect(1.0, 0.1 + k * math.pi / 3)
            points += [c + rho * e for rho in radii] + _straddling(c, e, guard, (-1, 0, 1))
    return points


def _gap_points(sheets):
    """Points at the edges of the guard's gaps: |Im z| = CUT_GUARD and
    |Re z - Re x_j| = BRANCH_POINT_GUARD, for Re x_j the record's lo and hi
    (Re x_(m-1), or 0 on sheets +-1), each coordinate nudged by -2..2 ulps
    so that the gaps fall on both sides of the guards; at heights clear of
    x_j and level with it, in and beside the band."""
    cut_guard, point_guard = complex_plane.CUT_GUARD, complex_plane.BRANCH_POINT_GUARD
    points = []
    for m in sheets:
        s = _sheet(m)
        for a, b in ((s.lo, s.bp.x.imag), (s.hi, s.near[0].x.imag if m > 1 else 0.0)):
            for im in (b, 0.5 * b, b + 0.5, 2e-4, cut_guard):
                for re in (a - point_guard, a + point_guard):
                    points += [complex(_ulps(re, i), _ulps(sign * im, k))
                               for i in (-2, -1, 0, 1, 2) for k in (-1, 0, 1) for sign in (1, -1)]
        for re in (s.lo - 0.5, 0.5 * (s.lo + s.hi), 0.5 * s.hi, s.lo + 5e-4, s.hi - 5e-4):
            points += [complex(re, sign * _ulps(cut_guard, k)) for k in (-1, 0, 1)
                       for sign in (1, -1)]
    return points


def _probe(monkeypatch, *members):
    """Wrap each (owner, name) member to record its name when called; the
    list of names called."""
    calls = []

    def counted(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    for owner, name in members:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return calls


def _beside_the_band(m):
    """An atlas holding x_1..x_m and the points 2e-10 left of the cut line
    at Re x_m, on the real axis and at half its height, whose roots lie
    within their arc's uncertainty on sheets +-m (m = 600, 601)."""
    big = SheetAtlas.build(m)
    xm = big.branch_points[m - 1].x
    return big, [complex(xm.real, t * xm.imag) - 2e-10 for t in (0.0, 0.5)]


class TestNothingContinued:
    def test_points_and_cut_values_are_solved_directly(self, atlas, monkeypatch):
        # with every continuation step refused, eval_complex on the tests'
        # point sets, boundary values, discontinuities and a cold dispersion
        # table build still run: each is solved at its own point
        def refused(*args, **kwargs):
            raise AssertionError("continued")

        references = []
        for m in (600, 601):
            big, points = _beside_the_band(m)
            for z in points:
                # the walk reaches z from 1e-3 further off the cut line
                clear = z - 1e-3
                ref = _walk_segment(clear, _continued_from_far_anchor(clear, m, big), z)
                references.append((big, z, m, ref))
        monkeypatch.setattr(complex_plane, "_walk_segment", refused)
        for big, z, m, ref in references:
            y = eval_complex(z, m, big).y
            assert abs(y - ref) <= 4e-15 * abs(ref), (z, m)
            assert eval_complex(z, -m, big).y == -y, (z, m)
        for n in (1, 2, 3, 4):
            rng = np.random.default_rng(1600 + n)
            points = (_inner_points(atlas, n, rng) + _off_band_points(atlas, n, rng, 100)
                      + _left_of_branch_points(atlas, n, rng, 20, 1.001e-3, 0.1)
                      + [z for z, _ in _beside_cut_lines(atlas, n, rng, 8)])
            for z in points:
                for sheet in (n, -n):
                    eval_complex(z, sheet, atlas)
        cases = [(-1 + 0j, 1, Side.UPPER), (-1 + 0j, 1, Side.LOWER), (-1e-4 + 0j, 1, Side.UPPER)]
        cases += [(point, n, side) for n in (2, 3, -2)
                  for point, side, _ in _higher_sheet_cases(atlas, n)]
        for point, n, side in cases:
            boundary_value(point, n, side, atlas)
        a, b = atlas.branch_points[0].x.real, atlas.branch_points[0].x.imag
        for u in (-1e-3, -1.0, a + 1e-6, a, 0.0):
            discontinuity_delta0(u, atlas)
        for v in (0.0, 1e-6, 1e-4, 1.0, b - 1e-5, b):
            discontinuity_delta1(v, atlas)
        fresh = SheetAtlas()
        assert abs(dispersion_eval(5 + 0j, fresh) - eval_real(5.0, 1)) < 1e-4


class TestFarBands:
    @pytest.mark.parametrize("m", [600, 601])
    def test_band_values_far_from_the_windows(self, m):
        # in the band of sheet m, 0.8-0.9 of the way up, the value lies where
        # tan w ~ i, within 0.3 of -i*z and far from the windows k = m-1, m;
        # the germ seeds' Halley iterates overflowed cos (a bare
        # OverflowError), and the seed -i*z finds the continued value
        big = SheetAtlas.build(m)
        xm, xp = big.branch_points[m - 1].x, big.branch_points[m - 2].x
        for t in (0.8, 0.85, -0.9):
            z = complex(0.5 * (xm.real + xp.real), t * xm.imag)
            y = eval_complex(z, m, big).y
            ref = _continued_from_far_anchor(z, m, big)
            assert abs(y - ref) <= 4e-15 * abs(ref), z

    def test_above_the_branch_point_right_of_the_band(self, monkeypatch):
        # Re z in [Re x_(m-1), 0] and Im z in [1, 1.02]*Im x_m: z/w ~ 1.02i
        # lies beside the principal atan's cut, and on sheets from ~50 on
        # both windows' roots and every Halley seed's can lie in other
        # sheets' regions; the exterior form's Newton root, polished, is
        # then the one R_m holds.  Each draw returns the value continued
        # from 1.3*z, which stays on sheet m
        atlas = SheetAtlas()
        rng = random.Random(1900)
        points = [(complex(-2.3031848881214803, 960.2709936299362), 300)]
        for m in (300, 500, 1000, 2000, 5000, 10 ** 4):
            s = _sheet(m)
            points += [(complex(rng.uniform(s.hi, 0.0), rng.uniform(1.0, 1.02) * s.bp.x.imag), m)
                       for _ in range(400)]
        calls = []
        newton = complex_plane._newton

        def exterior_counted(form, *args):
            if form == "exterior":
                calls.append(form)
            return newton(form, *args)

        monkeypatch.setattr(complex_plane, "_newton", exterior_counted)
        last = set()
        values = []
        for z, m in points:
            values.append(eval_complex(z, m, atlas).y)
            assert eval_complex(z, -m, atlas).y == -values[-1], (z, m)
            if calls:
                last.add(z)
                calls.clear()
        monkeypatch.undo()
        assert points[0][0] in last and len(last) >= 10
        for (z, m), y in zip(points, values):
            _, ref, label = trace_path(ContinuationPath((1.3 * z, z)), m, atlas)[-1]
            assert label == m and abs(y - ref) <= 4e-15 * abs(ref), (z, m)

    def test_band_of_sheet_one_million(self):
        # the band is 5e-7 wide and the arcs' uncertainty wider: the side
        # rule places each root, and Halley from -i*z (whose denominator
        # ~1 was once refused as degenerate against (1 + |y|)^2) finds it
        m = 10 ** 6
        atlas = SheetAtlas()
        hi, lo = (_sheet(m).near[k].x for k in (0, 1))
        for t in (0.1, 0.45, 0.7, -0.95):
            z = complex(0.5 * (lo.real + hi.real), t * lo.imag)
            y = eval_complex(z, m, atlas).y
            assert _holds(y.conjugate() if z.imag < 0 else y, _sheet(m), z), z
            assert _within_eval_complex_bound(z, y), z


def _assert_guard_fires_as_the_full_guard(sheets):
    """eval_complex raises OnCut on the sheets' guard points and at the
    edges of the guard's gaps exactly where `_full_guard` fires, with the
    full guard's message, and samples each disk route, each guarded one on
    both sides of its guard; the set of (route, fired) seen."""
    atlas = SheetAtlas()
    seen = set()
    points = _guard_points(sheets) + _gap_points(sheets)
    for n in sheets + tuple(-k for k in sheets):
        for z in points:
            expected = _full_guard_message(z, n)
            fired = expected is not None
            message = _on_cut_message(z, n, atlas)
            assert (message is not None) == fired, (z, n, fired)
            assert message == expected, (z, n)
            seen.add((_route(z, n), fired))
    assert seen >= {("right", False), ("left", True), ("left", False),
                    ("band", True), ("band", False)}
    return seen


class TestGuards:
    def test_on_cut_exactly_where_the_full_guard_fires(self):
        # the guard reads the sheet record's floats, the reference each
        # Cut's own distance: they agree at CUT_GUARD and BRANCH_POINT_GUARD
        # +- 1 ulp too; right of the band only sheets +-1 have a cut, at
        # the origin
        seen = _assert_guard_fires_as_the_full_guard((1, 2, 3, 4))
        assert {("exterior", False), ("right", True)} <= seen

    @pytest.mark.parametrize("sheets", [(5, 6, 7, 8), (600,), (10 ** 6,)])
    def test_on_cut_at_the_guards_of_far_sheets(self, sheets):
        assert ("right", True) not in _assert_guard_fires_as_the_full_guard(sheets)

    @pytest.mark.parametrize("m", [600, 601])
    def test_left_of_band_beside_the_previous_branch_point(self, m):
        # the vertical cuts at Re x_(m-1) and Re x_m are under 1e-3 apart, so
        # points left of the band can lie within BRANCH_POINT_GUARD of x_(m-1)
        big = SheetAtlas.build(m)
        xm, xp = big.branch_points[m - 1].x, big.branch_points[m - 2].x
        gap = xp.real - xm.real
        assert gap < 1e-3
        points = []
        for c in (xp, xp.conjugate()):
            for rho in (0.5 * (gap + 1e-3), 9.99e-4, 1.001e-3):
                points += [c + cmath.rect(rho, math.pi + a) for a in (-0.05, 0.0, 0.05)]
        for t in (0.0, 0.5, 0.999):
            on = complex(xm.real, t * xm.imag)
            points += [on, on - 5e-11, on - 2e-10, on + 5e-11]
        fired_left = 0
        for n in (m, -m):
            for z in points:
                fired = _full_guard(z, n)
                assert _raises_on_cut(z, n, big) == fired, (z, n, fired)
                fired_left += fired and _route(z, n) == "left"
        assert fired_left == 2 * (12 + 3)

    @pytest.mark.parametrize("sheets", [(1, 2, 3, 4, 5, 6, 7, 8), (600,), (10 ** 6,)])
    def test_left_of_band_on_cut_by_the_least_cut_distance(self, sheets):
        # left of the band, at CUT_GUARD +- 1 ulp left of the vertical cut
        # at x_m, OnCut fires exactly where the least of all the sheet's
        # cut distances is below CUT_GUARD
        atlas = SheetAtlas()
        cases = []
        for m in sheets:
            s = _sheet(m)
            for t in (0.0, 0.3, 0.7, 0.99, -0.5):
                for z in _straddling(complex(s.lo, t * s.bp.x.imag), -1 + 0j,
                                     complex_plane.CUT_GUARD, (-1, 0, 1)):
                    near = min(complex_plane._cut_distances(z, s)) < complex_plane.CUT_GUARD
                    cases += [(z, n, near) for n in (m, -m)]
        for z, n, near in cases:
            assert _route(z, n) == "left", (z, n)
            assert _raises_on_cut(z, n, atlas) == near, (z, n, near)
        assert {near for _, _, near in cases} == {True, False}

    def test_exterior_route_runs_no_guard(self, atlas, monkeypatch):
        calls = _probe(monkeypatch, (complex_plane, "_guard"), (complex_plane, "_cut_distances"))
        for n in (1, 2, 3, 4, -1, -2, -3, -4):
            r = EXTERIOR_FACTOR * _sheet(abs(n)).disk * (1.0 + 1e-12)
            for z in [cmath.rect(r, 0.3 + k * math.pi / 4) for k in range(8)] + [1e6, -1e300j]:
                eval_complex(z, n, atlas)
        assert not calls
        # a band point inside a gap of the guard runs every guard, and one
        # outside them none: no cut or branch point lies within its gaps
        eval_complex(complex(_sheet(1).lo + 5e-4, 1.0), 1, atlas)
        assert calls == ["_guard", "_cut_distances"]
        calls.clear()
        eval_complex(-1 + 1j, 1, atlas)
        assert not calls

    def test_evaluation_builds_no_cut(self, monkeypatch):
        # the guards and boundary values read the sheet record's floats:
        # only cuts_for builds a Cut
        atlas = SheetAtlas.build(4)
        points = _guard_points((1, 2, 3, 4))[::5]
        cases = [(-1 + 0j, 1, Side.UPPER), (-1 + 0j, 1, Side.LOWER), (-1e-4 + 0j, 1, Side.UPPER)]
        cases += [(point, n, side) for n in (2, 3, -2)
                  for point, side, _ in _higher_sheet_cases(atlas, n)]
        calls = _probe(monkeypatch, (Cut, "distance"), (complex_plane, "cuts_for"))
        for n in (1, 2, 3, 4, -1, -2, -3, -4):
            for z in points:
                _raises_on_cut(z, n, atlas)
        for point, n, side in cases:
            boundary_value(point, n, side, atlas)
        for point, side in ((1 + 0j, Side.UPPER), (-1 + 0j, Side.LEFT)):
            with pytest.raises((NotOnCut, ValueError)):
                boundary_value(point, 1, side, atlas)
        discontinuity_delta0(-1.0, atlas)
        discontinuity_delta1(1.0, atlas)
        dispersion_eval(5 + 0j, SheetAtlas())
        assert not calls

    def test_distance_to_cuts_rejects_non_finite_points(self):
        # a nan point gave nan, and inf gave inf; 1e308+1e308j has a finite
        # modulus, 1.41e308, and so a finite distance
        for z in (complex(math.nan, 0.0), complex(1.0, math.nan), complex(math.inf, 0.0),
                  complex(0.0, -math.inf), -1.7e308 + 1e308j):
            for n in (1, -4):
                with pytest.raises(NonFiniteArgument):
                    distance_to_cuts(z, n)
        for n in (1, -4):
            d = distance_to_cuts(1e308 + 1e308j, n)
            assert abs(d - abs(1e308 + 1e308j)) <= 1e-15 * d
        # each cut's own distance: nan gave nan
        for cut in cuts_for(2):
            for z in (complex(math.nan, 0.0), complex(1.0, math.nan), complex(math.inf, 0.0),
                      complex(0.0, -math.inf)):
                with pytest.raises(NonFiniteArgument):
                    cut.distance(z)


class TestAtlasRange:
    def test_sheet_beyond_the_atlas(self, atlas):
        # the atlas found x_1..x_4 up front; sheet +-5 finds x_5 on first use
        # and gives the values of an atlas that held x_1..x_9 from the start
        big = SheetAtlas.build(9)
        x4 = atlas.branch_points[3].x
        path = ContinuationPath((1 + 1j, 2 + 1j))
        for n in (5, -5):
            # exterior, right and left of the band, in the band
            for z in (100, 1 + 1j, -3 + 1j, -1 + 1j):
                assert eval_complex(z, n, atlas) == eval_complex(z, n, big)
            point = complex(x4.real, 1.0)
            assert (boundary_value(point, n, Side.LEFT, atlas)
                    == boundary_value(point, n, Side.LEFT, big))
            assert trace_path(path, n, atlas) == trace_path(path, n, big)

    def test_numpy_arguments_give_python_values(self, atlas):
        # converted with complex() on entry, so every route runs in Python
        # arithmetic: exterior, window, band and a window point near x_1
        def bits(y):
            return type(y), y.real.hex(), y.imag.hex()

        x1 = atlas.branch_points[0].x
        for z, n in ((3 + 40j, 2), (2 + 2j, 1), (-1 + 1j, -1), (x1 - 0.05, 1)):
            want = bits(continue_from_anchor(z, n))
            assert want[0] is complex
            assert bits(continue_from_anchor(np.complex128(z), n)) == want, z
        assert (bits(continue_from_anchor(np.float64(3.0), 1))
                == bits(continue_from_anchor(3.0, 1)))
        path = ContinuationPath(np.array([1 + 1j, 2 + 1j]))
        assert [type(z) for z in path.waypoints] == [complex, complex]
        got = trace_path(path, 1, atlas)
        want = trace_path(ContinuationPath((1 + 1j, 2 + 1j)), 1, atlas)
        assert [(bits(z), bits(y), n) for z, y, n in got] == [
            (bits(z), bits(y), n) for z, y, n in want]

    def test_values_do_not_depend_on_the_atlas_history(self):
        # values continued from the exterior root at Re z + iE, E =
        # EXTERIOR_FACTOR*|x_m| on z's side, straight down onto z, given a
        # fresh atlas, one that has evaluated sheet 16 and one that found
        # only x_1 up front: trace_path reads no atlas, so all three agree
        # bit for bit
        used = SheetAtlas()
        x16 = find_branch_point(16).x
        eval_complex(complex(0.5 * x16.real, 0.5 * x16.imag), 16, used)
        atlases = (SheetAtlas(), used, SheetAtlas.build(1))
        rng = np.random.default_rng(1300)
        for m in (3, 4, 8):
            disk = abs(find_branch_point(m).x)
            points = []
            while len(points) < 15:
                z = cmath.rect(EXTERIOR_FACTOR * disk * math.sqrt(rng.uniform(0.0, 1.0)),
                               rng.uniform(-math.pi, math.pi))
                if (_branch_distance(z, m) > 0.05
                        and distance_to_cuts(z, m) > 1e-3):
                    points.append(z)
            for z in points:
                start = complex(z.real, math.copysign(EXTERIOR_FACTOR * disk, z.imag))
                values = [trace_path(ContinuationPath((start, z)), m, a)[-1][1]
                          for a in atlases]
                assert values[0] == values[1] == values[2], (z, m, values)

    def test_the_atlas_selects_nothing(self, atlas):
        # the five operations that take an atlas read none: each gives the
        # same bits, or raises the same error, without one, given the
        # conftest's or given an empty one
        def outcome(f, *args):
            try:
                return repr(f(*args))
            except WtanError as exc:
                return type(exc).__name__, str(exc)

        x1 = atlas.branch_points[0].x
        cases = [(eval_complex, z, n) for z, n in (
            (100, 5), (2 + 2j, 1), (1 + 1j, 2), (-3 + 1j, -3), (-1 + 1j, 1),
            (x1 - 0.05, 1), (1 + 2262j, 600), (-1 + 0j, 1), (x1, 2))]
        cases += [(trace_path, ContinuationPath((-1 - 0.5j, -1 + 0.5j)), 1),
                  (trace_path, ContinuationPath((-1.4 + 0.8j, -1.9 + 0.8j)), 1)]
        cases += [(boundary_value, point, n, side) for point, n, side in (
            (-1 + 0j, 1, Side.UPPER), (-1 + 0j, -1, Side.LOWER),
            (complex(x1.real, 0.5), 2, Side.LEFT), (complex(x1.real, -1.0), 1, Side.RIGHT),
            (1 + 0j, 1, Side.UPPER))]
        cases += [(discontinuity_delta0, u) for u in (-1.0, 0.0, 1.0)]
        cases += [(discontinuity_delta1, v) for v in (0.0, 1.0, -1.0)]
        for f, *args in cases:
            assert (outcome(f, *args) == outcome(f, *args, atlas)
                    == outcome(f, *args, SheetAtlas())), (f.__name__, args)

    def test_moved_functions_are_public(self):
        for name in ("continue_from_anchor", "cuts_for", "distance_to_cuts"):
            assert name in complex_plane.__all__ and name in wtan.__all__
            assert getattr(wtan, name) is getattr(complex_plane, name)

    def test_no_operation_builds_an_atlas(self, monkeypatch):
        # local_expansion_check builds no throwaway atlas, and trace_path
        # runs without one
        def refuse(self):
            raise AssertionError("an atlas was built")

        monkeypatch.setattr(SheetAtlas, "__init__", refuse)
        kappa, c2 = local_expansion_check(2, [1e-2, 1e-3])
        assert kappa == pytest.approx(0.5, abs=1e-3)
        assert trace_path(ContinuationPath((-1 - 0.5j, -1 + 0.5j)), 1)[-1][2] == -1

    def test_evaluations_keep_both_caches_bounded(self):
        # in-disk values right of the band on 2*_CACHED sheets, each with
        # its own record and branch points: neither process cache holds
        # more than _CACHED entries
        cap = complex_plane._CACHED
        for m in range(1, 2 * cap + 1):
            z = complex(1.0, m)
            assert abs(z) < EXTERIOR_FACTOR * _sheet(m).disk
            eval_complex(z, m)
        assert complex_plane._point.cache_info().currsize <= cap
        assert complex_plane._sheet.cache_info().currsize <= cap

    def test_caches_stay_bounded(self):
        # ~1500 branch points and records of 1100 sheets: the process keeps
        # at most _CACHED of each, and a branch point found before the cache
        # dropped it is found again bit for bit
        cap, point = complex_plane._CACHED, complex_plane._point
        first = [point(j) for j in range(1, 1500)]
        assert point.cache_info().currsize <= cap
        assert [point(j) for j in range(1, 51)] == first[:50]
        for m in range(1, 1101):
            cuts_for(m)
        assert complex_plane._sheet.cache_info().currsize <= cap

    def test_a_fresh_atlas_solves_no_branch_point_twice(self, monkeypatch):
        # x_j and the sheet records are constants of the function: once one
        # atlas has found those of sheets +-1..+-4, a vertical-cut limit on
        # sheet 2 and a loop's labels around x_1, a second atlas doing the
        # same finds them all in the process's caches.  A solve that refuses
        # stands in for find_branch_point, so nothing found through it
        # enters a cache
        def use(atlas):
            x1 = atlas.branch_points[0].x
            values = [eval_complex(z, n, atlas).y for n in (1, 2, 3, 4, -1, -2, -3, -4)
                      for z in (-1 + 1j, 30 - 40j)]
            values.append(boundary_value(complex(x1.real, 0.5), 2, Side.LEFT, atlas))
            loop = tuple(x1 + 1e-2 * cmath.exp(2j * math.pi * j / 32) for j in range(33))
            return values, trace_path(ContinuationPath(loop), 1, atlas)

        def refuse(j):
            raise AssertionError(f"x_{j} solved again")

        complex_plane._point.cache_clear()
        complex_plane._sheet.cache_clear()
        first = use(SheetAtlas.build(4))
        misses = complex_plane._point.cache_info().misses
        records = complex_plane._sheet.cache_info().misses
        assert misses > 0
        monkeypatch.setattr(complex_plane, "find_branch_point", refuse)
        assert use(SheetAtlas.build(4)) == first
        assert complex_plane._point.cache_info().misses == misses
        assert complex_plane._sheet.cache_info().misses == records


class TestTracePath:
    def test_real_cut_connects_to_mirror_sheet(self, atlas):
        path = ContinuationPath(waypoints=(complex(-1, -0.5), complex(-1, 0.5)))
        rec = trace_path(path, 1, atlas)
        assert rec[0][2] == 1
        assert rec[-1][2] == -1
        check = eval_complex(complex(-1, 0.5), -1, atlas)
        assert abs(check.y - rec[-1][1]) < 1e-12

    def test_vertical_cut_connects_to_next_sheet(self, atlas):
        for height in (0.8, -0.8):
            path = ContinuationPath(waypoints=(complex(-1.4, height),
                                               complex(-1.9, height)))
            rec = trace_path(path, 1, atlas)
            assert rec[-1][2] == 2
            check = eval_complex(complex(-1.9, height), 2, atlas)
            assert abs(check.y - rec[-1][1]) < 1e-12

    def test_double_loop_is_closed(self, atlas):
        x1 = atlas.branch_points[0].x
        r = 1e-3
        wp = tuple(x1 + r * cmath.exp(2j * math.pi * 2 * j / 64)
                   for j in range(65))
        rec = trace_path(ContinuationPath(waypoints=wp), 1, atlas)
        assert abs(rec[-1][1] - rec[0][1]) < 1e-8
        assert rec[-1][2] == 1

    def test_single_loop_swaps_sheets(self, atlas):
        x1 = atlas.branch_points[0].x
        wp = tuple(x1 + 1e-2 * cmath.exp(2j * math.pi * j / 32)
                   for j in range(33))
        rec = trace_path(ContinuationPath(waypoints=wp), 1, atlas)
        assert rec[-1][2] == 2
        assert abs(rec[-1][1] - rec[0][1]) > 1e-2   # landed on the other sheet

    def test_start_on_a_real_cut(self, atlas):
        # unguarded, a point on a real cut takes the limit from above, i*p
        # with p*tanh(p) = -u, on the edge u = 0 of the sheet's region
        for u, n in ((-1.0, 1), (-0.3, -1), (-1.8, 2), (-2.2, 3)):
            y = continue_from_anchor(complex(u, 0.0), n)
            assert abs(y - math.copysign(1.0, n) * 1j * imaginary_boundary_oracle(u)) < 1e-12
        rec = trace_path(ContinuationPath((-1 + 0j, -1 + 0.5j)), 1, atlas)
        assert rec[-1][2] == 1
        assert abs(rec[-1][1] - eval_complex(-1 + 0.5j, 1, atlas).y) < 1e-12

    def test_real_cut_start_is_the_limit_from_above(self):
        # on the axis a root's conjugate is a root too: the start takes the
        # one with Im >= 0 on every sheet (sheets 100 and 500 took -i*p at
        # about 2 in 5 of these points), the limit boundary_value gives
        atlas = SheetAtlas()
        for m in (1, 2, 3, 4, 5, 6, 7, 8, 20, 100, 500, 600, 1000, 5000, 10 ** 4, 10 ** 6):
            s = _sheet(m)
            for k in range(1, 40):
                u = complex(s.lo + (s.hi - s.lo) * k / 40, 0.0)
                for n in (m, -m):
                    ref = boundary_value(u, n, Side.UPPER, atlas)
                    y = continue_from_anchor(u, n)
                    assert abs(y - ref) <= 2 * complex_plane.EPS * abs(ref), (u, n, y, ref)
        # a path started there stays on its sheet: it ended labelled -100
        u = -4.066495378807786
        z, y, label = trace_path(ContinuationPath((u, u + 0.01j)), 100, atlas)[-1]
        assert label == 100
        assert abs(y - eval_complex(z, 100, atlas).y) < 1e-12

    def test_one_step_crosses_several_cut_lines(self, atlas):
        # between Re z = -1 and -3 lie the vertical cut lines of x_1..x_12,
        # and the steps are longer than their gaps: the label is read from
        # the value, not counted from the cuts a step crosses
        rec = trace_path(ContinuationPath((-1 + 1j, -3 + 1j)), 1, atlas)
        assert rec[-1][2] == 13
        assert abs(eval_complex(-3 + 1j, 13, atlas).y - rec[-1][1]) < 1e-12

    def test_labels_agree_with_eval_complex(self):
        # 400 three-waypoint paths from sheets +-1..+-4 in boxes of
        # half-width 3 and 12: each end label's value is the continued one
        big = SheetAtlas.build(8)
        rng = random.Random(7)
        for _ in range(400):
            half = rng.choice((3, 12))
            n = rng.choice((1, 2, 3, 4, -1, -2, -3, -4))
            wp = [complex(rng.uniform(-half, half), rng.uniform(-half, half)) for _ in range(3)]
            z, y, label = trace_path(ContinuationPath(wp), n, big)[-1]
            assert abs(eval_complex(z, label, big).y - y) <= 1e-9, (wp, n, label)

    def test_label_past_the_last_branch_point_raises(self, atlas):
        # at height 1, left of Re x_(2**52) ~ -19.8, the value lies on a
        # sheet past 2**52 (at -19 + 1j on sheet 941130302387098)
        assert trace_path(ContinuationPath((-1 + 1j, -19 + 1j)), 1, atlas)[-1][2] < 2 ** 52
        with pytest.raises(DomainViolation):
            trace_path(ContinuationPath((-1 + 1j, -25 + 1j)), 1, atlas)

    def test_long_paths_return_or_raise_wtan_errors(self, atlas):
        # where tan y -> i the germ's reach is unbounded, so one step took
        # the whole segment and Halley's cos overflowed: these four paths
        # and 4 of the 300 random ones raised a bare OverflowError.  Such a
        # step now fails like any other; those eight pass sheet 2**52
        for end in (-1e3 + 1j, -1e4 + 1j, -1e4 + 100j, -1e4 - 1j):
            with pytest.raises(DomainViolation):
                trace_path(ContinuationPath((-1 + 1j, end)), 1, atlas)
        rng = random.Random(5)
        for _ in range(300):
            path = ContinuationPath([complex(rng.uniform(-1e4, 1e4), rng.uniform(-50.0, 50.0))
                                     for _ in range(2)])
            try:
                trace_path(path, 1, atlas)
            except WtanError:
                pass

    def test_steps_sized_by_the_germ(self, monkeypatch):
        # far from its branch points a step spans ~|z|/8: the sheet-600 walk
        # down 2261 units, and a walk from 1e6 to 2e6, take a few dozen
        big = SheetAtlas()
        y0 = continue_from_anchor(1 + 2262j, 600)
        calls = []
        refine = complex_plane._refine
        monkeypatch.setattr(complex_plane, "_refine",
                            lambda x, y: calls.append(x) or refine(x, y))
        y = _walk_segment(1 + 2262j, y0, 1 + 1j)
        monkeypatch.undo()
        assert len(calls) <= 452
        assert abs(y - eval_complex(1 + 1j, 600, big).y) <= 1e-12 * abs(y)
        rec = trace_path(ContinuationPath((1e6, 2e6)), 1, big)
        assert len(rec) <= 100
        assert rec[-1][2] == 1
        assert abs(rec[-1][1] - eval_complex(2e6, 1, big).y) <= 4e-16 * abs(rec[-1][1])

    def test_refused_steps_are_step_too_large(self, atlas, monkeypatch):
        # the start at 50 is an exterior root; with every Halley polish
        # refused each step halves until it falls below MIN_STEP
        monkeypatch.setattr(complex_plane, "_refine", lambda x, y: None)
        with pytest.raises(StepTooLarge, match="fell below"):
            trace_path(ContinuationPath((50 + 0j, 60 + 1j)), 1, atlas)

    def test_predictor_holds_still_at_a_branch_point(self):
        # at x_1 the denominator of dw/dx = w/(x + x^2 + w^2) is 4e-15: the
        # Euler predictor returns w_1 unmoved
        bp = find_branch_point(1)
        assert abs(bp.y * bp.y + bp.x * bp.x + bp.x) < 1e-12
        for dz in (0.1, 1e-3j, -0.5 + 0.5j):
            assert _predict(bp.x, bp.y, dz) == bp.y

    def test_waypoint_validation(self):
        with pytest.raises(ValueError):
            ContinuationPath(waypoints=(1 + 1j,))
        with pytest.raises(ValueError):
            ContinuationPath((1 + 1j, 2 + 1j))._replace(waypoints=(1 + 1j,))


def _higher_sheet_cases(atlas, n):
    """(point, side, direction of the side) on the real and both vertical
    cuts of sheet n, |n| >= 2."""
    m = abs(n)
    x_in, x_out = atlas.branch_points[m - 2].x, atlas.branch_points[m - 1].x
    return [(complex(0.5 * (x_in.real + x_out.real), 0.0), Side.UPPER, 1j),
            (complex(0.5 * (x_in.real + x_out.real), 0.0), Side.LOWER, -1j),
            (complex(x_out.real, 0.5 * x_out.imag), Side.LEFT, -1.0),
            (complex(x_out.real, -0.5 * x_out.imag), Side.RIGHT, 1.0),
            (complex(x_in.real, 0.5 * x_in.imag), Side.RIGHT, 1.0),
            (complex(x_in.real, 0.5 * x_in.imag), Side.LEFT, -1.0)]


class TestBoundaryValues:
    def test_upper_value_on_real_cut(self, atlas):
        got = boundary_value(-1 + 0j, 1, Side.UPPER, atlas)
        assert got.imag == pytest.approx(imaginary_boundary_oracle(-1.0), abs=1e-9)
        assert abs(got.real) < 1e-9

    def test_lower_is_conjugate(self, atlas):
        up = boundary_value(-1 + 0j, 1, Side.UPPER, atlas)
        dn = boundary_value(-1 + 0j, 1, Side.LOWER, atlas)
        assert abs(dn - up.conjugate()) < 1e-9

    def test_square_root_leading_behavior(self, atlas):
        u = -1e-4
        got = boundary_value(complex(u, 0.0), 1, Side.UPPER, atlas)
        assert got.imag == pytest.approx(math.sqrt(-u), rel=1e-3)
        # this close to the x = 0 branch point the value is still a polished root
        assert abs(got - 1j * imaginary_boundary_oracle(u)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, -2])
    def test_values_on_higher_sheets(self, atlas, n):
        # real-cut and vertical-cut limits off sheet 1: each is a root of the
        # defining equation within eval_complex's residual bound, and lies on
        # the requested side, i.e. next to the value just off the cut there
        for point, side, direction in _higher_sheet_cases(atlas, n):
            y = boundary_value(point, n, side, atlas)
            assert _within_eval_complex_bound(point, y), (point, side)
            near = eval_complex(point + 1e-6 * direction, n, atlas).y
            assert abs(y - near) < 1e-5, (point, side)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, -1, -2, -3, -4, -5])
    def test_at_the_branch_points(self, atlas, n):
        # at x_(m-1) and x_m both one-sided limits are w_j, the double root,
        # conjugated below the axis and negated on negative sheets
        m = abs(n)
        for j in ((m - 1, m) if m > 1 else (m,)):
            bp = find_branch_point(j)
            for point, w in ((bp.x, bp.y), (bp.x.conjugate(), bp.y.conjugate())):
                for side in (Side.LEFT, Side.RIGHT):
                    assert boundary_value(point, n, side, atlas) == (w if n > 0 else -w), \
                        (j, point, side)

    @pytest.mark.parametrize("m", [100, 500, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 8])
    def test_vertical_limits_on_far_sheets(self, m):
        # the band between the cut lines is ~0.5/m wide; both one-sided
        # limits on both vertical cuts of sheets +-m, at 20 heights from the
        # foot up and their conjugates, each return, lie within eps of the
        # 40-digit root (plus the rounding of the point over the slope
        # |f'|, f = w tan w) and match eval_complex beside the cut on the
        # same side, between 2*CUT_GUARD and a tenth of the band away (at
        # the foot, as far above the axis); on sheets 100 and 500 the germ
        # root is refused at some feet, where the region holds the limit
        # from above and its conjugate alike
        atlas = SheetAtlas()
        near = _sheet(m).near
        d = min(0.05 * (near[0].x.real - near[1].x.real), 1e-8)
        assert d >= 2 * complex_plane.CUT_GUARD
        for bp in near:
            for k in range(20):
                for h in {k / 20 * bp.x.imag, -k / 20 * bp.x.imag}:
                    point = complex(bp.x.real, h)
                    for side, e in ((Side.LEFT, -1.0), (Side.RIGHT, 1.0)):
                        y = boundary_value(point, m, side, atlas)
                        assert boundary_value(point, -m, side, atlas) == -y
                        with mp.workdps(40):
                            r = _root_40(point, y)
                            t = mp.tan(r)
                            slope = abs(t + r * (1 + t * t))
                            bound = complex_plane.EPS * (abs(r) + abs(point) / slope)
                            assert abs(mp.mpc(y.real, y.imag) - r) <= bound, (point, side)
                        beside = complex(point.real + e * d, h or d)
                        for n in (m, -m):
                            near_y = eval_complex(beside, n, atlas).y
                            assert abs(near_y - (y if n > 0 else -y)) <= 1e-6 * (1 + abs(y)), \
                                (point, side, n)

    def test_beside_the_branch_points(self):
        # 1-64 ulps below x_(m-1) and x_m, and as far above their conjugates,
        # both limits return on sheets +-m.  At six of these points the
        # germ's Halley root stalls 5e-12 to 6e-9 times (1+|w_j|) from w_j,
        # on the other half of A_j, and no root is placed in R_m: they
        # raised NoConvergence.  There the germ's root stands, within
        # sqrt(eps)*(1+|w_j|) of the 40-digit root on the side's half
        stalled = {(3, 2, 2, Side.RIGHT), (3, 3, 1, Side.LEFT), (4, 3, 1, Side.RIGHT),
                   (100, 100, 1, Side.RIGHT), (10 ** 4, 9999, 2, Side.RIGHT),
                   (10 ** 6, 999999, 1, Side.RIGHT)}
        checked = set()
        for m in (2, 3, 4, 5, 6, 7, 8, 20, 100, 600, 10 ** 4, 10 ** 6):
            for bp in _sheet(m).near:
                im = bp.x.imag
                for k in range(1, 65):
                    im = math.nextafter(im, -math.inf)
                    point = complex(bp.x.real, im)
                    for side in (Side.LEFT, Side.RIGHT):
                        y = boundary_value(point, m, side)
                        assert boundary_value(point, -m, side) == -y
                        assert boundary_value(point.conjugate(), m, side) == y.conjugate()
                        if (m, bp.n, k, side) in stalled:
                            checked.add((m, bp.n, k, side))
                            # right side: the left half on sheet j, the
                            # right half on sheet j+1
                            left, right = _roots_beside_40(point, bp)
                            r = right if (side is Side.RIGHT) == (bp.n == m - 1) else left
                            tol = math.sqrt(complex_plane.EPS) * (1 + abs(bp.y))
                            assert abs(mp.mpc(y.real, y.imag) - r) <= tol, (m, bp.n, k, side)
        assert checked == stalled

    @pytest.mark.parametrize("m", [1, 2, 600])
    def test_vertical_limit_at_the_branch_points(self, m):
        # the solver itself gives the double root w_j at x_j and its
        # conjugate at the conjugate, from both sides
        s = _sheet(m)
        for bp in s.near:
            for point, w in ((bp.x, bp.y), (bp.x.conjugate(), bp.y.conjugate())):
                for right in (False, True):
                    assert repr(complex_plane._vertical_limit(point, s, bp, right)) == repr(w), \
                        (bp.n, point, right)

    def test_failed_polish_is_no_convergence(self, atlas, monkeypatch):
        # when no Halley polish succeeds, neither the germ seed's nor the
        # one of the root placed in the sheet's region, the vertical-cut
        # limit is refused with a WtanError
        bp = find_branch_point(1)
        monkeypatch.setattr(complex_plane, "_refine", lambda x, y: None)
        with pytest.raises(NoConvergence):
            boundary_value(complex(bp.x.real, 0.5 * bp.x.imag), 1, Side.RIGHT, atlas)

    def test_unsolved_real_cut_limit_is_no_convergence(self, atlas, monkeypatch):
        monkeypatch.setattr(complex_plane, "_newton", lambda form, x, k, w: None)
        with pytest.raises(NoConvergence, match="tanh"):
            boundary_value(-1 + 0j, 1, Side.UPPER, atlas)

    def test_limit_off_its_half_is_no_convergence(self, atlas, monkeypatch):
        # every polished root mirrored across Re w_1: the germ's root and
        # the placed one land on the other half of the cut's image, and the
        # left limit of sheet 1 is refused
        bp = find_branch_point(1)
        refine = complex_plane._refine

        def mirrored(x, y):
            y = refine(x, y)
            return None if y is None else complex(2.0 * bp.y.real - y.real, y.imag)

        monkeypatch.setattr(complex_plane, "_refine", mirrored)
        with pytest.raises(NoConvergence, match="off its half"):
            boundary_value(complex(bp.x.real, 0.5 * bp.x.imag), 1, Side.LEFT, atlas)

    def test_side_validation(self, atlas):
        with pytest.raises(ValueError):
            boundary_value(-1 + 0j, 1, Side.LEFT, atlas)
        with pytest.raises(NotOnCut):
            boundary_value(5 + 0j, 1, Side.UPPER, atlas)

    def test_side_given_by_its_value(self, monkeypatch):
        # a side is taken as Side(side): "right" on the vertical cut gave
        # the left limit, and "upper" on the real cut a bare AttributeError
        x1 = _sheet(1).bp.x
        vertical, real = complex(x1.real, 1.0), -1 + 0j
        assert boundary_value(vertical, 1, "right") != boundary_value(vertical, 1, "left")
        for point in (vertical, real, -1.5 + 0j):
            for n in (1, -1, 2):
                for side in Side:
                    try:
                        want = repr(boundary_value(point, n, side))
                    except (ValueError, NotOnCut) as exc:
                        want = f"{type(exc).__name__}: {exc}"
                    try:
                        got = repr(boundary_value(point, n, side.value))
                    except (ValueError, NotOnCut) as exc:
                        got = f"{type(exc).__name__}: {exc}"
                    assert got == want, (point, n, side)
        calls = _probe(monkeypatch, (complex_plane, "_check_on_cut"),
                       (complex_plane, "_tanh_root"), (complex_plane, "_vertical_limit"))
        for point in (vertical, real):
            for side in (None, 3, "Right", "UPPER", "up", 1.0):
                with pytest.raises(ValueError, match="is not a valid Side"):
                    boundary_value(point, 1, side)
        assert not calls


def refine_16_steps(x, y):
    """`_refine` as it was written before it read cycles, with the number of
    Halley steps (core's, unwrapped) it took: every stall runs out all 16."""
    try:
        for i in range(1, 17):
            y_new = wtan.core.halley_step(x, y)
            if abs(y_new - y) <= 1e-15 * (1.0 + abs(y_new)):
                return y_new, i
            y = y_new
    except (PoleProximity, OverflowError):
        return None, i
    return (y if defining_residual(x, y) <= wtan.core.TOL * (1.0 + abs(x)) else None), 16


def _stalled_seeds():
    """(x, germ seed) pairs where Halley stalls beside x_j: 1..256 ulps
    below x_j on sheets 1, 2, 8, 100 and 10^4, then the vertical-cut nodes
    of both dispersion layouts with t < 0.05*sqrt(Im x_1); both halves."""
    points = []
    for j in (1, 2, 8, 100, 10 ** 4):
        bp = complex_plane._point(j)
        im = bp.x.imag
        for _ in range(256):
            im = math.nextafter(im, 0.0)
            points.append((complex(bp.x.real, im), bp))
    bp = complex_plane._point(1)
    b = bp.x.imag
    for layout in (complex_plane.DISPERSION_FINE, complex_plane.DISPERSION_COARSE):
        points += [(complex(bp.x.real, b - t * t), bp)
                   for t in _panel_nodes(math.sqrt(b), *layout)[0] if t < 0.05 * math.sqrt(b)]
    return [(x, bp.y + half * cmath.sqrt(x - bp.x)) for x, bp in points for half in (1.0, -1.0)]


class TestRefineCycles:
    def test_same_root_as_sixteen_steps(self, monkeypatch):
        # bit for bit, None included; where the iterates repeat, fewer steps
        # than the reference's 16
        seeds = _stalled_seeds()
        assert len(seeds) == 2 * (5 * 256 + 13)
        calls = _count_halley_steps(monkeypatch)
        cut_short = []
        for x, y in seeds:
            del calls[:]
            got = _refine(x, y)
            want, steps = refine_16_steps(x, y)
            assert (got is None) == (want is None), (x, y)
            if got is not None:
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), \
                    (x, y)
            cut_short.append(len(calls) < steps)
        assert sum(cut_short) > 300
        # a cold dispersion build meets the cycle at these nodes
        assert sum(cut_short[-26:]) >= 10


class TestDiscontinuities:
    def test_delta0_small_u(self, atlas):
        u = -1e-3
        assert discontinuity_delta0(u, atlas) == pytest.approx(
            math.sqrt(-u), rel=2e-3)

    def test_delta0_unit(self, atlas):
        assert discontinuity_delta0(-1.0, atlas) == pytest.approx(
            imaginary_boundary_oracle(-1.0), abs=1e-9)
        assert discontinuity_delta0(-1.0, atlas) == pytest.approx(1.19968, abs=1e-5)

    def test_delta0_at_cut_end_solves_boundary_equation(self, atlas):
        # where the real cut meets the vertical one the upper boundary value
        # still solves p*tanh(p) = -u; continuity pins it at ~1.752810
        a = atlas.branch_points[0].x.real
        u = a + 1e-6
        got = discontinuity_delta0(u, atlas)
        assert got == pytest.approx(imaginary_boundary_oracle(u), abs=1e-6)
        assert got == pytest.approx(1.752810, abs=1e-4)

    def test_delta0_at_exact_junction(self, atlas):
        # the exact left endpoint of the real cut: the upper boundary value
        # is the limit from the right, approached horizontally
        a = atlas.branch_points[0].x.real
        got = discontinuity_delta0(a, atlas)
        assert got == pytest.approx(imaginary_boundary_oracle(a), abs=1e-6)

    def test_delta1_at_exact_axis(self, atlas):
        # v = 0 is the junction; the value is the limit from above
        d0 = discontinuity_delta1(0.0, atlas)
        d1 = discontinuity_delta1(1e-6, atlas)
        assert abs(d0 - d1) < 1e-4

    def test_the_boundary_values_bit_for_bit(self):
        # D0 is Im of the upper limit on the real cut, and D1 half the
        # right-minus-left jump of the limits on the vertical cut at the
        # clamped height: the floats boundary_value gives, on a seeded
        # sample and at the range edges
        a, b = _sheet(1).bp.x.real, _sheet(1).bp.x.imag
        rng = random.Random(41)
        us = [a - 1e-12, a, -0.0, 0.0, 1e-12] + [rng.uniform(a, 0.0) for _ in range(100)]
        vs = [-1e-12, -0.0, 0.0, b, b + 1e-12] + [rng.uniform(0.0, b) for _ in range(100)]
        for u in us:
            want = boundary_value(complex(u, 0.0), 1, Side.UPPER).imag
            assert repr(discontinuity_delta0(u)) == repr(want), u
        for v in vs:
            point = complex(a, min(max(v, 0.0), b))
            want = 0.5 * (boundary_value(point, 1, Side.RIGHT) - boundary_value(point, 1, Side.LEFT))
            assert repr(discontinuity_delta1(v)) == repr(want), v

    def test_delta0_range(self, atlas):
        a = atlas.branch_points[0].x.real
        for u in (0.5, -2.0, math.nextafter(a - 1e-12, -math.inf), math.nextafter(1e-12, math.inf),
                  math.nan, math.inf, -math.inf):
            with pytest.raises(OutOfCutRange) as info:
                discontinuity_delta0(u, atlas)
            assert str(info.value) == f"u={u} outside the real cut [{a}, 0]"

    def test_delta1_vanishes_at_branch_point(self, atlas):
        b = atlas.branch_points[0].x.imag
        assert abs(discontinuity_delta1(b, atlas)) < 1e-6
        assert abs(discontinuity_delta1(b - 1e-5, atlas)) < 1e-2

    def test_delta1_finite_inside(self, atlas):
        d = discontinuity_delta1(1.0, atlas)
        assert abs(d) > 0.5

    def test_delta1_at_axis_matches_trace(self, atlas):
        # half the jump across the vertical cut at the real axis, checked by
        # continuing across the cut from both sides
        a = atlas.branch_points[0].x.real
        d = discontinuity_delta1(1e-4, atlas)
        # continuation across the cut: trace from the right side to the left
        path = ContinuationPath(waypoints=(complex(a + 0.3, 1e-4),
                                           complex(a - 0.3, 1e-4)))
        rec = trace_path(path, 1, atlas)
        assert rec[-1][2] == 2
        # the traced germ crosses continuously; the sheet-1 left value is
        # obtained directly, and the half-difference reproduces delta1
        left_sheet1 = eval_complex(complex(a - 0.3, 1e-4), 1, atlas).y
        right_sheet1 = eval_complex(complex(a + 0.3, 1e-4), 1, atlas).y
        coarse = 0.5 * (right_sheet1 - left_sheet1)
        # same sign structure and magnitude scale as the on-cut jump
        assert (coarse.real < 0) == (d.real < 0)
        assert (coarse.imag > 0) == (d.imag > 0)

    def test_delta1_range(self, atlas):
        b = atlas.branch_points[0].x.imag
        for v in (5.0, -0.1, math.nextafter(-1e-12, -math.inf), math.nextafter(b + 1e-12, math.inf),
                  math.nan, math.inf, -math.inf):
            with pytest.raises(OutOfCutRange) as info:
                discontinuity_delta1(v, atlas)
            assert str(info.value) == f"v={v} outside [0, {b}]"


class TestDispersion:
    def test_real_point_matches_real_axis(self, atlas):
        got = dispersion_eval(5 + 0j, atlas)
        assert abs(got - eval_real(5.0, 1)) < 1e-4

    def test_large_argument_limit(self, atlas):
        got = dispersion_eval(4e3 + 0j, atlas)
        assert got.real == pytest.approx(math.pi / 2, abs=2e-3)
        assert abs(got.imag) < 1e-6

    def test_complex_point(self, atlas):
        z = 2 + 2j
        got = dispersion_eval(z, atlas)
        ref = eval_complex(z, 1, atlas).y
        assert abs(got - ref) < 1e-4

    def test_ten_point_closure(self, atlas):
        for z in CLOSURE_POINTS:
            diff = abs(dispersion_eval(z, atlas) - eval_complex(z, 1, atlas).y)
            assert diff < 1e-4, z

    def test_closure_to_working_precision(self, atlas):
        # the cut tables are polished roots on the cuts, so the quadrature is
        # the only remaining error and closes to near rounding level
        for z in CLOSURE_POINTS:
            diff = abs(dispersion_eval(z, atlas) - eval_complex(z, 1, atlas).y)
            assert diff <= 1e-12, z

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(math.nan, 1.0),
                                   complex(math.inf, 0.0), -1.7e308 + 1e308j])
    def test_non_finite_point_raises(self, atlas, z):
        # nan gave nan + nanj, and an infinite modulus the limit pi/2, where
        # eval_complex raises
        with pytest.raises(NonFiniteArgument):
            dispersion_eval(z, atlas)

    def test_quadrature_failure_guard(self, atlas):
        # next to the real cut the Cauchy kernel outruns both panel layouts
        with pytest.raises(QuadratureFailure):
            dispersion_eval(-0.5 + 1e-3j, atlas)


def _gauss_legendre_reference(n):
    """40-digit nodes (ascending) and weights by Newton on mpmath's P_n."""
    with mp.workdps(40):
        rule = []
        for i in range(n):
            x = mp.cos(mp.pi * (i + mp.mpf(0.75)) / (n + mp.mpf(0.5)))
            for _ in range(50):
                q = mp.legendre(n - 1, x)
                x -= mp.legendre(n, x) * (1 - x * x) / (n * (q - x * mp.legendre(n, x)))
            rule.append((x, 2 * (1 - x * x) / (n * mp.legendre(n - 1, x)) ** 2))
        rule.sort()
        return [x for x, _ in rule], [w for _, w in rule]


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [10, 16, 24])
    def test_against_40_digit_reference(self, n):
        xs, ws = _gauss_legendre(n)
        ref_x, ref_w = _gauss_legendre_reference(n)
        assert len(xs) == len(ws) == n
        assert list(xs) == sorted(xs)
        assert xs == tuple(-x for x in reversed(xs))      # symmetric nodes
        for x, w, rx, rw in zip(xs, ws, ref_x, ref_w):
            assert abs(x - rx) <= 2 * math.ulp(float(rx)), (x, rx)
            assert abs(w - rw) <= 5e-13 * rw, (w, rw)
        assert abs(math.fsum(ws) - 2.0) <= 4 * complex_plane.EPS
        # exact for every polynomial of degree <= 2n - 1
        moment = math.fsum(w * x ** (2 * n - 2) for x, w in zip(xs, ws))
        assert abs(moment - 2.0 / (2 * n - 1)) <= 1e-14

    @pytest.mark.parametrize("n", [10, 16, 24])
    def test_against_numpy(self, n):
        # numpy's own weights are 1.2e-13 off the reference at n = 24
        xs, ws = _gauss_legendre(n)
        np_x, np_w = np.polynomial.legendre.leggauss(n)
        for x, w, nx, nw in zip(xs, ws, np_x.tolist(), np_w.tolist()):
            assert abs(x - nx) <= 2 * math.ulp(nx), (x, nx)
            assert abs(w - nw) <= 5e-13 * nw, (w, nw)

    def test_panel_nodes_compose_the_rule(self):
        pts, wts = _panel_nodes(3.0, 2, 10)
        assert pts == sorted(pts) and 0.0 < pts[0] and pts[-1] < 3.0
        assert math.fsum(wts) == pytest.approx(3.0, abs=1e-15)
        # a degree-19 polynomial per panel integrates exactly
        assert math.fsum(w * x ** 19 for x, w in zip(pts, wts)) == pytest.approx(
            3.0 ** 20 / 20, rel=1e-14)
