"""Property tests of the real and complex solvers over the whole float64 range.

Real axis: eval_real solves for the offset from a window end and never
checks a residual, so the returned value must either meet the residual
TOL*(1+|x|) or bracket the root to within 8 ulp; next to the tan pole
(|x| past 64*(|n|-1/2)) only the second is within float64's reach.  Both
checks are made in mpmath at 40 + |log10 x| digits, enough to resolve
g(w) = w*sin(w) - x*cos(w) at the ulp scale for subnormal and huge x alike.

Complex plane: eval_complex on sheets +-1..+-4 for |z| up to 1.7e308,
drawn both from |z| <= 18, where the cuts of those sheets lie, and with
log10|z| spread over [-2, 308.23]; and on sheets up to 1e6, and at 2^53
and 1e18, on the routes that solve directly: outside the cut disk and
right of the band of cuts inside it.  Past |n| = 2^1020, where (|n|-1/2)*pi
overflows, both solvers raise DomainViolation.

Any real: eval_real, eval_series, eval_cheb, chebyshev.fit, WellModel and
the variational bounds take numpy float16, float32 and float64 scalars,
ints (past float64's range included) and bools as the float nearest them,
+-inf past the range.

The public surface: every public callable that takes a real or complex
value (SURFACE, checked against wtan.__all__) is called at ints past
float64's range, True, numpy scalars, +-inf, nan, +-0.0 and 5e-324.  Each
returns Python floats or complex numbers, or records of them, or raises a
WtanError, ValueError or TypeError; and each value gives what the Python
float nearest it gives (+-inf past the range).
"""

import cmath
import enum
import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import wtan
import wtan.core
from wtan import complex_plane
from wtan.branch_points import find_branch_point, local_expansion_check
from wtan.chebyshev import eval_cheb, fit
from wtan.complex_plane import (EXTERIOR_FACTOR, ContinuationPath, SheetAtlas, boundary_value,
                                continue_from_anchor, cuts_for, discontinuity_delta0,
                                discontinuity_delta1, dispersion_eval, distance_to_cuts,
                                eval_complex, trace_path)
from wtan.core import (branch_identity_residual, defining_residual, derivative, eval_real,
                       halley_step, second_derivative)
from wtan.errors import DomainViolation, OnCut, WtanError
from wtan.integrals import check_indefinite_log, check_indefinite_logsin, lnsin_tail
from wtan.quantum import (WellModel, rayleigh_quotient, spectrum, variational_bound_1,
                          variational_bound_2, wavefunction)
from wtan.series import eval_series, large_x_coeffs, small_x_coeffs

EPS = 2.220446049250313e-16

magnitudes = st.floats(min_value=5e-324, max_value=1.7e308)
signs = st.sampled_from([-1.0, 1.0])
branches = st.integers(min_value=1, max_value=10_000)


def in_window(x, n, y):
    """y lies in the closed real-axis window of branch n >= 1.

    The window's ends are multiples of pi rounded to float64.  Once |x| is
    past ~1e16 the root lies within half an ulp of the pole end
    (n - 1/2)*pi, so even the correctly rounded root can sit one ulp beyond
    the rounded end; one ulp is all that is allowed.
    """
    if x > 0.0:
        lo, hi = (n - 1) * math.pi, (n - 0.5) * math.pi
    else:
        lo, hi = (n - 0.5) * math.pi, n * math.pi
    return lo - math.ulp(lo) <= y <= hi + math.ulp(hi)


def root_certified(x, y):
    """Residual within TOL*(1+|x|), or a sign change of g across y +- 8 ulp."""
    with mp.workdps(40 + int(abs(math.log10(abs(x))))):
        X, Y = mp.mpf(x), mp.mpf(y)
        if abs(Y * mp.tan(Y) - X) <= wtan.core.TOL * (1.0 + abs(x)):
            return True
        h = 8 * mp.mpf(math.ulp(y))

        def g(w):
            return w * mp.sin(w) - X * mp.cos(w)

        return g(Y - h) * g(Y + h) <= 0


@settings(max_examples=400)
@given(magnitudes, signs, branches)
@example(1.795395e-318, -1.0, 384580)   # root offset |x|/C underflows to 0
@example(1e40, 1.0, 1)                  # w*tan(w) rounds to -x below pi/2
@example(1e40, -1.0, 2)
def test_eval_real_whole_range(mag, sign, n):
    x = sign * mag
    y = eval_real(x, n)
    assert in_window(x, n, y)
    assert eval_real(x, -n) == -y
    assert root_certified(x, y)


moduli = st.one_of(st.floats(min_value=0.0, max_value=18.0),
                   st.floats(min_value=-2.0, max_value=308.23).map(lambda e: 10.0 ** e))
angles = st.floats(min_value=-math.pi, max_value=math.pi)
sheets = st.sampled_from([1, 2, 3, 4, -1, -2, -3, -4])


@settings(max_examples=400)
@given(modulus=moduli, angle=angles, n=sheets)
@example(modulus=1e12, angle=0.5 * math.pi, n=1)
@example(modulus=1.7e308, angle=0.75 * math.pi, n=-4)
@example(modulus=1.1754943508222875e-38, angle=0.0, n=2)  # tiny iterate, huge g'
def test_eval_complex_whole_range(atlas, modulus, angle, n):
    z = cmath.rect(modulus, angle)
    try:
        y = eval_complex(z, n, atlas).y
    except OnCut:     # within the documented guard of a cut or branch point
        reject()
    # reflection and odd symmetry in the sheet label
    y_conj = eval_complex(z.conjugate(), n, atlas).y
    assert abs(y_conj - y.conjugate()) <= 4 * EPS * (1 + abs(y))
    assert eval_complex(z, -n, atlas).y == -y
    # a returned root is a Halley fixed point, to rounding scaled by the
    # root's condition |z y / (y^2 + z^2 + z)| (large next to a branch point)
    if abs(cmath.cos(y)) >= 1e-8:
        cond = abs(z) * abs(y) / abs(y * y + z * z + z)
        assert abs(halley_step(z, y) - y) <= 8 * EPS * (1 + abs(y) + cond)
    # outside the cut disk the value is finite and labels its own sheet
    if abs(z) >= EXTERIOR_FACTOR * complex_plane._sheet(abs(n)).disk:
        assert math.isfinite(y.real) and math.isfinite(y.imag)
        limit = math.copysign((abs(n) - 0.5) * math.pi, n)
        assert abs(y - limit) < 0.5 * math.pi


def test_eval_complex_far_imaginary(atlas):
    # raised StepTooLarge while every value was continued from a real anchor
    y = eval_complex(1e12j, 1, atlas).y
    with mp.workdps(40):
        z, root = mp.mpc(0, 1e12), mp.pi / 2
        for _ in range(3):
            root = mp.pi / 2 - mp.atan(root / z)
        assert abs(y - root) <= 4 * EPS * abs(y)


def _on_any_sheet(atlas, z, n):
    """eval_complex at z on sheets n and -n and at conj(z) on sheet n, and
    the number of branch points they had to find.  The process's caches of
    branch points and sheet records are emptied before and after, so the
    count starts cold and nothing found through the patch stays in them."""
    complex_plane._point.cache_clear()
    complex_plane._sheet.cache_clear()
    try:
        with mock.patch.object(complex_plane, "find_branch_point",
                               side_effect=find_branch_point) as found:
            values = [eval_complex(z, n, atlas), eval_complex(z, -n, atlas),
                      eval_complex(z.conjugate(), n, atlas)]
    finally:
        complex_plane._point.cache_clear()
        complex_plane._sheet.cache_clear()
    return values, found.call_count


def _check_any_sheet(atlas, z, n, exterior):
    (v, minus, conj), found = _on_any_sheet(atlas, z, n)
    y = v.y
    assert found <= 2                     # x_n and x_(n-1) at most: no O(n) work
    assert minus.y == -y
    assert abs(conj.y - y.conjugate()) <= 4 * EPS * (1 + abs(y))
    if exterior:
        # the contraction certificate: |1/(z + y^2/z)| <= 1/2 and
        # |y - c + atan(y/z)| <= 4 eps (1 + |y|) put y within 8 eps of the root
        c = (n - 0.5) * math.pi
        assert abs(1.0 / (z + y * y / z)) <= 0.5
        assert abs(y - c + cmath.atan(y / z)) <= 4 * EPS * (1 + abs(y))


def _any_sheet_point(n, exterior, s, angle):
    """A point of sheet n's exterior (|z| up to 1e10 times its edge), or right
    of its band inside the disk (s in [0, 1] spreads it over the disk)."""
    edge = EXTERIOR_FACTOR * abs(find_branch_point(n).x)
    if exterior:
        return cmath.rect(edge * 10.0 ** (10.0 * s), angle)
    z = cmath.rect(edge * math.sqrt(s) * (1.0 - 1e-9), 0.5 * angle)
    return z if z.real > 0.0 else None


@settings(max_examples=300)
@given(n=st.integers(min_value=1, max_value=10 ** 6), exterior=st.booleans(),
       s=st.floats(min_value=0.0, max_value=1.0), angle=angles)
def test_eval_complex_on_any_sheet(atlas, n, exterior, s, angle):
    # sheets up to 1e6 on the direct routes, from one atlas shared by every
    # example: oddness, reflection and the exterior certificate
    z = _any_sheet_point(n, exterior, s, angle)
    if z is None or (n == 1 and abs(z) < complex_plane.CUT_GUARD):
        reject()
    _check_any_sheet(atlas, z, n, exterior)


@pytest.mark.parametrize("n", [2 ** 53, 10 ** 18])
@pytest.mark.parametrize("exterior", [True, False])
def test_eval_complex_past_float_resolution(atlas, n, exterior):
    # outside the cut disk a certified value or a WtanError, never a bare
    # Python exception; inside it DomainViolation, as float64 no longer
    # orders the sheet's branch points
    z = _any_sheet_point(n, exterior, 0.3, 0.5)
    if not exterior:
        for sheet in (n, -n):
            with pytest.raises(DomainViolation):
                eval_complex(z, sheet, atlas)
        return
    try:
        _check_any_sheet(atlas, z, n, exterior)
    except WtanError:
        pass


@pytest.mark.parametrize("n", [2 ** 1020, 2 ** 1020 + 1, -(2 ** 1020 + 1), 10 ** 309])
def test_branch_index_at_the_float_limit(atlas, n):
    # a value or a WtanError up to |n| = 2**1020, and past it DomainViolation
    # from both solvers, never the bare OverflowError of float(n)
    calls = (lambda: eval_real(1.0, n), lambda: eval_real(-3.0, n),
             lambda: eval_complex(2 + 2j, n, atlas), lambda: eval_complex(-2 + 2j, n, atlas))
    for call in calls:
        if abs(n) > 2 ** 1020:
            with pytest.raises(DomainViolation):
                call()
        else:
            try:
                call()
            except WtanError:
                pass


def _nearest_float(v) -> float:
    """float(v), or +-inf where v is past float64's range."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _outcome(call, *args) -> str:
    """repr of call(*args), whose type shows (numpy 2 writes np.float32(...)),
    or its WtanError or ValueError."""
    try:
        return repr(call(*args))
    except (WtanError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


reals = st.one_of(
    st.floats(width=16).map(np.float16),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(min_value=-(2 ** 1100), max_value=2 ** 1100),
    st.booleans(),
)
_TABLES = (small_x_coeffs(40), large_x_coeffs(40))
_MODEL = fit(3.5, 15)


@settings(max_examples=300)
@given(reals, st.sampled_from([1, -1, 2, 7]))
@example(np.float32(0.5), 1)          # NoConvergence when computed in float32
@example(np.float32(3.0), 2)          # a float32 value, 1e-7 off
@example(10 ** 400, 1)                # a bare OverflowError
@example(-(2 ** 1024 - 2 ** 970), 1)  # rounds to -inf
@example(2 ** 1024 - 2 ** 970 - 1, 1)  # rounds to the largest float
@example(np.float16(-0.0), 3)
@example(np.float32(3.5), 1)          # a float32 fit and its float32 values
@example(np.float64(3.5), 1)          # a numpy split_a in the fit
@example(True, 1)
def test_any_real_is_its_nearest_float(x, n):
    f = _nearest_float(x)
    assert _outcome(eval_real, x, n) == _outcome(eval_real, f, n)
    assert _outcome(fit, x, 15) == _outcome(fit, f, 15)
    for call in (variational_bound_1, variational_bound_2,
                 lambda v: rayleigh_quotient(v, 0.5), lambda v: rayleigh_quotient(1.5, v)):
        assert _outcome(call, x) == _outcome(call, f)
    for table in _TABLES:
        assert _outcome(eval_series, x, table) == _outcome(eval_series, f, table)
    assert _outcome(eval_cheb, x, _MODEL) == _outcome(eval_cheb, f, _MODEL)
    for args, floats in (((x, 0.5), (f, 0.5)), ((1.0, x), (1.0, f)), ((x, x), (f, f))):
        assert _outcome(WellModel, *args) == _outcome(WellModel, *floats)
        assert _outcome(lambda *a: spectrum(WellModel(*a), 3), *args) == \
            _outcome(lambda *a: spectrum(WellModel(*a), 3), *floats)


_WELL = WellModel(math.pi, 0.5)

# Every public callable that takes a real or complex value: its name in
# wtan.__all__, and one call per argument that takes the value, the others
# fixed.  A record class that converts what it takes is called as built; one
# that converts nothing stands for the methods that take a value.
SURFACE = {
    "eval_real": (lambda v: eval_real(v, 1), lambda v: eval_real(v, -3)),
    "halley_step": (lambda v: halley_step(v, 1 + 0.5j), lambda v: halley_step(1 + 1j, v)),
    "derivative": (lambda v: derivative(v, 1.0), lambda v: derivative(1.0, v)),
    "second_derivative": (lambda v: second_derivative(v, 1.0),
                          lambda v: second_derivative(1.0, v)),
    "defining_residual": (lambda v: defining_residual(v, 1.0),
                          lambda v: defining_residual(1.0, v)),
    "branch_identity_residual": (lambda v: branch_identity_residual(v, 1, 1.0),
                                 lambda v: branch_identity_residual(1.0, 1, v)),
    "local_expansion_check": (lambda v: local_expansion_check(1, (1e-2, v)),),
    "eval_cheb": (lambda v: eval_cheb(v, _MODEL),),
    "fit": (lambda v: fit(v, 4),),
    "Wavefunction": (wavefunction(_WELL, spectrum(_WELL, 1)[0]),),
    "WellModel": (lambda v: WellModel(v, 0.5), lambda v: WellModel(1.0, v)),
    "rayleigh_quotient": (lambda v: rayleigh_quotient(v, 0.5),
                          lambda v: rayleigh_quotient(1.0, v)),
    "variational_bound_1": (variational_bound_1,),
    "variational_bound_2": (variational_bound_2,),
    "ContinuationPath": (lambda v: ContinuationPath([2 + 1j, v]),),
    "Cut": tuple(cut.distance for cut in cuts_for(2)),
    "boundary_value": (lambda v: boundary_value(v, 1, "upper"),
                       lambda v: boundary_value(v, 1, "lower")),
    "continue_from_anchor": (lambda v: continue_from_anchor(v, 1),
                             lambda v: continue_from_anchor(v, -2)),
    "discontinuity_delta0": (discontinuity_delta0,),
    "discontinuity_delta1": (discontinuity_delta1,),
    "dispersion_eval": (lambda v: dispersion_eval(v, SheetAtlas()),),
    "distance_to_cuts": (lambda v: distance_to_cuts(v, 2),),
    "eval_complex": (lambda v: eval_complex(v, 1), lambda v: eval_complex(v, -2)),
    "trace_path": (lambda v: trace_path(ContinuationPath([v, 2 + 1j]), 1),
                   lambda v: trace_path(ContinuationPath([2 + 1j, v]), 1)),
    "eval_series": (lambda v: eval_series(v, _TABLES[0]), lambda v: eval_series(v, _TABLES[1])),
    "check_indefinite_log": (lambda v: check_indefinite_log(v, 2.0),
                             lambda v: check_indefinite_log(0.5, v)),
    "check_indefinite_logsin": (lambda v: check_indefinite_logsin(v, 2.0),
                                lambda v: check_indefinite_logsin(0.5, v)),
    "lnsin_tail": (lnsin_tail,),
}

# The public names that take no real or complex value
NO_VALUE = {
    # modules
    "errors", "core", "branch_points", "chebyshev", "quantum", "complex_plane", "series",
    "integrals",
    # integers only, as core._integer takes them, or a record and integers
    "validate_branch", "find_branch_point", "asymptotic_branch_point", "cuts_for",
    "SheetAtlas", "spectrum", "small_x_coeffs", "large_x_coeffs", "lagrange_b",
    "fit_asymptotic",
    # records only, or nothing
    "wavefunction", "radius_estimates", "definite_lnsin", "definite_catalan",
    # records that the library builds and that convert nothing, types and
    # enums, and constants
    "BranchedValue", "BranchPoint", "ChebyshevModel", "SpectrumEntry", "SeriesTable",
    "SeriesEval", "RadiusEstimate", "AsymptoticFit", "BranchIndex", "CutKind", "Side",
    "Parity", "SeriesKind", "CATALAN", "LOG_SIN_TOTAL", "CATALAN_COMBINATION",
}

# ints past the float range first: at the parent of this table they raised
# a bare OverflowError before any float32 value could be computed
EDGE_VALUES = (10 ** 400, -(10 ** 400), True, np.float32(0.5), np.float32(10.0),
               np.float64(0.5), np.float64(10.0), math.inf, -math.inf, math.nan, 0.0, -0.0,
               5e-324)


def _plain(value, field: bool = False) -> bool:
    """value is a Python float or complex, or a record (tuple or list) of
    them, whose fields may also be ints, None and enum members (labels)."""
    if type(value) in (float, complex):
        return True
    if isinstance(value, (tuple, list)):
        return all(_plain(v, True) for v in value)
    return field and (type(value) is int or value is None or isinstance(value, enum.Enum))


def _surface_outcome(call, v) -> str:
    """repr of call(v), which must be plain, or the name of its WtanError,
    ValueError or TypeError; any other exception fails the test."""
    try:
        out = call(v)
    except (WtanError, ValueError, TypeError) as exc:
        return type(exc).__name__
    assert _plain(out), out
    return repr(out)


def test_the_surface_table_lists_every_public_name():
    assert set(SURFACE) | NO_VALUE == set(wtan.__all__)
    assert not set(SURFACE) & NO_VALUE


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_the_surface_returns_python_numbers_or_raises_a_wtan_error(name):
    for call in SURFACE[name]:
        for v in EDGE_VALUES:
            got = _surface_outcome(call, v)
            if type(v) is not float:
                assert got == _surface_outcome(call, _nearest_float(v)), (name, v)
