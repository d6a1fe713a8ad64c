"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import cmath
import math
import time

import numpy as np
import pytest

from wtan.branch_points import find_branch_point, local_expansion_check
from wtan.chebyshev import fit
from wtan.complex_plane import (
    ContinuationPath,
    SheetAtlas,
    dispersion_eval,
    eval_complex,
    trace_path,
)
from wtan.core import branch_identity_residual, derivative, eval_real
from wtan.integrals import (
    CATALAN_COMBINATION,
    check_indefinite_log,
    check_indefinite_logsin,
    definite_catalan,
    definite_lnsin,
)
from wtan.quantum import (
    Parity,
    WellModel,
    spectrum,
    variational_bound_1,
    variational_bound_2,
    wavefunction,
)
from wtan.series import (
    fit_asymptotic,
    lagrange_b,
    large_x_coeffs,
    radius_estimates,
    small_x_coeffs,
)

from conftest import BRANCH_POINT_TABLE, jump_residual

PI2 = math.pi ** 2


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:>2}] {status}: {detail}")
    assert ok, detail


def test_criterion_01_defining_equation_residual():
    rng = np.random.default_rng(20240817)
    xs = rng.uniform(-1000.0, 1000.0, size=100_000)
    ns = rng.integers(1, 6, size=100_000) * rng.choice([-1, 1], size=100_000)
    t0 = time.perf_counter()
    worst = 0.0
    for x, n in zip(xs, ns):
        x = float(x) or 1.0
        w = eval_real(x, int(n))
        r = abs(w * math.tan(w) - x) / (1.0 + abs(x))
        if r > worst:
            worst = r
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    report(1, ok, f"1e5 random residuals: worst scaled {worst:.2e} "
                  f"(tol 1e-12), {elapsed:.2f}s (< 5s)")


PRINTED_BRANCH_POINTS = [
    # printed with 6 decimals below 10 and 5 decimals above: the tolerance
    # for each figure is half an ulp of its printed form plus the 1e-6 target
    ("1", "-1.650611", "2.059981", "2.639705", "2.106196", "1.125364"),
    ("2", "-2.057845", "5.334708", "5.717853", "5.356269", "1.551574"),
    ("3", "-2.278470", "8.522637", "8.821948", "8.536682", "1.775544"),
    ("4", "-2.431122", "11.68877", "11.938917", "11.69918", "1.929404"),
    ("5", "-2.547991", "14.84580", "15.062869", "14.85406", "2.046852"),
    ("6", "-2.642706", "17.99809", "18.191069", "18.00493", "2.141891"),
]


def _printed_tol(text: str) -> float:
    decimals = len(text.split(".")[1])
    return 0.5 * 10.0 ** (-decimals) + 1e-6


def test_criterion_02_branch_point_table():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for row in PRINTED_BRANCH_POINTS:
        bp = find_branch_point(int(row[0]))
        got = (bp.x.real, bp.x.imag, abs(bp.x), bp.y.real, bp.y.imag)
        for text, value in zip(row[1:], got):
            err = abs(value - float(text))
            worst = max(worst, err)
            ok &= err <= _printed_tol(text)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(2, ok, f"six branch points: worst |diff| {worst:.2e} vs printed "
                  f"figures (1e-6 + print rounding), {elapsed:.2f}s (< 1s)")


def test_criterion_03_chebyshev_table():
    from test_chebyshev import REFERENCE_COEFFS

    t0 = time.perf_counter()
    model = fit(3.5, 15)
    worst = 0.0
    for k, (ta, tb, tg) in enumerate(REFERENCE_COEFFS):
        worst = max(worst, abs(model.alpha[k] - ta), abs(model.beta[k] - tb),
                    abs(model.gamma[k] - tg))
    elapsed = time.perf_counter() - t0
    ok = worst <= 5e-8 and elapsed < 5.0
    report(3, ok, f"45 piecewise coefficients: worst |diff| {worst:.2e} "
                  f"(tol 5e-8), {elapsed:.2f}s (< 5s)")


def test_criterion_04_series_coefficients():
    ts = small_x_coeffs(20)
    tl = large_x_coeffs(20)
    small_exact = [1.0, -1 / 6, 11 / 360, -17 / 5040, -281 / 604800]
    large_exact = [1.0, -1.0, 1.0, -(1 - PI2 / 12), -(PI2 / 3 - 1)]
    worst_rel = 0.0
    for got, want in zip(ts.primary_floats()[:5], small_exact):
        worst_rel = max(worst_rel, abs(got - want) / abs(want))
    for got, want in zip(tl.primary_floats()[:5], large_exact):
        worst_rel = max(worst_rel, abs(got - want) / abs(want))
    worst_lag = 0.0
    for k in range(21):
        bk = float(tl.primary[k])
        worst_lag = max(worst_lag, abs(lagrange_b(k) - bk) / abs(bk))
    ok = worst_rel <= 1e-14 and worst_lag <= 1e-10
    report(4, ok, f"closed-form coefficients rel {worst_rel:.2e} (tol 1e-14); "
                  f"inversion-vs-recursion rel {worst_lag:.2e} (tol 1e-10)")


def test_criterion_05_convergence_radius_and_fit():
    t0 = time.perf_counter()
    rho_small = radius_estimates(small_x_coeffs(100))[-1].rho
    rho_large = radius_estimates(large_x_coeffs(100))[-1].rho
    f = fit_asymptotic(large_x_coeffs(300), 50, 300)
    elapsed = time.perf_counter() - t0
    arg_x1 = math.atan2(2.059981, -1.650611)
    ok = (2.3 <= rho_small <= 3.0 and 2.3 <= rho_large <= 3.0
          and abs(f.rho - 2.639705) <= 1e-2
          and abs(f.a - 2.25) <= 0.02
          and abs(f.a - arg_x1) <= 0.02
          and elapsed < 30.0)
    report(5, ok, f"rho(100): {rho_small:.3f}/{rho_large:.3f} in [2.3, 3.0]; "
                  f"fit rho {f.rho:.5f} (|x1| +- 1e-2), a {f.a:.4f} "
                  f"(2.25 +- 0.02, arg x1 {arg_x1:.4f}), {elapsed:.1f}s (< 30s)")


def test_criterion_06_integral_identities():
    lnsin = definite_lnsin()
    catalan = definite_catalan()
    r1 = check_indefinite_log(0.5, 2.0)
    r2 = check_indefinite_logsin(0.5, 2.0)
    ok = (abs(lnsin + PI2 / 8) <= 1e-6
          and abs(catalan - 0.431065) <= 1e-6
          and abs(catalan - CATALAN_COMBINATION) <= 1e-8
          and r1 < 1e-9 and r2 < 1e-9)
    report(6, ok, f"ln-sin integral {lnsin:.9f} (-pi^2/8 +- 1e-6); "
                  f"Catalan combination {catalan:.6f} (0.431065 +- 1e-6); "
                  f"indefinite residuals {r1:.1e}, {r2:.1e} (< 1e-9)")


def test_criterion_07_branch_point_local_structure():
    kappa, c2 = local_expansion_check(1, [1e-2, 1e-3, 1e-4])
    atlas = SheetAtlas.build(2)
    x1 = atlas.branch_points[0].x
    wp = tuple(x1 + 1e-3 * cmath.exp(2j * math.pi * 2 * j / 64)
               for j in range(65))
    rec = trace_path(ContinuationPath(waypoints=wp), 1, atlas)
    closure = abs(rec[-1][1] - rec[0][1])
    ok = abs(kappa - 0.5) <= 1e-3 and abs(c2 - 1.0) <= 1e-2 and closure <= 1e-8
    report(7, ok, f"local exponent {kappa:.6f} (0.5 +- 1e-3), c^2 {c2:.4f} "
                  f"(1 +- 1e-2), double-loop closure {closure:.1e} (< 1e-8)")


def test_criterion_08_dispersion_closure():
    atlas = SheetAtlas.build(2)
    points = [5 + 0j, 2 + 2j, -3 + 2j, 10 - 4j, 1.2 + 0.8j,
              -0.5 - 3j, -4 + 1j, 7 + 7j, 3 - 0.9j, 18 + 2j]
    t0 = time.perf_counter()
    worst = 0.0
    for z in points:
        diff = abs(dispersion_eval(z, atlas) - eval_complex(z, 1, atlas).y)
        worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    report(8, ok, f"dispersion vs continuation at 10 points: worst "
                  f"{worst:.2e} (tol 1e-4), {elapsed:.1f}s (< 60s)")


def test_criterion_09_variational_bounds():
    worst_gap = 0.0
    chain_ok = True
    for x in np.logspace(-3, 3, 100):
        x = float(x)
        w = eval_real(x, 1)
        b2 = variational_bound_2(x)
        b1 = variational_bound_1(x)
        chain_ok &= (w <= b2 + 1e-14) and (b2 <= b1 + 1e-12)
        worst_gap = max(worst_gap, w - b2, b2 - b1)
    slope = variational_bound_2(1e-10) / math.sqrt(1e-10)
    left = variational_bound_2(-1e-10) / math.pi
    const_ok = abs(slope - 1.0537) <= 1e-4 and abs(left - 1.1180) <= 1e-4
    ok = chain_ok and const_ok
    report(9, ok, f"bound chain on 100 log-spaced points (worst signed gap "
                  f"{worst_gap:.1e}); 0+ slope {slope:.5f} (1.0537 +- 1e-4), "
                  f"0- level {left:.5f} pi (1.1180 +- 1e-4)")


def test_criterion_10_spectrum_limits_and_jumps():
    a = 1.0
    k_weak = [e for e in spectrum(WellModel(a, 1e-8), 4)
              if e.parity is Parity.EVEN][0].k
    k_attr = [e for e in spectrum(WellModel(a, 1e8), 4)
              if e.parity is Parity.EVEN][0].k
    k_rep = [e for e in spectrum(WellModel(a, -1e8), 6)
             if e.parity is Parity.EVEN][0].k
    limits_ok = (abs(k_weak - math.pi) <= 1e-6
                 and abs(k_attr - 2.0 * math.sqrt(a / 1e8) / a) <= 1e-6
                 and abs(k_rep - 2.0 * math.pi) <= 1e-6)
    worst_jump = 0.0
    for lam in (-2.0, -1e-3, 0.35, 5.0, 1e3):
        model = WellModel(math.pi, lam)
        for entry in spectrum(model, 8):
            psi = wavefunction(model, entry)
            worst_jump = max(worst_jump,
                             jump_residual(model, entry, psi) / entry.k ** 2)
    ok = limits_ok and worst_jump <= 1e-8
    report(10, ok, f"spectrum limits at lambda 1e-8/1e8/-1e8 within 1e-6; "
                   f"worst jump residual {worst_jump:.1e} k^2 (tol 1e-8)")


def test_criterion_11_property_suites():
    rng = np.random.default_rng(413)
    atlas = SheetAtlas.build(3)

    odd_ok = True
    for _ in range(300):
        x = float(rng.uniform(-100, 100)) or 1.0
        n = int(rng.integers(1, 6))
        odd_ok &= eval_real(x, -n) == -eval_real(x, n)

    ident_worst = 0.0
    for _ in range(300):
        x = float(rng.uniform(-20, 20)) or 0.5
        n = int(rng.integers(1, 5)) * (1 if rng.random() < 0.5 else -1)
        ident_worst = max(ident_worst,
                          branch_identity_residual(x, n, eval_real(x, n)))

    refl_worst = 0.0
    checked = 0
    while checked < 100:
        z = complex(rng.uniform(-8, 8), rng.uniform(0.05, 6.0))
        n = int(rng.integers(1, 4))
        try:
            up = eval_complex(z, n, atlas).y
            dn = eval_complex(z.conjugate(), n, atlas).y
        except Exception:
            continue
        refl_worst = max(refl_worst, abs(dn - up.conjugate()))
        checked += 1

    fd_worst = 0.0
    for x in range(-10, 11):
        if x == 0:
            continue
        for n in (1, 2, 3):
            h = 1e-6 * (1 + abs(x))
            fd = (eval_real(x + h, n) - eval_real(x - h, n)) / (2 * h)
            d = derivative(float(x), eval_real(float(x), n))
            fd_worst = max(fd_worst, abs(d - fd) / abs(fd))

    ok = (odd_ok and ident_worst < 1e-11 and refl_worst < 1e-10
          and fd_worst < 1e-6)
    report(11, ok, f"odd symmetry exact: {odd_ok}; branch identity worst "
                   f"{ident_worst:.1e} (< 1e-11); reflection worst "
                   f"{refl_worst:.1e} (< 1e-10); derivative-vs-FD worst rel "
                   f"{fd_worst:.1e} (< 1e-6)")
