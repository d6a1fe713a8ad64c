"""tables: the one-shot analysis bundle, then point evaluations of its tables.

Bundle passes: order-300 series tables with their recursion residuals,
radius estimates, asymptotic fit and Lagrange cross-check; the Chebyshev
fit and a check grid; branch points 1..12; the local-expansion check at
x_1; the four integral checks.  Closed loop: one client evaluating the
series and the Chebyshev model at seeded points.
"""

from __future__ import annotations

import math
from collections import defaultdict
from time import perf_counter

from perfbench import checks, inputs
from perfbench.harness import closed_loop, median, quantile, set_loop_metrics

ORDER = 300
LAGRANGE_K = 30
BRANCH_POINTS_N = 12
RADII = (1e-2, 1e-3, 1e-4)
INDEFINITE_RANGE = (0.5, 2.0)
CHEB_GRID = tuple(-40.0 + 0.4 * i + 0.013 for i in range(200))
POOL = 300
BUNDLE_SHARE = 0.75


def setup():
    """Import and one warm-up call: what setup_s times."""
    import wtan
    wtan.series.large_x_coeffs(10)
    return (wtan,)


def _bundle(run, wtan, times):
    """One bundle: returns its outputs and its time (the sum of its timed
    calls), and appends per-part seconds to `times`."""
    s, ch, bp, ig = wtan.series, wtan.chebyshev, wtan.branch_points, wtan.integrals
    part = defaultdict(float)

    def step(name, fn, *args):
        out, dt = run.timed(fn, *args)
        part[name] += dt
        return out

    small = step("series.small_x_coeffs", s.small_x_coeffs, ORDER)
    large = step("series.large_x_coeffs", s.large_x_coeffs, ORDER)
    out = {
        "small": small,
        "large": large,
        "residuals": [step("series.recursion_residuals", t.recursion_residuals)
                      for t in (small, large)],
        "radius": [step("series.radius_estimates", s.radius_estimates, t)[-1].rho
                   for t in (small, large)],
        "fit": step("series.fit_asymptotic", s.fit_asymptotic, large, 50, ORDER),
        "lagrange": [step("series.lagrange_b", s.lagrange_b, k)
                     for k in range(1, LAGRANGE_K + 1)],
        "model": step("chebyshev.fit", ch.fit, 3.5, 15),
    }
    out["cheb_grid"] = [step("chebyshev.eval_cheb", ch.eval_cheb, x, out["model"])
                        for x in CHEB_GRID]
    out["branch_points"] = [(p.x, p.y) for p in (
        step("branch_points.find_branch_point", bp.find_branch_point, n)
        for n in range(1, BRANCH_POINTS_N + 1))]
    out["local"] = step("branch_points.local_expansion_check",
                        bp.local_expansion_check, 1, RADII)
    out["integrals"] = [
        step("integrals.definite_lnsin", ig.definite_lnsin),
        step("integrals.definite_catalan", ig.definite_catalan),
        step("integrals.check_indefinite_log", ig.check_indefinite_log, *INDEFINITE_RANGE),
        step("integrals.check_indefinite_logsin", ig.check_indefinite_logsin,
             *INDEFINITE_RANGE),
    ]
    for name, dt in part.items():
        times[name].append(dt)
    return out, math.fsum(part.values())


def _check_bundle(run, out) -> None:
    small, large = out["small"], out["large"]
    run.check("series.coefficients",
              checks.leading_coefficients_ok([float(v) for v in small.primary[:5]],
                                             checks.SMALL_X_EXACT)
              and checks.leading_coefficients_ok([float(v) for v in large.primary[:5]],
                                                 checks.LARGE_X_EXACT))
    for table, res in zip((small, large), out["residuals"]):
        # zero to working precision, less a generous 20 digits
        run.check("series.recursion_residuals", res <= 10.0 ** (20 - table.precision_digits))
    run.check("series.radius_estimates", all(2.3 <= r <= 3.0 for r in out["radius"]))
    fit = out["fit"]
    run.check("series.fit_asymptotic",
              abs(fit.rho - checks.RHO_1) <= 1e-2 and abs(fit.a - 2.25) <= 0.02)
    run.check("series.lagrange_b", all(
        abs(got - float(large.primary[k])) <= 1e-10 * abs(float(large.primary[k]))
        for k, got in enumerate(out["lagrange"], start=1)))
    run.check("chebyshev.eval_cheb", all(
        checks.close(v, checks.real_oracle(x, 1), 1e-7)
        for x, v in zip(CHEB_GRID, out["cheb_grid"])))
    run.check("branch_points.find_branch_point", all(
        checks.branch_point_ok(n, x, y)
        for n, (x, y) in enumerate(out["branch_points"], start=1)))
    kappa, c2 = out["local"]
    run.check("branch_points.local_expansion_check",
              abs(kappa - 0.5) <= 1e-3 and abs(c2 - 1.0) <= 1e-2)
    lnsin, catalan, r_log, r_logsin = out["integrals"]
    run.check("integrals.definite_lnsin", abs(lnsin - checks.LNSIN_TOTAL) <= 1e-6)
    run.check("integrals.definite_catalan",
              abs(catalan - checks.CATALAN_COMBINATION) <= 1e-8)
    run.check("integrals.check_indefinite", r_log < 1e-9 and r_logsin < 1e-9)


def measure(run, wtan) -> None:
    pool = inputs.table_points(run.rng, POOL)
    run.detail["inputs_sha256"] = inputs.digest(pool, ORDER, LAGRANGE_K, RADII, CHEB_GRID)
    tracer = run.tracer
    times = defaultdict(list)
    untraced = []
    if tracer is not None:
        untraced.append(_bundle(run, wtan, times)[1])
        times.clear()
        brentq = tracer.wrap("wtan.branch_points", "brentq")
        quad = tracer.wrap("wtan.integrals", "quad")
        quad_calls = tracer.wrap("wtan.integrals", "eval_real")
        fit_calls = tracer.wrap("wtan.chebyshev", "eval_real")

    pass_times, reference = [], None
    deadline = perf_counter() + BUNDLE_SHARE * run.seconds
    while not pass_times or perf_counter() < deadline:
        out, dt = _bundle(run, wtan, times)
        pass_times.append(dt)
        if reference is None:
            _check_bundle(run, out)
            reference = out
            if tracer is not None:
                # over the first bundle only, so the counts repeat exactly
                run.layers["branch_points.brentq.s"] = brentq.busy_s
                run.layers["integrals.quad.s"] = quad.busy_s
                run.layers["integrals.eval_real_calls"] = quad_calls.calls
                run.layers["chebyshev.fit.eval_real_calls"] = fit_calls.calls
        else:
            run.check("bundle", out == reference, "differs_from_first_pass")
    if tracer is not None:
        tracer.restore()

    small, large, model = reference["small"], reference["large"], reference["model"]
    series_eval = wtan.series.eval_series
    eval_cheb = wtan.chebyshev.eval_cheb

    def call(item):
        kind, x = item
        if kind == "cheb":
            return eval_cheb(x, model)
        return series_eval(x, small if kind == "small" else large).value

    def ok(item, v):
        kind, x = item
        return checks.close(v, checks.real_oracle(x, 1), 1e-7 if kind == "cheb" else 1e-11)

    loop = closed_loop(run, "table_eval", pool, call, ok,
                       (1.0 - BUNDLE_SHARE) * run.seconds)
    set_loop_metrics(run, loop.latency, sum(loop.good), pass_times)
    run.named["tables_s"] = [median(pass_times), "s"]

    for name in ("series.small_x_coeffs", "series.large_x_coeffs",
                 "series.recursion_residuals", "series.radius_estimates",
                 "series.fit_asymptotic", "series.lagrange_b"):
        run.layers[f"{name}.s"] = median(times[name])
    for name in ("branch_points.local_expansion_check", "integrals.definite_lnsin",
                 "integrals.definite_catalan", "integrals.check_indefinite_log",
                 "integrals.check_indefinite_logsin"):
        run.layers[f"{name}.ms"] = 1e3 * median(times[name])
    run.layers["chebyshev.fit.ms"] = 1e3 * median(times["chebyshev.fit"])
    run.layers["branch_points.find_branch_point.us"] = 1e6 * median(
        times["branch_points.find_branch_point"]) / BRANCH_POINTS_N
    by_kind = defaultdict(list)
    for (kind, _), dt, _ in loop.items():
        by_kind["cheb" if kind == "cheb" else "series"].append(dt)
    run.layers["series.eval_series.us"] = 1e6 * quantile(by_kind["series"], 0.5)
    run.layers["chebyshev.eval_cheb.us"] = 1e6 * quantile(by_kind["cheb"], 0.5)
    if tracer is not None:
        run.layers["bench.trace.overhead_frac"] = median(pass_times) / untraced[0] - 1.0
