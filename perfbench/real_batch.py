"""real_batch: scalar eval_real calls, then the bulk consumers of the kernel.

Scalar phase: one client calling eval_real once per point (see
inputs.real_points for the mix).  Bulk phase: fixed passes of in-process
`wtan grid`, square-well spectra with thousands of levels and Chebyshev
fits at several orders -- the callers a batch kernel would serve.
"""

from __future__ import annotations

import math
from time import perf_counter

from perfbench import checks, inputs
from perfbench.harness import (
    closed_loop, median, per_s, quantile, run_cli_inprocess, set_loop_metrics,
)

POOL = 20000
CENSUS = 2000
SCALAR_SHARE = 0.6
BANDS = ("small_x", "large_x", "high_n")
CENSUS_BANDS = ("huge_x", "tiny_offset")
# module whose eval_real import is wrapped -> the bulk consumer it serves
CONSUMERS = {"quantum": "quantum.spectrum", "chebyshev": "chebyshev.fit",
             "cli": "cli.grid"}


def setup():
    """Import and one warm-up call: what setup_s times."""
    import wtan
    import wtan.cli  # the bulk phase drives `wtan grid` in-process
    wtan.eval_real(1.0, 1)
    return (wtan,)


def _census(run, eval_real, points) -> None:
    for band, x, n in points:
        try:
            y = eval_real(x, n)
        except Exception as exc:  # recorded as the defect's outcome
            run.census_record(band, type(exc).__name__)
            continue
        run.census_record(band, "ok" if checks.real_ok(x, n, y) else "wrong")


def _bulk_pass(run, wtan, args, times):
    """One bulk pass: returns its outputs and its time (the sum of its timed
    calls), and appends each component's time to `times`."""
    outputs = []
    t_grid = t_spec = t_fit = 0.0
    for n, lo, hi in args["grid"]:
        argv = ["grid", "--branch", str(n), "--range", f"{lo:.6f}:{hi:.6f}",
                "--points", str(args["grid_points"])]
        code, text, dt = run_cli_inprocess(run, wtan.cli.main, argv)
        t_grid += dt
        outputs.append(("grid", n, code, text))
    for lam in args["spectrum_lambda"]:
        model = wtan.WellModel(1.0, lam)
        levels, dt = run.timed(wtan.quantum.spectrum, model, args["spectrum_levels"])
        t_spec += dt
        outputs.append(("spectrum", lam, tuple((e.parity.value, e.branch, e.k, e.E)
                                                for e in levels)))
    for order in args["cheb_orders"]:
        model, dt = run.timed(wtan.chebyshev.fit, 3.5, order)
        t_fit += dt
        outputs.append(("fit", order, (model.alpha, model.beta, model.gamma)))
    times["grid"].append(t_grid)
    times["spectrum"].append(t_spec)
    times["fit"].append(t_fit)
    return outputs, t_grid + t_spec + t_fit


def _grid_ok(n, code, text) -> bool:
    lines = text.splitlines()
    if code != 0 or lines[0] != "x,y":
        return False
    for line in lines[1:]:
        xs, ys = line.split(",")
        x = float(xs)
        if x == 0.0:
            if ys:
                return False
            continue
        if not checks.close(float(ys), checks.real_oracle(x, n), 2e-11):
            return False
    return True


def _spectrum_ok(lam, levels) -> bool:
    ks = [k for _, _, k, _ in levels]
    if ks != sorted(ks):
        return False
    for parity, branch, k, energy in levels:
        if not checks.close(energy, k * k, 1e-14):
            return False
        if parity == "even":
            if not checks.close(0.5 * k, checks.real_oracle(1.0 / lam, branch), 1e-12):
                return False
        elif abs(k / (2.0 * math.pi) - round(k / (2.0 * math.pi))) > 1e-12:
            return False
    return True


def _fit_ok(order, coeffs) -> bool:
    tol = 1e-7 if order < 31 else 1e-11
    for i in range(1, 60):
        x = (i - 30) * 0.37 + 0.01
        got = checks.chebyshev_value(x, 3.5, *coeffs)
        if not checks.close(got, checks.real_oracle(x, 1), tol):
            return False
    return True


def _check_bulk(run, outputs, reference) -> None:
    """Full checks on the first pass; later passes must repeat it exactly
    (every consumer is deterministic)."""
    for i, out in enumerate(outputs):
        kind = out[0]
        if reference is not None:
            run.check(f"bulk.{kind}", out == reference[i], "differs_from_first_pass")
        elif kind == "grid":
            run.check("bulk.grid", _grid_ok(*out[1:]))
        elif kind == "spectrum":
            run.check("bulk.spectrum", _spectrum_ok(*out[1:]))
        else:
            run.check("bulk.fit", _fit_ok(*out[1:]))


def measure(run, wtan) -> None:
    pool = inputs.real_points(run.rng, POOL)
    census = inputs.real_census_points(run.rng, CENSUS)
    bulk = inputs.bulk_inputs(run.rng)
    run.detail["inputs_sha256"] = inputs.digest(pool, census, bulk)
    eval_real = wtan.core.eval_real
    if run.part == 0:
        _census(run, eval_real, census)

    loop = closed_loop(run, "eval_real", pool, lambda it: eval_real(it[0], it[1]),
                       lambda it, y: checks.real_ok(it[0], it[1], y),
                       SCALAR_SHARE * run.seconds)

    tracer = run.tracer
    times = {"grid": [], "spectrum": [], "fit": []}
    untraced = []
    if tracer is not None:
        for _ in range(3):
            untraced.append(_bulk_pass(run, wtan, bulk, times)[1])
        for k in times:
            times[k].clear()
        calls = {m: tracer.wrap(f"wtan.{m}", "eval_real") for m in CONSUMERS}
    pass_times = []
    reference = None
    deadline = perf_counter() + (1.0 - SCALAR_SHARE) * run.seconds
    while not pass_times or perf_counter() < deadline:
        outputs, dt = _bulk_pass(run, wtan, bulk, times)
        pass_times.append(dt)
        if tracer is not None and len(pass_times) == 1:
            for m, consumer in CONSUMERS.items():
                run.layers[f"{consumer}.eval_real_calls"] = calls[m].calls
        _check_bulk(run, outputs, reference)
        reference = reference or outputs
    if tracer is not None:
        tracer.restore()

    lat = loop.latency
    good = sum(loop.good)
    set_loop_metrics(run, lat, good, pass_times)
    run.named.update({
        "real_scalar_per_s": [per_s(good, math.fsum(lat)), "1/s"],
        "real_scalar_p50_us": [1e6 * quantile(lat, 0.5), "us"],
        "real_scalar_p99_us": [1e6 * quantile(lat, 0.99), "us"],
        "real_bulk_s": [median(pass_times), "s"],
    })

    by_band = {b: [] for b in BANDS}
    first_pass = {b: 0 for b in BANDS}
    failed = {b: 0 for b in BANDS}
    for i, ((x, n), dt, ok) in enumerate(loop.items()):
        band = inputs.real_band(x, n)
        by_band[band].append(dt)
        first_pass[band] += i < len(pool)
        failed[band] += not ok
    for band in BANDS:
        run.layers[f"core.eval_real.{band}.calls"] = first_pass[band]
        run.layers[f"core.eval_real.{band}.p50_us"] = 1e6 * quantile(by_band[band], 0.5)
        run.layers[f"core.eval_real.{band}.p99_us"] = 1e6 * quantile(by_band[band], 0.99)
        run.layers[f"core.failed.{band}"] = failed[band]
    for band in CENSUS_BANDS:
        counts = run.census.get(band, {})
        run.layers[f"core.failed.{band}"] = counts.get("attempted", 0) - counts.get("ok", 0)
    run.layers["core.census.attempted"] = sum(
        run.census.get(band, {}).get("attempted", 0) for band in CENSUS_BANDS)
    run.layers["quantum.spectrum.ms"] = 1e3 * median(times["spectrum"])
    run.layers["chebyshev.fit.ms"] = 1e3 * median(times["fit"])
    run.layers["cli.grid.inproc_ms"] = 1e3 * median(times["grid"])
    if tracer is not None:
        run.layers["bench.trace.overhead_frac"] = median(pass_times) / median(untraced) - 1.0
