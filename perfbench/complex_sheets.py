"""complex_sheets: eval_complex on sheets +-1..+-4, then passes over the cuts.

Closed loop: one client calling eval_complex on alternating near and far
points (inputs.complex_points).  Cut passes: a cold dispersion-table build
from a fresh SheetAtlas, boundary values and both discontinuities on the
cuts, and a double loop of trace_path around x_1.
"""

from __future__ import annotations

import math
from time import perf_counter

from perfbench import checks, inputs
from perfbench.harness import closed_loop, median, per_s, quantile, set_loop_metrics

POOL = 1000
CENSUS = 300
LOOP_SHARE = 0.6
LOOP_WAYPOINTS = 32
CENSUS_TYPES = ("StepTooLarge", "NoConvergence", "OnCut")


def setup():
    """Import, atlas build and one warm-up call: what setup_s times."""
    import wtan
    atlas = wtan.SheetAtlas.build(inputs.MAX_SHEET)
    wtan.eval_complex(2 + 2j, 1, atlas)
    return wtan, atlas


def _census(run, wtan, atlas, points) -> None:
    for z, n in points:
        try:
            y = wtan.eval_complex(z, n, atlas).y
        except Exception as exc:  # recorded as the defect's outcome
            run.census_record("huge_z", type(exc).__name__)
            continue
        run.census_record("huge_z", "ok" if checks.complex_ok(z, n, y, True) else "wrong")


def _build_and_eval(wtan, z):
    atlas = wtan.SheetAtlas.build(2)
    return atlas, wtan.complex_plane.dispersion_eval(z, atlas)


def _cut_pass(run, wtan, cuts, ops, halley):
    """One pass over the cuts.  Appends (kind, seconds, halley steps) per cut
    operation to `ops`; returns (outputs, fresh atlas, pass seconds (the sum
    of its timed calls), dispersion build seconds, trace_path seconds,
    halley steps of the build)."""
    cp = wtan.complex_plane
    h0 = halley()
    (atlas, first), build_s = run.timed(_build_and_eval, wtan, cuts["dispersion_at"][0])
    build_steps = halley() - h0
    outputs = [("dispersion", first)]
    spent = build_s
    for z in cuts["dispersion_at"][1:]:
        y, dt = run.timed(cp.dispersion_eval, z, atlas)
        spent += dt
        outputs.append(("dispersion", y))

    def op(kind, fn, *args):
        nonlocal spent
        h = halley()
        out, dt = run.timed(fn, *args)
        spent += dt
        ops.append((kind, dt, halley() - h))
        outputs.append((kind, out))

    for u in cuts["delta0_u"]:
        op("delta0", cp.discontinuity_delta0, u, atlas)
    for v in cuts["delta1_v"]:
        op("delta1", cp.discontinuity_delta1, v, atlas)
    x1 = atlas.branch_points[0].x
    for point, sheet, side in _boundary_points(cuts, x1):
        op("boundary", cp.boundary_value, point, sheet, cp.Side(side), atlas)
    r = cuts["loop_radius"]
    waypoints = tuple(x1 + r * complex(math.cos(a), math.sin(a))
                      for a in (4.0 * math.pi * j / LOOP_WAYPOINTS
                                for j in range(LOOP_WAYPOINTS + 1)))
    records, trace_s = run.timed(cp.trace_path, cp.ContinuationPath(waypoints=waypoints),
                                 1, atlas)
    outputs.append(("trace_path", (records[0][1], records[-1][1], records[-1][2])))
    return outputs, atlas, spent + trace_s, build_s, trace_s, build_steps


def _boundary_points(cuts, x1):
    return [(complex(t, 0.0) if cut == "real" else complex(x1.real, t), sheet, side)
            for cut, t, sheet, side in cuts["boundary"]]


def _check_cuts(run, wtan, cuts, outputs, atlas) -> None:
    disp = [y for kind, y in outputs if kind == "dispersion"]
    for z, y in zip(cuts["dispersion_at"], disp):
        direct = wtan.eval_complex(z, 1, atlas).y
        run.check("dispersion", abs(y - direct) <= 1e-4)
    delta0 = [y for kind, y in outputs if kind == "delta0"]
    for u, d in zip(cuts["delta0_u"], delta0):
        run.check("delta0", checks.close(d, checks.imaginary_boundary_oracle(u), 1e-8))
    delta1 = [y for kind, y in outputs if kind == "delta1"]
    for d in delta1:
        run.check("delta1", math.isfinite(abs(d)) and 0.0 < abs(d) < 10.0)
    bounds = [y for kind, y in outputs if kind == "boundary"]
    for (z, sheet, _), y in zip(_boundary_points(cuts, atlas.branch_points[0].x), bounds):
        # an eps -> 0 extrapolation, not a polished root: allow 10x the floor
        ok = checks.complex_ok(z, sheet, y, False, slack=10.0)
        if abs(sheet) == 1 and z.imag == 0.0:
            # the sheet +-1 real-cut limit is i p with p tanh p = -u
            ok = ok and abs(y - 1j * checks.imaginary_boundary_oracle(z.real)) <= 1e-8
        run.check("boundary_value", ok)
    (_, (y_start, y_end, sheet_end)), = [o for o in outputs if o[0] == "trace_path"]
    run.check("trace_path", abs(y_end - y_start) <= 1e-8 and sheet_end == 1)


def measure(run, wtan, atlas) -> None:
    pool = inputs.complex_points(run.rng, POOL)
    census = inputs.complex_census_points(run.rng, CENSUS)
    cuts = inputs.cut_inputs(run.rng)
    run.detail["inputs_sha256"] = inputs.digest(pool, census, cuts)
    if run.part == 0:
        _census(run, wtan, atlas, census)

    tracer = run.tracer
    eval_complex = wtan.complex_plane.eval_complex

    def call(item):
        return eval_complex(item[0], item[1], atlas).y

    def ok(item, y):
        return checks.complex_ok(item[0], item[1], y, item[2] == "far")

    def steps():
        return 0

    if tracer is not None:
        # one pass without and one with the wrappers, for the overhead and
        # for per-call counts over the first pass, which repeat exactly
        untraced = closed_loop(run, "eval_complex", pool, call, ok, 0.0)
        halley = tracer.wrap("wtan.complex_plane", "halley_step")
        anchor = tracer.wrap("wtan.complex_plane", "eval_real")

        def steps():
            return halley.calls

        first = closed_loop(run, "eval_complex", pool, call, ok, 0.0, probe=steps)
        per_kind = {"far": [], "near": []}
        for (_, _, kind), count in zip(pool, first.first_pass_probe):
            per_kind[kind].append(count)
        for kind, counts in per_kind.items():
            run.layers[f"complex_plane.halley_steps_per_eval.{kind}"] = sum(counts) / len(counts)
        run.layers["core.halley_step.raised_frac"] = (
            sum(halley.raised.values()) / halley.calls if halley.calls else 0.0)
        run.layers["complex_plane.anchor_eval_real_s"] = anchor.busy_s
        run.layers["bench.trace.overhead_frac"] = (
            math.fsum(first.latency) / math.fsum(untraced.latency) - 1.0)
    loop = closed_loop(run, "eval_complex", pool, call, ok,
                       LOOP_SHARE * run.seconds)

    ops, pass_times, builds, traces, build_steps = [], [], [], [], []
    reference = None
    deadline = perf_counter() + (1.0 - LOOP_SHARE) * run.seconds
    while not pass_times or perf_counter() < deadline:
        pass_ops = []
        outputs, fresh, dt, build_s, trace_s, b_steps = _cut_pass(
            run, wtan, cuts, pass_ops, steps)
        pass_times.append(dt)
        builds.append(build_s)
        traces.append(trace_s)
        build_steps.append(b_steps)
        ops.append(pass_ops)
        if reference is None:
            _check_cuts(run, wtan, cuts, outputs, fresh)
            reference = outputs
        else:
            for got, want in zip(outputs, reference):
                run.check(f"cut.{got[0]}", got == want, "differs_from_first_pass")
    if tracer is not None:
        tracer.restore()

    lat = loop.latency
    good = sum(loop.good)
    set_loop_metrics(run, lat, good, pass_times)
    kind_lat = {"far": [], "near": []}
    kind_busy = {"far": 0.0, "near": 0.0}
    kind_good = {"far": 0, "near": 0}
    for (_, _, kind), dt, g in loop.items():
        kind_busy[kind] += dt
        kind_good[kind] += g
        if g:
            kind_lat[kind].append(dt)
    ok_lat = kind_lat["far"] + kind_lat["near"]
    cut_lat = [dt for p in ops for _, dt, _ in p]
    run.named.update({
        "complex_far_per_s": [per_s(kind_good["far"], kind_busy["far"]), "1/s"],
        "complex_near_per_s": [per_s(kind_good["near"], kind_busy["near"]), "1/s"],
        "complex_p50_ms": [1e3 * quantile(ok_lat, 0.5), "ms"],
        "complex_p99_ms": [1e3 * quantile(ok_lat, 0.99), "ms"],
        "cut_ops_per_s": [per_s(len(cut_lat), math.fsum(cut_lat)), "1/s"],
        "dispersion_build_ms": [1e3 * median(builds), "ms"],
    })

    cp = "complex_plane"
    for kind in ("far", "near"):
        run.layers[f"{cp}.eval_complex.{kind}.p50_ms"] = 1e3 * quantile(kind_lat[kind], 0.5)
    run.layers[f"{cp}.boundary_value.p50_ms"] = 1e3 * quantile(
        [dt for p in ops for kind, dt, _ in p if kind == "boundary"], 0.5)
    run.layers[f"{cp}.trace_path.ms"] = 1e3 * median(traces)
    counts = {t: 0 for t in CENSUS_TYPES}
    other = 0
    for outcome, count in run.census.get("huge_z", {}).items():
        if outcome in counts:
            counts[outcome] += count
        elif outcome not in ("attempted", "ok"):
            other += count
    for t in CENSUS_TYPES:
        run.layers[f"{cp}.failed.{t}"] = counts[t]
    run.layers[f"{cp}.failed.other"] = other
    run.layers[f"{cp}.census.attempted"] = run.census.get("huge_z", {}).get("attempted", 0)
    if tracer is not None:
        boundary_steps = [h for kind, _, h in ops[0] if kind == "boundary"]
        run.layers[f"{cp}.boundary_value.halley_steps"] = (
            sum(boundary_steps) / len(boundary_steps))
        run.layers[f"{cp}.dispersion.halley_steps"] = build_steps[0]
