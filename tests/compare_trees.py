"""Parent-against-change probe: do two trees' src/wtan give the same results?

Run from anywhere, with the standard library only:

    python tests/compare_trees.py [REF] [--routes] [--series]

REF is a git commit of this repository (default HEAD), written out with
`git archive` into a temporary directory, or a directory that holds
src/wtan.  The working tree's src/wtan and REF's are loaded side by side
in one process, under the module names wtan_change and wtan_parent.  A
tree must have cuts_for and continue_from_anchor as module functions of
complex_plane, as every tree has from commit 00069e9 on.

The census is fixed and seeded.  It calls, in both trees:

* eval_complex and continue_from_anchor on sheets +-1..8, +-20, +-100,
  +-600, +-10**4, +-10**6 and +-2**52: points uniform in and around the
  cut disk, in the band, beside the cut lines (1e-12..1e-2 off), beside
  the branch points, on the axis with both signs of zero, at the exterior
  radius, and at the guard's edges (CUT_GUARD and BRANCH_POINT_GUARD +- 2
  ulps);
* boundary_value on the real and vertical cuts of those sheets;
* trace_path from sheets +-1..4 and 6, as record lists;
* the sheet-1 dispersion tables, fine and coarse, and dispersion_eval;
* discontinuity_delta0 and discontinuity_delta1 at seeded u and v on the
  sheet-1 cuts, at their range edges (u = Re x_1 - 1e-12, Re x_1, -0.0,
  0.0, 1e-12; v = -1e-12, -0.0, 0.0, Im x_1, Im x_1 + 1e-12), one ulp
  outside them, and at nan;
* local_expansion_check at x_1 and x_2;
* eval_complex and continue_from_anchor on sheets +-300, +-500, +-1000
  and +-2000 in the strip just above x_m right of the band, Re z in
  [Re x_(m-1), 0] and Im z in [1, 1.02]*Im x_m, where the disk route
  places some roots only by its last resort, the exterior form;
* the series pool, drawn after the strip so that the calls before it
  stay as they were: lagrange_b(0..300), and recursion_residuals,
  radius_estimates and (at orders 100 and 300) fit_asymptotic over
  k = 50..order for both kinds of table at orders 1, 2, 12, 40, 41, 100
  and 300.  Each tree builds its own tables, once per process;
* the real-axis pool, drawn after the series pool from its own seeded
  Random, so that every call before it stays as it was: spectrum at
  widths 1, pi, 1e-3, 1e-300 and 1e300 and lambda 0, +-1e-300, +-1e-8,
  +-0.5, +-1e8, +-1e20, +-1e200 and +-1e300 (the last three where an
  even level rounds onto its odd neighbour) at counts 1..10, 300 and
  3000; seeded eval_real(x, n) over the float64 range, and at x = +-0.0
  with each side; chebyshev.fit(3.5, order) at orders 4, 15, 31 and 127;
  and the exit code, stdout and stderr of cli.main for grid (seeded
  ranges, several precisions, CSV and JSON), qm (the default 6 levels,
  the spectrum and a wavefunction) and series --format json;
* the table-evaluation pool, drawn after the real-axis pool from its own
  seeded Random, so that every call before it stays as it was:
  eval_series on both kinds of table at orders 0, 1, 12, 40 and 300, at
  x drawn over each table's domain and past it, at q = |t|/r near 1, and
  at +-0.0, 5e-324, the convergence bound (read from radius_estimates
  and RHO_LIMIT) and one ulp on each side of it, +-inf and nan; and
  eval_cheb on chebyshev.fit(3.5, order) at orders 4, 15, 31 and 127, at
  +-10**U with U uniform in [-320, 308], at +-a = +-3.5 and one ulp on
  each side, +-0.0, +-inf and nan.  Each tree builds its own tables and
  fits, once per process;
* the CLI pool, after the table-evaluation pool and drawing nothing, so
  that every call before it stays as it was: the exit code, stdout and
  stderr of cli.main on every example of README.md's CLI section, with
  and without --format json; on --version and --help, at the top level and
  for each command; and on CLI_USAGE_ERRORS, the usage errors that
  tests/test_cli.py makes.  A scale below 1 runs the first two README
  examples only;
* the near-branch-point pool, after the CLI pool from its own seeded
  Random, so that every call before it stays as it was: boundary_value
  1..256 ulps below x_j on the vertical cut, from both sides, on sheets
  j, j+1 and -j, for j in NEAR_BRANCH_POINTS; continue_from_anchor on
  the same sheets at 1e-3..1e-11 from x_j; local_expansion_check(n,
  (1e-2, 1e-4, 1e-6)) for n = 1, 2 and 5; and trace_path loops, one or
  two turns, of radius 1e-2..1e-6 around x_1, x_2 and x_5.  Here Halley
  stalls, and its iterates fall into cycles.

Each result is compared as repr(result), or as the exception's type name
and message.  A scale below 1 (the smoke tests') shrinks every seeded
draw and leaves out the order-300 tables and the 3000-level spectra.  It
prints the number of calls and each difference, and exits 1 on any
difference, 0 otherwise.

With --routes it then times eval_complex per route (exterior, left of the
band, the band, right of the band) on sheets 1-4, the two trees alternated
pass by pass, and prints one JSON block: per route the median us per
call of each tree, the median ratio change/parent over the pass pairs, and
the passes the change won.

With --series it times lagrange_b(1..30), large_x_coeffs(300),
recursion_residuals and radius_estimates of both order-300 tables,
fit_asymptotic(large, 50, 300) and local_expansion_check(1, (1e-2, 1e-3,
1e-4)), the steps whose costs the tables bundle of perfbench/tables.py
times, then eval_series on both order-300 tables and eval_cheb on the order-15
fit, per call, over the table-evaluation pool's draws that return a
value: the point evaluations of its closed loop.  The trees alternate
pass by pass, and it prints one JSON block of the same form: per step
the median ms per pass (us per call for the evaluations) of each tree,
the median ratio and the passes the change won.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import importlib.util
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import shlex
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHEETS = (1, 2, 3, 4, 5, 6, 7, 8, 20, 100, 600, 10 ** 4, 10 ** 6, 2 ** 52)
STRIP_SHEETS = (300, 500, 1000, 2000)
SERIES_ORDERS = (1, 2, 12, 40, 41, 100, 300)
LAGRANGE_K = 300
SPECTRUM_WIDTHS = (1.0, math.pi, 1e-3, 1e-300, 1e300)
SPECTRUM_LAMBDAS = (0.0, 1e-300, -1e-300, 1e-8, -1e-8, 0.5, -0.5, 1e8, -1e8,
                    1e20, -1e20, 1e200, -1e200, 1e300, -1e300)
SPECTRUM_COUNTS = (*range(1, 11), 300, 3000)
FIT_ORDERS = (4, 15, 31, 127)
TABLE_EVAL_ORDERS = (0, 1, 12, 40, 300)
CHEB_SPLIT = 3.5
NEAR_BRANCH_POINTS = (1, 2, 3, 8, 100, 600, 10 ** 4, 10 ** 6)
CLI_COMMANDS = ("eval", "series", "cheb", "branch-points", "qm", "integrals", "dispersion",
                "grid")
# The argv of every usage error tests/test_cli.py makes (TestEval, TestTables
# and TestOneParserPerProcess); test_cli.py checks that each is one.
CLI_USAGE_ERRORS = (
    ("eval", "--branch", "1"),
    ("eval", "--x", "1", "--branch", "0"),
    ("eval", "--x", "1", "--z", "2,2", "--scheme", "finite-cuts"),
    ("eval", "--x", "-1", "--branch", "1", "--scheme", "finite-cuts"),
    ("eval", "--z", "1,1"),
    ("eval", "--z", "1"),
    ("series", "--kind", "small", "--order", "-1"),
    ("grid", "--range", "0.5:2", "--points", "0"),
    ("grid", "--range", "0.5:2", "--points", "-5"),
    ("grid", "--range", "0.5:2", "--points", "1"),
    ("qm", "--width", "1", "--lambda", "0.5", "--wavefunction", "0", "--points", "1"),
    ("cheb", "--order", "0"),
    ("cheb", "--split", "-1"),
    ("qm", "--lambda", "1", "--levels", "0"),
    ("qm", "--lambda", "1", "--width", "0"),
    ("qm", "--lambda", "1", "--width", "nan"),
    ("integrals", "--range", "0:1"),
    ("integrals", "--range", "2:1"),
    ("integrals", "--range", "1:nan"),
    ("grid", "--range", "0:inf"),
    ("grid", "--range", "nan:1"),
    ("grid", "--range", "-1e308:1e308"),
    ("branch-points", "--count", "-1"),
    ("qm", "--lambda", "nan"),
    ("qm", "--lambda", "inf"),
    ("qm", "--lambda", "-inf"),
    ("grid", "--range", "1"),
    ("qm", "--lambda", "0.5", "--levels", "2", "--wavefunction", "5"),
    ("grid", "--branch", "0", "--range", "0.5:2"),
    ("grid", "--points", "9"),
)


def load(src: str, name: str):
    """The package in src/wtan (src a directory holding wtan/), imported as
    `name`; submodules left in sys.modules by an earlier load under `name`
    are dropped first, so that none of them is reused."""
    for stale in [key for key in sys.modules if key.startswith(name + ".")]:
        del sys.modules[stale]
    package = os.path.join(src, "wtan")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def checkout(ref: str, into: str) -> str:
    """src of REF: the directory's own src, or the commit's src/wtan written
    out under `into`."""
    if os.path.isdir(ref):
        return os.path.join(ref, "src")
    archive = subprocess.run(["git", "-C", ROOT, "archive", ref, "src/wtan"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):   # Python 3.11.4 on
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return os.path.join(into, "src")


def _ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _geometry(cp, m: int):
    """(lo, hi, branch points x_(m-1) (m > 1) and x_m) of sheets +-m, from
    the public cuts_for."""
    real, *vertical = cp.cuts_for(m)
    return real.endpoints[0].real, real.endpoints[1].real, [c.endpoints[1] for c in vertical]


def _sheet_points(cp, m: int, rng: random.Random, scale: float) -> list[complex]:
    lo, hi, points = _geometry(cp, m)
    xm = points[-1]
    outer = 1.2 * abs(xm)
    count = max(1, round(scale * 200))
    zs = [cmath.rect(1.6 * outer * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
          for _ in range(3 * count)]
    zs += [complex(rng.uniform(lo, hi), rng.uniform(-1.1, 1.1) * xm.imag) for _ in range(count)]
    lines = [(complex(lo, 0.0), complex(hi, 0.0))] + [(p.conjugate(), p) for p in points]
    for _ in range(2 * count):   # beside a cut line, or beyond its end
        p, q = rng.choice(lines)
        on = p + rng.uniform(-0.05, 1.05) * (q - p)
        normal = (q - p) / abs(q - p) * 1j
        zs.append(on + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12, -2) * normal)
    for _ in range(count):       # beside a branch point or its conjugate
        p = rng.choice(points)
        p = p if rng.random() < 0.5 else p.conjugate()
        zs.append(p + cmath.rect(10.0 ** rng.uniform(-4, -1), rng.uniform(-math.pi, math.pi)))
    for _ in range(count):       # on the axis, both zeros
        zs.append(complex(rng.uniform(lo - 1.0, 1.0), rng.choice((0.0, -0.0))))
    for _ in range(count):       # at the exterior radius
        r = outer * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16, -6))
        zs.append(cmath.rect(r, rng.uniform(-math.pi, math.pi)))
    for _ in range(count):       # at the guard's edges: CUT_GUARD off the axis,
        # BRANCH_POINT_GUARD beside a branch point's real part, +- 2 ulps each
        p = rng.choice(points)
        im = rng.choice((rng.uniform(-1.1, 1.1) * p.imag, p.imag, -p.imag,
                         rng.choice((-1.0, 1.0)) * cp.CUT_GUARD))
        re = rng.choice((p.real + rng.choice((-1.0, 1.0)) * cp.BRANCH_POINT_GUARD,
                         rng.uniform(lo, hi), hi))
        zs.append(complex(_ulps(re, rng.randint(-2, 2)), _ulps(im, rng.randint(-2, 2))))
    return zs


def census(package, scale: float = 1.0) -> list[tuple[str, tuple]]:
    """The seeded census as (operation, arguments) pairs; `package` (either
    tree) supplies the cut geometry and the series bounds the points are
    drawn from."""
    cp = package.complex_plane
    rng = random.Random(40)
    calls = []
    for m in SHEETS:
        for z in _sheet_points(cp, m, rng, scale):
            for n in (m, -m):
                calls += [("eval_complex", (z, n)), ("continue_from_anchor", (z, n))]
        lo, hi, points = _geometry(cp, m)
        for _ in range(max(1, round(scale * 40))):
            n = rng.choice((m, -m))
            u = rng.uniform(lo, hi)
            calls.append(("boundary_value", (complex(u, 0.0), n, rng.choice(("UPPER", "LOWER")))))
            p = rng.choice(points)
            point = complex(p.real + rng.uniform(-5e-10, 5e-10), rng.uniform(-1.0, 1.0) * p.imag)
            calls.append(("boundary_value", (point, n, rng.choice(("LEFT", "RIGHT")))))
    for _ in range(max(1, round(scale * 60))):
        waypoints = tuple(complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
                          for _ in range(rng.randint(2, 4)))
        calls.append(("trace_path", (waypoints, rng.choice((1, -1, 2, -2, 3, 4, 6)))))
    calls += [("dispersion_tables", ()), ("local_expansion_check", (1, (0.02, 0.01, 0.005))),
              ("local_expansion_check", (2, (0.02, 0.01, 0.005)))]
    calls += [("dispersion_eval", (complex(rng.uniform(-6, 6), rng.uniform(-6, 6)),))
              for _ in range(max(1, round(scale * 20)))]
    x1 = _geometry(cp, 1)[2][0]
    a, b = x1.real, x1.imag
    us = [a - 1e-12, a, -0.0, 0.0, 1e-12, _ulps(a - 1e-12, -1), _ulps(1e-12, 1), math.nan]
    vs = [-1e-12, -0.0, 0.0, b, b + 1e-12, _ulps(-1e-12, -1), _ulps(b + 1e-12, 1), math.nan]
    for _ in range(max(1, round(scale * 40))):
        us.append(rng.uniform(a, 0.0))
        vs.append(rng.uniform(0.0, b))
    calls += [("discontinuity_delta0", (u,)) for u in us]
    calls += [("discontinuity_delta1", (v,)) for v in vs]
    for m in STRIP_SHEETS:
        _, hi, points = _geometry(cp, m)
        for _ in range(max(1, round(scale * 250))):
            z = complex(rng.uniform(hi, 0.0), rng.uniform(1.0, 1.02) * points[-1].imag)
            for n in (m, -m):
                calls += [("eval_complex", (z, n)), ("continue_from_anchor", (z, n))]
    calls += [("lagrange_b", (k,)) for k in range(round(scale * LAGRANGE_K) + 1)]
    # a census scaled below 1 leaves out order 300, whose tables cost the most
    for order in SERIES_ORDERS if scale >= 1 else SERIES_ORDERS[:-1]:
        for kind in ("small", "large"):
            calls += [("recursion_residuals", (kind, order)), ("radius_estimates", (kind, order))]
            if order >= 70:
                calls.append(("fit_asymptotic", (kind, order, 50, order)))
    return (calls + _real_axis_calls(scale) + _table_eval_calls(package, scale)
            + _cli_calls(scale) + _near_branch_point_calls(package, scale))


def _real_axis_calls(scale: float) -> list[tuple[str, tuple]]:
    """The real-axis pool: spectrum, eval_real, chebyshev.fit and cli.main."""
    rng = random.Random(45)
    counts = SPECTRUM_COUNTS if scale >= 1 else SPECTRUM_COUNTS[:-1]
    calls = [("spectrum", (width, lam, count)) for width in SPECTRUM_WIDTHS
             for lam in SPECTRUM_LAMBDAS for count in counts]
    for _ in range(max(1, round(scale * 2000))):
        if rng.random() < 0.9:
            x = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0)
            n = rng.choice((-1, 1)) * rng.randint(1, 8)
        else:
            x = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-323.0, 308.0)
            n = rng.choice((-1, 1)) * int(10.0 ** rng.uniform(0.0, 6.0))
        calls.append(("eval_real", (x, n, None)))
    calls += [("eval_real", (x, n, side)) for x in (0.0, -0.0) for n in (1, -1, 2, -3, 1000)
              for side in (1, -1, None)]
    calls += [("fit", (3.5, order)) for order in FIT_ORDERS]
    points = str(max(11, round(scale * 2001)))
    for precision in (12, 1, 6, 17, 30):
        lo, hi = -rng.uniform(2.0, 5.0), rng.uniform(2.0, 50.0)
        for fmt in ("csv", "json"):
            calls.append(("cli", ("grid", "--branch", str(rng.choice((-3, -2, -1, 1, 2, 3))),
                                  "--range", f"{lo!r}:{hi!r}", "--points", points,
                                  "--precision", str(precision), "--format", fmt)))
    for lam in ("0.5", "-0.5", "1e8", "-2"):
        calls += [("cli", ("qm", "--lambda", lam)),
                  ("cli", ("qm", "--lambda", lam, "--width", "1", "--format", "json")),
                  ("cli", ("qm", "--lambda", lam, "--wavefunction", "3", "--points", "21"))]
    for kind in ("small", "large"):
        for order, precision in ((40, "12"), (100, "17")):
            calls.append(("cli", ("series", "--kind", kind, "--order", str(order),
                                  "--format", "json", "--precision", precision)))
    return calls


def _series_bound(package, kind: str, order: int) -> float:
    """eval_series' convergence bound of one tree's table, from public
    names: the root-test estimate at the highest nonzero order, capped by
    RHO_LIMIT; RHO_LIMIT where no coefficient past c_0 is nonzero."""
    series = package.series
    rhos = series.radius_estimates(_series_table(package, kind, order)) if order else []
    if not rhos:
        return series.RHO_LIMIT
    return (min if kind == "small" else max)(rhos[-1].rho, series.RHO_LIMIT)


def _table_eval_calls(package, scale: float) -> list[tuple[str, tuple]]:
    """The table-evaluation pool: eval_series and eval_cheb, Python floats
    only."""
    rng = random.Random(46)
    calls = []
    count = max(1, round(scale * 300))
    for order in TABLE_EVAL_ORDERS if scale >= 1 else TABLE_EVAL_ORDERS[:-1]:
        for kind in ("small", "large"):
            bound = _series_bound(package, kind, order)
            edges = [bound, math.nextafter(bound, 0.0), math.nextafter(bound, math.inf)]
            xs = [0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan] + edges
            if kind == "small":
                xs += [rng.uniform(0.0, 2.7) for _ in range(count)]
                xs += [10.0 ** rng.uniform(-320.0, 0.0) for _ in range(count)]
                xs += [bound * (1.0 - 10.0 ** rng.uniform(-16.0, -1.0)) for _ in range(count)]
            else:
                xs += [-x for x in edges]
                xs += [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 308.0)
                       for _ in range(2 * count)]
                xs += [rng.choice((-1.0, 1.0)) * bound * (1.0 + 10.0 ** rng.uniform(-16.0, -1.0))
                       for _ in range(count)]
            calls += [("eval_series", (kind, order, x)) for x in xs]
    a = CHEB_SPLIT
    for order in FIT_ORDERS:
        xs = [0.0, -0.0, math.inf, -math.inf, math.nan]
        xs += [s * e for s in (1.0, -1.0)
               for e in (a, math.nextafter(a, 0.0), math.nextafter(a, math.inf))]
        xs += [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 308.0)
               for _ in range(2 * count)]
        calls += [("eval_cheb", (order, x)) for x in xs]
    return calls


def readme_examples() -> list[tuple[str, ...]]:
    """The argv of each `wtan ...` line of README.md's CLI section."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = fh.read().split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [tuple(shlex.split(line.split("#", 1)[0]))[1:]
            for line in block.splitlines() if line.startswith("wtan ")]


def _cli_calls(scale: float) -> list[tuple[str, tuple]]:
    """The CLI pool: README examples, help and version texts, usage errors."""
    examples = readme_examples() if scale >= 1 else readme_examples()[:2]
    calls = [("cli", argv) for argv in examples]
    calls += [("cli", (*argv, "--format", "json")) for argv in examples
              if "--format" not in argv]
    calls += [("cli", argv) for argv in (("--version",), ("--help",))]
    calls += [("cli", (command, "--help")) for command in CLI_COMMANDS]
    return calls + [("cli", argv) for argv in CLI_USAGE_ERRORS]


def _near_branch_point_calls(package, scale: float) -> list[tuple[str, tuple]]:
    """The near-branch-point pool: boundary_value, continue_from_anchor,
    local_expansion_check and trace_path within 1e-2 of x_j."""
    cp = package.complex_plane
    rng = random.Random(48)
    calls = []
    count = max(1, round(scale * 12))
    for j in NEAR_BRANCH_POINTS:
        xj = _geometry(cp, j)[2][-1]
        for n in (j, j + 1, -j):
            for _ in range(count):
                point = complex(xj.real, _ulps(xj.imag, -rng.randint(1, 256)))
                calls += [("boundary_value", (point, n, side)) for side in ("LEFT", "RIGHT")]
                d = cmath.rect(10.0 ** rng.uniform(-11.0, -3.0), rng.uniform(-math.pi, math.pi))
                calls.append(("continue_from_anchor", (xj + d, n)))
    calls += [("local_expansion_check", (n, (1e-2, 1e-4, 1e-6))) for n in (1, 2, 5)]
    for j in (1, 2, 5):
        xj = _geometry(cp, j)[2][-1]
        for _ in range(max(1, round(scale * 4))):
            r, start = 10.0 ** rng.uniform(-6.0, -2.0), rng.uniform(-math.pi, math.pi)
            turns = rng.choice((1, 2))
            waypoints = tuple(xj + cmath.rect(r, start + 0.25 * math.pi * i)
                              for i in range(8 * turns + 1))
            calls.append(("trace_path", (waypoints, rng.choice((j, j + 1, -j)))))
    return calls


def _cli_output(package, argv: tuple) -> tuple:
    """(exit code, stdout, stderr) of one tree's cli.main(argv)."""
    main = importlib.import_module(f"{package.__name__}.cli").main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@functools.lru_cache(maxsize=None)
def _series_table(package, kind: str, order: int):
    """One tree's series table of `kind` ("small" or "large") and order."""
    series = package.series
    return (series.small_x_coeffs if kind == "small" else series.large_x_coeffs)(order)


@functools.lru_cache(maxsize=None)
def _cheb_model(package, order: int):
    """One tree's chebyshev.fit(CHEB_SPLIT, order)."""
    return package.chebyshev.fit(CHEB_SPLIT, order)


def _run(package, operation: str, args: tuple) -> str:
    """repr of one census call's result, or its exception's type and message."""
    cp = package.complex_plane
    try:
        if operation == "boundary_value":
            point, n, side = args
            out = cp.boundary_value(point, n, cp.Side[side])
        elif operation == "trace_path":
            waypoints, n = args
            out = cp.trace_path(cp.ContinuationPath(waypoints), n)
        elif operation == "dispersion_tables":
            atlas = cp.SheetAtlas()
            out = [cp._delta_tables(atlas, *layout)
                   for layout in (cp.DISPERSION_FINE, cp.DISPERSION_COARSE)]
        elif operation == "dispersion_eval":
            out = cp.dispersion_eval(args[0], cp.SheetAtlas())
        elif operation == "local_expansion_check":
            out = package.branch_points.local_expansion_check(*args)
        elif operation == "lagrange_b":
            out = package.series.lagrange_b(*args)
        elif operation == "recursion_residuals":
            out = _series_table(package, *args).recursion_residuals()
        elif operation in ("radius_estimates", "fit_asymptotic"):
            kind, order, *window = args
            out = getattr(package.series, operation)(_series_table(package, kind, order), *window)
        elif operation == "spectrum":
            width, lam, count = args
            out = package.quantum.spectrum(package.quantum.WellModel(width, lam), count)
        elif operation == "eval_real":
            x, n, side = args
            out = package.core.eval_real(x, n, side=side)
        elif operation == "fit":
            out = package.chebyshev.fit(*args)
        elif operation == "eval_series":
            kind, order, x = args
            out = package.series.eval_series(x, _series_table(package, kind, order))
        elif operation == "eval_cheb":
            order, x = args
            out = package.chebyshev.eval_cheb(x, _cheb_model(package, order))
        elif operation == "cli":
            out = _cli_output(package, args)
        else:
            out = getattr(cp, operation)(*args)
    except Exception as exc:   # an outcome to compare, as a value is
        return f"{type(exc).__name__}: {exc}"
    return repr(out)


def compare(change, parent, scale: float = 1.0) -> tuple[int, list[str]]:
    """Run the census on both packages: (calls made per tree, differences)."""
    calls = census(change, scale)
    differences = []
    for operation, args in calls:
        a, b = _run(change, operation, args), _run(parent, operation, args)
        if a != b:
            differences.append(f"{operation}{args!r}: change {a} | parent {b}")
    return len(calls), differences


def _route_points(package, per_route: int = 300) -> dict[str, list[tuple[complex, int]]]:
    """Seeded eval_complex points on sheets 1-4 that raise nothing, by route."""
    cp = package.complex_plane
    rng = random.Random(70)
    routes = {"exterior": [], "left": [], "band": [], "right": []}
    while min(len(v) for v in routes.values()) < per_route:
        m = rng.randint(1, 4)
        lo, _, points = _geometry(cp, m)
        outer = 1.2 * abs(points[-1])
        z = cmath.rect(1.6 * outer * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
        route = ("exterior" if abs(z) >= outer else "right" if z.real > 0.0
                 else "left" if z.real < lo else "band")
        n = rng.choice((m, -m))
        try:
            cp.eval_complex(z, n)
        except package.errors.OnCut:   # it would time the guard's raise
            continue
        if len(routes[route]) < per_route:
            routes[route].append((z, n))
    return routes


def _paired(steps: dict, passes: int, unit: str, scale: float) -> dict:
    """Time each step's two sides (steps maps a name to {"parent": run,
    "change": run}) over `passes` passes, alternated pass by pass: per step
    each side's median time per pass, times `scale` and in `unit`, the
    median ratio change/parent over the pass pairs and the passes the
    change won."""
    report = {}
    for name, sides in steps.items():
        times = {"change": [], "parent": []}
        for i in range(passes):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                t0 = time.perf_counter()
                sides[side]()
                times[side].append(scale * (time.perf_counter() - t0))
        ratios = [c / p for c, p in zip(times["change"], times["parent"])]
        report[name] = {
            f"parent_{unit}": round(statistics.median(times["parent"]), 3),
            f"change_{unit}": round(statistics.median(times["change"]), 3),
            "median_ratio": round(statistics.median(ratios), 4),
            "change_faster_passes": f"{sum(r < 1.0 for r in ratios)}/{passes}",
        }
    return report


def time_routes(change, parent, passes: int = 40, per_route: int = 300) -> dict:
    """Per route, each tree's median us per eval_complex call, as `_paired`
    times it."""
    def run(package, points):
        ev = package.complex_plane.eval_complex

        def one_pass():
            for z, n in points:
                ev(z, n)
        return one_pass

    steps = {route: {"parent": run(parent, points), "change": run(change, points)}
             for route, points in _route_points(change, per_route).items()}
    return _paired(steps, passes, "us", 1e6 / per_route)


def _eval_steps(package) -> dict[str, tuple]:
    """The timed point evaluations: name -> (evaluator, table or model)."""
    return {
        "eval_series(small, 300)": (package.series.eval_series,
                                    _series_table(package, "small", 300)),
        "eval_series(large, 300)": (package.series.eval_series,
                                    _series_table(package, "large", 300)),
        "eval_cheb(15)": (package.chebyshev.eval_cheb, _cheb_model(package, 15)),
    }


def _eval_points(package) -> dict[str, list[float]]:
    """Per timed evaluation, the table-evaluation pool's x that return a
    value on `package`."""
    steps = _eval_steps(package)
    points = {name: [] for name in steps}
    for operation, args in _table_eval_calls(package, 1.0):
        if operation == "eval_series" and args[1] == 300:
            name = f"eval_series({args[0]}, 300)"
        elif operation == "eval_cheb" and args[0] == 15:
            name = "eval_cheb(15)"
        else:
            continue
        ev, model = steps[name]
        try:
            ev(args[-1], model)
        except package.errors.WtanError:
            continue
        points[name].append(args[-1])
    return points


def time_evals(change, parent, passes: int = 40) -> dict:
    """eval_series on both order-300 tables and eval_cheb on the order-15
    fit, over the pool's draws that return a value: each tree's median us
    per call, as `_paired` times it.  Each pass runs once on both trees
    first, outside the timing."""
    def run(package, name, xs):
        ev, model = _eval_steps(package)[name]

        def one_pass():
            for x in xs:
                ev(x, model)
        return one_pass

    report = {}
    for name, xs in _eval_points(change).items():
        sides = {"parent": run(parent, name, xs), "change": run(change, name, xs)}
        for one_pass in sides.values():
            one_pass()
        report.update(_paired({name: sides}, passes, "us", 1e6 / len(xs)))
    return report


def time_series(change, parent, passes: int = 40) -> dict:
    """lagrange_b(1..30), large_x_coeffs(300), recursion_residuals and
    radius_estimates of each order-300 table, fit_asymptotic(large, 50,
    300) and local_expansion_check(1, (1e-2, 1e-3, 1e-4)): each tree's
    median ms per pass, as `_paired` times it.  Every step runs once on both trees first,
    so that lagrange_b's series and the tables it reads are built outside
    the timing."""
    def lagrange(package):
        return lambda: [package.series.lagrange_b(k) for k in range(1, 31)]

    def large(package):
        return lambda: package.series.large_x_coeffs(300)

    def residuals(package, kind):
        return _series_table(package, kind, 300).recursion_residuals

    def radii(package, kind):
        table = _series_table(package, kind, 300)
        return lambda: package.series.radius_estimates(table)

    def fit(package):
        table = _series_table(package, "large", 300)
        return lambda: package.series.fit_asymptotic(table, 50, 300)

    def local(package):
        return lambda: package.branch_points.local_expansion_check(1, (1e-2, 1e-3, 1e-4))

    steps = {"lagrange_b(1..30)": {"parent": lagrange(parent), "change": lagrange(change)},
             "large_x_coeffs(300)": {"parent": large(parent), "change": large(change)}}
    for kind in ("small", "large"):
        steps[f"recursion_residuals({kind}, 300)"] = {"parent": residuals(parent, kind),
                                                      "change": residuals(change, kind)}
        steps[f"radius_estimates({kind}, 300)"] = {"parent": radii(parent, kind),
                                                   "change": radii(change, kind)}
    steps["fit_asymptotic(large, 50, 300)"] = {"parent": fit(parent), "change": fit(change)}
    steps["local_expansion_check(1, (1e-2, 1e-3, 1e-4))"] = {"parent": local(parent),
                                                            "change": local(change)}
    for sides in steps.values():
        for run in sides.values():
            run()
    return _paired(steps, passes, "ms", 1e3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", default="HEAD",
                        help="git commit, or a directory holding src/wtan (default HEAD)")
    parser.add_argument("--routes", action="store_true",
                        help="time eval_complex per route too")
    parser.add_argument("--series", action="store_true",
                        help="time the series steps too")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        parent = load(checkout(args.ref, scratch), "wtan_parent")
        change = load(os.path.join(ROOT, "src"), "wtan_change")
        calls, differences = compare(change, parent)
        for line in differences:
            print(line)
        print(f"{calls} calls per tree, {len(differences)} differences")
        if args.routes:
            print(json.dumps(time_routes(change, parent), indent=1))
        if args.series:
            print(json.dumps({**time_series(change, parent), **time_evals(change, parent)},
                             indent=1))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
