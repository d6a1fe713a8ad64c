"""Seeded inputs for the four workloads.

Every generator takes a `random.Random` made by `rng_for(workload, seed)`,
so one seed always gives the same inputs; `digest` hashes them so two runs
can be shown to have used the same inputs.  Only the standard library is
used here: the program under test never sees the generator, only its
output.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random

# Branch points x_1..x_4 as printed in the paper's table (upper half-plane
# representatives).  Used to place complex inputs relative to the cuts; the
# generous clearances below dwarf the 1e-6 printing error.
BRANCH_POINTS = (
    complex(-1.650611, 2.059981),
    complex(-2.057845, 5.334708),
    complex(-2.278470, 8.522637),
    complex(-2.431122, 11.68877),
)

# eval_real returns a wrong value without raising from |x| ~ 2e31 on (the
# window midpoint; e.g. eval_real(1e40, 1) = pi/4).  Inputs above this go to
# the defect census, not the timed loop.
REAL_DEFECT_FROM = 1e30
# eval_real raises NoConvergence for some subnormal x whose root offset from
# the branch window's edge, |x|/C, underflows to 0 (all seen with |n| >~ 2e4).
# Such inputs go to the census as well.
# eval_complex raises StepTooLarge for some |z| >~ 1e7 and every |z| >= 1e8.
COMPLEX_DEFECT_FROM = 10.0 ** 6.5

NEAR_FACTOR = 1.5      # near points: |z| < 1.5 |x_|n||
CUT_CLEARANCE = 0.05   # near points keep this distance from cuts and branch points
MAX_SHEET = 4


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def digest(*groups) -> str:
    """sha256 over the exact bits of every float, int and string in groups."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, float):
            h.update(v.hex().encode())
        elif isinstance(v, complex):
            feed(v.real)
            feed(v.imag)
        elif isinstance(v, (list, tuple)):
            h.update(b"(")
            for item in v:
                feed(item)
            h.update(b")")
        else:
            h.update(repr(v).encode())
        h.update(b",")

    for g in groups:
        feed(g)
    return h.hexdigest()


def _sign(rng: random.Random) -> int:
    return -1 if rng.random() < 0.5 else 1


def _window_edge(x: float, n: int) -> float:
    """C with the root at C + |x|/C + ..., as eval_real brackets it."""
    return (abs(n) - 1) * math.pi if x > 0.0 else abs(n) * math.pi


def offset_underflows(x: float, n: int) -> bool:
    c = _window_edge(x, n)
    return c > 0.0 and abs(x) / c == 0.0


def real_band(x: float, n: int) -> str:
    """Per-layer band of an eval_real input: high_n beats large_x."""
    if abs(n) > 8:
        return "high_n"
    if abs(x) > 1e4:
        return "large_x"
    return "small_x"


def real_points(rng: random.Random, count: int) -> list[tuple[float, int]]:
    """90%: |x| log-uniform in 1e-6..1e6, n in +-1..+-8.  10%: the rest of
    the float64 range below REAL_DEFECT_FROM (subnormals included) with |n|
    log-uniform up to 1e6, less the census's tiny-offset inputs."""
    out = []
    while len(out) < count:
        if rng.random() < 0.9:
            x = _sign(rng) * 10.0 ** rng.uniform(-6.0, 6.0)
            n = _sign(rng) * rng.randint(1, 8)
        else:
            if rng.random() < 0.5:
                e = rng.uniform(-323.0, -6.0)
            else:
                e = rng.uniform(6.0, math.log10(REAL_DEFECT_FROM))
            x = _sign(rng) * 10.0 ** e
            n = _sign(rng) * int(10.0 ** rng.uniform(0.0, 6.0))
            if offset_underflows(x, n):
                continue
        out.append((x, n))
    return out


def real_census_points(rng: random.Random, count: int) -> list[tuple[str, float, int]]:
    """Known-defect bands, as (band, x, n): huge_x, |x| log-uniform from
    REAL_DEFECT_FROM to 1.6e308 (four in five points); tiny_offset, |n|
    log-uniform in 1e4..1e6 and subnormal |x| whose offset underflows."""
    out = []
    for i in range(count):
        if i % 5:
            x = _sign(rng) * 10.0 ** rng.uniform(math.log10(REAL_DEFECT_FROM), 308.2)
            if rng.random() < 0.8:
                n = _sign(rng) * rng.randint(1, 8)
            else:
                n = _sign(rng) * int(10.0 ** rng.uniform(0.0, 6.0))
            out.append(("huge_x", x, n))
        else:
            n = _sign(rng) * int(10.0 ** rng.uniform(4.0, 6.0))
            x = _sign(rng)
            while not offset_underflows(x, n):
                x = _sign(rng) * 10.0 ** rng.uniform(-323.3, -318.0)
            out.append(("tiny_offset", x, n))
    return out


def _segment_distance(z: complex, a: complex, b: complex) -> float:
    ab = b - a
    t = ((z - a) * ab.conjugate()).real / abs(ab) ** 2
    return abs(z - (a + min(1.0, max(0.0, t)) * ab))


def sheet_cuts(m: int) -> list[tuple[complex, complex]]:
    """Cut segments of sheet +-m in the finite-cuts convention."""
    bp = BRANCH_POINTS
    if m == 1:
        return [(complex(bp[0].real, 0.0), 0j), (bp[0].conjugate(), bp[0])]
    return [(complex(bp[m - 1].real, 0.0), complex(bp[m - 2].real, 0.0)),
            (bp[m - 2].conjugate(), bp[m - 2]),
            (bp[m - 1].conjugate(), bp[m - 1])]


def clearance(z: complex, m: int) -> float:
    """Distance from z to the cuts of sheet +-m and to every branch point."""
    points = [0j] + list(BRANCH_POINTS) + [p.conjugate() for p in BRANCH_POINTS]
    return min([_segment_distance(z, a, b) for a, b in sheet_cuts(m)]
               + [abs(z - p) for p in points])


def complex_points(rng: random.Random, count: int) -> list[tuple[complex, int, str]]:
    """Half near points (|z| < 1.5 |x_|n||, clear of cuts), half far points
    (|z| log-uniform from that radius to COMPLEX_DEFECT_FROM), sheets +-1..+-4."""
    out = []
    while len(out) < count:
        n = _sign(rng) * rng.randint(1, MAX_SHEET)
        radius = NEAR_FACTOR * abs(BRANCH_POINTS[abs(n) - 1])
        theta = rng.uniform(-math.pi, math.pi)
        if len(out) % 2 == 0:
            z = cmath.rect(radius * math.sqrt(rng.random()), theta)
            if clearance(z, abs(n)) < CUT_CLEARANCE:
                continue
            out.append((z, n, "near"))
        else:
            r = 10.0 ** rng.uniform(math.log10(radius), math.log10(COMPLEX_DEFECT_FROM))
            out.append((cmath.rect(r, theta), n, "far"))
    return out


def complex_census_points(rng: random.Random, count: int) -> list[tuple[complex, int]]:
    """|z| log-uniform from COMPLEX_DEFECT_FROM to 1e9, sheets +-1..+-4."""
    return [(cmath.rect(10.0 ** rng.uniform(math.log10(COMPLEX_DEFECT_FROM), 9.0),
                        rng.uniform(-math.pi, math.pi)),
             _sign(rng) * rng.randint(1, MAX_SHEET))
            for _ in range(count)]


def cut_inputs(rng: random.Random) -> dict:
    """Arguments for one cut pass on the sheet-1 cuts and the sheet-2 real cut."""
    a, b = BRANCH_POINTS[0].real, BRANCH_POINTS[0].imag
    a2 = BRANCH_POINTS[1].real
    return {
        "delta0_u": [rng.uniform(a + 0.05, -0.05) for _ in range(4)],
        "delta1_v": [rng.uniform(0.05, b - 0.05) for _ in range(2)],
        # (cut, coordinate along it, sheet, side) for boundary_value; the
        # vertical cut is the one through x_1
        "boundary": [("real", rng.uniform(a + 0.05, -0.05), 1, "upper"),
                     ("real", rng.uniform(a + 0.05, -0.05), -1, "lower"),
                     ("real", rng.uniform(a2 + 0.05, a - 0.05), 2, "upper"),
                     ("vertical", rng.uniform(0.05, b - 0.05), 1, "right")],
        "dispersion_at": [_clear_point(rng, 1, 3.0, 20.0, 0.5) for _ in range(3)],
        "loop_radius": 10.0 ** rng.uniform(-3.0, -2.0),
    }


def _clear_point(rng, m, r_lo, r_hi, gap) -> complex:
    while True:
        z = cmath.rect(rng.uniform(r_lo, r_hi), rng.uniform(-math.pi, math.pi))
        if clearance(z, m) >= gap:
            return z


def table_points(rng: random.Random, count: int) -> list[tuple[str, float]]:
    """Evaluation points for the generated tables: small-argument series on
    (1e-3, 2), large-argument series for |x| in (3.5, 1e6), Chebyshev model
    on |x| in (1e-3, 50) for both signs."""
    out = []
    for i in range(count):
        kind = ("small", "large", "cheb")[i % 3]
        if kind == "small":
            x = rng.uniform(1e-3, 2.0)
        elif kind == "large":
            x = _sign(rng) * 10.0 ** rng.uniform(math.log10(3.5), 6.0)
        else:
            x = _sign(rng) * 10.0 ** rng.uniform(-3.0, math.log10(50.0))
        out.append((kind, x))
    return out


def bulk_inputs(rng: random.Random) -> dict:
    """Arguments for one bulk pass of real_batch (fixed sizes, seeded values)."""
    return {
        "grid": [(rng.choice((-3, -2, -1, 1, 2, 3)), -rng.uniform(2.0, 5.0),
                  rng.uniform(2.0, 5.0)) for _ in range(3)],
        "grid_points": 2001,
        "spectrum_lambda": [10.0 ** rng.uniform(-3.0, 1.0) * _sign(rng)
                            for _ in range(2)],
        "spectrum_levels": 3000,
        "cheb_orders": [15, 31, 63, 127],
    }


def cli_script(rng: random.Random) -> list[list[str]]:
    """Every subcommand of the README, with its documented arguments; the
    numeric arguments of eval, qm and dispersion are seeded."""
    x1 = _sign(rng) * 10.0 ** rng.uniform(-2.0, 2.0)
    x2 = _sign(rng) * 10.0 ** rng.uniform(-2.0, 2.0)
    z = _clear_point(rng, 2, 10.0, 50.0, 1.0)
    at = _clear_point(rng, 1, 3.0, 20.0, 0.5)
    lam = 10.0 ** rng.uniform(-8.0, 0.0)
    return [
        ["eval", "--x", f"{x1:.6g}", "--branch", str(_sign(rng) * rng.randint(1, 4))],
        ["eval", "--x", f"{x2:.6g}", "--branch", str(rng.randint(1, 4)),
         "--derivative", "--check"],
        ["eval", "--z", f"{z.real:.6g},{z.imag:.6g}", "--branch",
         str(_sign(rng) * rng.randint(1, 2)), "--scheme", "finite-cuts",
         "--format", "json"],
        ["eval", "--x", "0", "--branch", str(rng.randint(1, 4)), "--side", "neg"],
        ["series", "--kind", "large", "--order", "12"],
        ["cheb", "--split", "3.5", "--order", "15"],
        ["branch-points", "--count", "6"],
        ["qm", "--width", "1", "--lambda", f"{lam:.6g}", "--levels", "6"],
        ["qm", "--width", "1", "--lambda", "0.5", "--levels", "2",
         "--wavefunction", "0", "--points", "101"],
        ["integrals"],
        ["dispersion", "--at", f"{at.real:.6g},{at.imag:.6g}"],
        ["grid", "--branch", str(_sign(rng) * rng.randint(1, 3)),
         "--range", "-3.5:3.5", "--points", "201"],
    ]
