"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the package's solver internals: plain
interval bisection on g(y) = y*sin(y) - x*cos(y) for real branch values,
and on p*tanh(p) + u for the purely imaginary boundary values.  Expected
values frozen in the tests were computed with these.
"""

import math

import pytest
from hypothesis import settings

from wtan.complex_plane import SheetAtlas

# property tests draw the same examples on every run and keep no database
settings.register_profile("wtan", derandomize=True, deadline=None, database=None)
settings.load_profile("wtan")


def bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def w_real_oracle(x, n=1):
    """Branch value by bisection on y*sin(y) - x*cos(y) in the branch window."""
    if n < 0:
        return -w_real_oracle(x, -n)

    def g(y):
        return y * math.sin(y) - x * math.cos(y)

    if x > 0:
        lo, hi = (n - 1) * math.pi, (n - 0.5) * math.pi
    elif x < 0:
        lo, hi = (n - 0.5) * math.pi, n * math.pi
    else:
        raise ValueError("oracle needs x != 0")
    return bisect(g, lo + 1e-13, hi - 1e-13)


def imaginary_boundary_oracle(u):
    """p with p*tanh(p) = -u: the upper boundary value i*p on the real cut."""
    if not u < 0:
        raise ValueError("oracle needs u < 0")
    return bisect(lambda p: p * math.tanh(p) + u, 1e-12, max(10.0, -2.0 * u))


def jump_residual(model, entry, psi):
    """Defect of the square well's derivative-jump condition across the
    contact term,

        |(A_II + A_I) k cos(ka/2) - k^2 lambda A_I sin(ka/2)| ,

    identically zero for exact eigenstates (odd states satisfy it with both
    sides vanishing)."""
    k, a = entry.k, model.width_a
    half = 0.5 * k * a
    return abs((psi.A_II + psi.A_I) * k * math.cos(half)
               - k * k * model.lam * psi.A_I * math.sin(half))


# printed branch-point table used by several suites (frozen reference data)
BRANCH_POINT_TABLE = [
    # n, x_re, x_im, |x|, y_re, y_im
    (1, -1.650611, 2.059981, 2.639705, 2.106196, 1.125364),
    (2, -2.057845, 5.334708, 5.717853, 5.356269, 1.551574),
    (3, -2.278470, 8.522637, 8.821948, 8.536682, 1.775544),
    (4, -2.431122, 11.68877, 11.938917, 11.69918, 1.929404),
    (5, -2.547991, 14.84580, 15.062869, 14.85406, 2.046852),
    (6, -2.642706, 17.99809, 18.191069, 18.00493, 2.141891),
]


@pytest.fixture(scope="session")
def atlas():
    return SheetAtlas.build(4)
