"""The inverse map as the oracle on every sheet.

Draw a value w, set z = w*tan(w) and n = complex_plane._label(z, w, 1),
the sheet whose w-plane region holds w.  Then w is the sheet-n value at z,
and eval_complex(z, n).y and continue_from_anchor(z, n) must lie within

    4*eps*(|w*tan(w)| + |z|)/|f'(w)| + 4*eps*|w|,   f'(w) = tan w + w*sec^2 w,

of it: the rounding of z, moved through the conditioning of the map, and
a few ulps of w.  No mpmath, no continuation and no hand-built point set:
the draws weight the plane where the values lie.

A draw is left out only where eval_complex raises OnCut and z lies inside
the guard it states (CUT_GUARD of a cut of sheet n, BRANCH_POINT_GUARD of
a branch point), or where the region test (_in_arc) cannot decide which
side of an arc bounding R_|n| holds w, so that the label itself is not
known.  Every draw left out is counted.
"""

import cmath
import math
import random

import pytest

from wtan import complex_plane
from wtan.complex_plane import (BRANCH_POINT_GUARD, CUT_GUARD, _cut_distances, _in_arc, _label,
                                _point, _sheet, continue_from_anchor, eval_complex)
from wtan.errors import OnCut

EPS = 2.220446049250313e-16


def _in_guard(z: complex, n: int) -> bool:
    """z lies where eval_complex states it raises OnCut on sheet n."""
    s = _sheet(abs(n))
    if min(_cut_distances(z, s)) < CUT_GUARD:
        return True
    return any(abs(complex(z.real - b.x.real, abs(z.imag) - b.x.imag)) < BRANCH_POINT_GUARD
               for b in s.near)


def _undecided(w: complex, n: int) -> bool:
    """The region test leaves open whether w lies inside A_|n|, or outside
    A_(|n|-1): the arcs whose sides decide its label."""
    sign = 1 if w.real > 0.0 or (w.real == 0.0 and w.imag > 0.0) else -1
    u, v = sign * w.real, abs(w.imag)
    m = abs(n)
    return any(_in_arc(u, v, _point(j)) is None for j in (m - 1, m) if j >= 1)


def _check(draws, start=lambda w: 1):
    """Check every draw: the counts of draws checked and left out by the
    guard, the draws left out as undecided, and the worst error in units of
    its bound.  The label search starts from start(w)."""
    checked, guarded, undecided, worst = 0, 0, [], 0.0
    for w in draws:
        t = cmath.tan(w)
        z = w * t
        n = _label(z, w, start(w))
        if _undecided(w, n):
            undecided.append(w)
            continue
        try:
            y = eval_complex(z, n).y
        except OnCut:
            assert _in_guard(z, n), (w, z, n)
            guarded += 1
            continue
        bound = (4 * EPS * (abs(w * t) + abs(z)) / abs(t + w * (1.0 + t * t))
                 + 4 * EPS * abs(w))
        for value in (y, continue_from_anchor(z, n)):
            assert abs(value - w) <= bound, (w, z, n, value)
            worst = max(worst, abs(value - w) / bound)
        checked += 1
    return checked, guarded, undecided, worst


def _signed(rng: random.Random, w: complex) -> complex:
    """w with a random sign and a random conjugation: z = w*tan(w) is even
    in w, and conjugates with it."""
    w = w if rng.random() < 0.5 else w.conjugate()
    return w if rng.random() < 0.5 else -w


def test_low_sheets():
    # Re w in [0, 40], Im w ~ Exp(1): sheets 1 to ~13, every route
    rng = random.Random(20)
    draws = [_signed(rng, complex(rng.uniform(0.0, 40.0), rng.expovariate(1.0)))
             for _ in range(4000)]
    checked, guarded, undecided, worst = _check(draws)
    assert checked + guarded + len(undecided) == len(draws)
    assert guarded + len(undecided) <= 0.01 * len(draws)
    assert worst <= 1.0


@pytest.mark.parametrize("k", range(10, 41))
def test_bands_near_2_to_the_k_pi(k):
    # Re w within pi of 2^k*pi, Im w ~ Exp(1): sheets near 2^k, where the
    # exterior and the window routes serve the disk.  The label search
    # starts from the sheet below Re w: from 1 it would find some 40
    # branch points per draw, each once, and give the same label
    rng = random.Random(k)
    draws = [_signed(rng, complex(2.0 ** k * math.pi + rng.uniform(-math.pi, math.pi),
                                  rng.expovariate(1.0)))
             for _ in range(40)]
    checked, guarded, undecided, worst = _check(
        draws, start=lambda w: max(1, int(abs(w.real) / math.pi)))
    assert checked + guarded + len(undecided) == len(draws)
    assert guarded + len(undecided) <= 1
    assert worst <= 1.0


@pytest.mark.parametrize("j", range(1, 9))
def test_near_the_branch_point_values(j):
    # w at 10^U from w_j, U uniform in [-8, -1]: within 1e-2 of w_j, z lies
    # within ~1e-4 of x_j, inside the 1e-3 guard, where OnCut is the stated
    # answer; further out some draws leave the guard and are checked
    rng = random.Random(100 + j)
    wj = _point(j).y
    draws = [_signed(rng, wj + cmath.rect(10.0 ** rng.uniform(-8.0, -1.0),
                                          rng.uniform(-math.pi, math.pi)))
             for _ in range(300)]
    checked, guarded, undecided, worst = _check(draws)
    assert checked + guarded + len(undecided) == len(draws)
    # beside w_j, on either half of A_j, the sign of Re f - a_j falls below
    # its rounding; there z lies inside the guard, which refuses it anyway
    xj = _point(j).x
    for w in undecided:
        z = w * cmath.tan(w)
        assert abs(complex(z.real - xj.real, abs(z.imag) - xj.imag)) < BRANCH_POINT_GUARD
    assert checked >= 5
    assert worst <= 1.0


def test_the_label_search_start_does_not_change_the_label():
    # the far bands start the search near the sheet; on low sheets and at
    # a far one the label from 1 is the same
    rng = random.Random(7)
    for w in [complex(rng.uniform(0.0, 40.0), rng.expovariate(1.0)) for _ in range(200)] + [
            complex(2.0 ** 20 * math.pi + 1.0, 0.5)]:
        z = w * cmath.tan(w)
        assert _label(z, w, 1) == _label(z, w, max(1, int(w.real / math.pi)))
    assert complex_plane._LAST_POINT >= 2 ** 41
