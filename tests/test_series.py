import math
import random
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wtan import series

from wtan.core import derivative, eval_real
from wtan.errors import FitDiverged, NonFiniteArgument, OutsideConvergence
from wtan.series import (
    RHO_HAT,
    RHO_LIMIT,
    AsymptoticFit,
    SeriesEval,
    SeriesKind,
    SeriesTable,
    eval_series,
    fit_asymptotic,
    lagrange_b,
    large_x_coeffs,
    radius_estimates,
    small_x_coeffs,
)

PI2 = math.pi ** 2

SMALL_X_EXACT = [1.0, -1.0 / 6.0, 11.0 / 360.0, -17.0 / 5040.0, -281.0 / 604800.0]
LARGE_X_EXACT = [1.0, -1.0, 1.0, -(1.0 - PI2 / 12.0), -(PI2 / 3.0 - 1.0)]

# |x_1| and arg(x_1): modulus and phase of the nearest singular point
RHO_TRUE = 2.639705
ARG_TRUE = math.atan2(2.059981, -1.650611)


# Reference recursions with plain term-by-term mpmath sums (one rounding
# per term).  The module's integer convolutions, each rounded once, must
# round to the same floats.

def reference_small(K, dps):
    with mp.workdps(dps):
        a, d = [mp.mpf(1)], [mp.mpf(1)]
        for k in range(1, K + 1):
            S = sum(((4 * j - k) * a[j] * d[k - j] for j in range(1, k)),
                    mp.mpf(0)) / k
            ak = -mp.mpf(2 * k - 1) / (4 * k + 2) * a[k - 1] \
                 - mp.mpf(2 * k + 3) / (3 * (4 * k + 2)) * S
            a.append(ak)
            d.append(3 * ak + S)
        return a, d


def reference_large(K, dps):
    with mp.workdps(dps):
        pi2_4 = mp.pi ** 2 / 4
        b, c = [mp.mpf(1)], [mp.mpf(1), mp.mpf(1)]
        for k in range(1, K + 1):
            b.append(-sum(b[k - j] * c[j] for j in range(1, k + 1)))
            c.append((pi2_4 * (k - 1) * b[k - 1] - (k - 1) * c[k]) / (k + 1))
        return b, c[:K + 1]


def reference_lagrange_b(k, dps=50):
    N = k - 1

    def mul(p, q):
        out = [mp.mpf(0)] * (N + 1)
        for i, pv in enumerate(p):
            for j, qv in enumerate(q[:N - i + 1]):
                out[i + j] += pv * qv
        return out

    with mp.workdps(dps):
        half_pi = mp.pi / 2
        s = [mp.mpf(0)] * (N + 1)
        cc = [mp.mpf(0)] * (N + 1)
        for m in range(N // 2 + 1):
            s[2 * m] = (-1) ** m * half_pi ** (2 * m + 1) / mp.factorial(2 * m + 1)
            cc[2 * m] = (-1) ** m * half_pi ** (2 * m) / mp.factorial(2 * m)
        inv = [1 / s[0]] + [mp.mpf(0)] * N
        for i in range(1, N + 1):
            inv[i] = -sum(s[j] * inv[i - j] for j in range(1, i + 1)) / s[0]
        phi = mul(mul(cc, inv), [mp.mpf(1), mp.mpf(-1)] + [mp.mpf(0)] * (N - 1))
        power = [mp.mpf(1)] + [mp.mpf(0)] * N
        base, e = phi, k
        while e:
            if e & 1:
                power = mul(power, base)
            e >>= 1
            if e:
                base = mul(base, base)
        return float(-half_pi ** k / k * power[k - 1])


def floats(values):
    return [float(v) for v in values]


class TestRecursions:
    def test_small_x_rationals(self):
        table = small_x_coeffs(4)
        for got, want in zip(table.primary_floats(), SMALL_X_EXACT):
            assert got == pytest.approx(want, rel=1e-14)

    def test_large_x_closed_forms(self):
        table = large_x_coeffs(4)
        for got, want in zip(table.primary_floats(), LARGE_X_EXACT):
            assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("make", [small_x_coeffs, large_x_coeffs, lagrange_b])
    def test_negative_order_raises(self, make):
        with pytest.raises(ValueError):
            make(-1)

    @pytest.mark.parametrize("to", [np.int64, np.int32, np.uint16])
    def test_numpy_orders_give_the_python_int_tables(self, to):
        for make in (small_x_coeffs, large_x_coeffs):
            got, want = make(to(12)), make(12)
            assert got == want and type(got.order) is int
            assert got.primary_floats() == want.primary_floats()
        assert [lagrange_b(to(k)) for k in (0, 3, 17)] == [lagrange_b(k) for k in (0, 3, 17)]

    def test_numpy_fit_window_gives_the_python_int_fit(self, tables):
        large = tables[1]
        assert fit_asymptotic(large, np.int64(50), np.int32(300)) == \
            fit_asymptotic(large, 50, 300)

    @pytest.mark.parametrize("order", [True, False, np.bool_(True), 2.0, np.float64(3.0),
                                       Fraction(3), "3", None])
    def test_non_integer_orders_raise_type_error(self, order, tables):
        for make in (small_x_coeffs, large_x_coeffs, lagrange_b):
            with pytest.raises(TypeError, match="must be an integer"):
                make(order)
        with pytest.raises(TypeError, match="k_min must be an integer"):
            fit_asymptotic(tables[1], order, 300)
        with pytest.raises(TypeError, match="k_max must be an integer"):
            fit_asymptotic(tables[1], 50, order)

    def test_order_zero_seeds(self):
        ts = small_x_coeffs(0)
        assert float(ts.primary[0]) == 1.0 and float(ts.secondary[0]) == 1.0
        tl = large_x_coeffs(0)
        assert float(tl.primary[0]) == 1.0 and float(tl.secondary[0]) == 1.0

    def test_stored_pairs_satisfy_recursions(self):
        assert small_x_coeffs(40).recursion_residuals() < 1e-25
        assert large_x_coeffs(40).recursion_residuals() < 1e-25

    def test_root_test_at_order_100(self):
        ts = small_x_coeffs(100)
        tl = large_x_coeffs(100)
        rho_s = radius_estimates(ts)[-1].rho
        rho_l = radius_estimates(tl)[-1].rho
        assert 2.3 <= rho_s <= 3.0
        assert 2.3 <= rho_l <= 3.0


class TestLagrange:
    def test_seed(self):
        assert lagrange_b(0) == 1.0

    def test_first_coefficient(self):
        assert lagrange_b(1) == pytest.approx(-1.0, rel=1e-14)

    def test_third_coefficient(self):
        assert lagrange_b(3) == pytest.approx(-(1.0 - PI2 / 12.0), rel=1e-13)
        assert lagrange_b(3) == pytest.approx(-0.177533, abs=1e-6)

    def test_matches_recursion_to_order_20(self):
        table = large_x_coeffs(20)
        for k in range(21):
            bk = float(table.primary[k])
            assert lagrange_b(k) == pytest.approx(bk, rel=1e-10)

    def test_same_floats_as_plain_sums(self):
        for k in range(1, 61):
            assert lagrange_b(k) == reference_lagrange_b(k), k

    def test_every_order_to_300_is_the_recursion_float(self, tables):
        # the two routes round to the same floats, bit for bit, with no
        # mpmath in the comparison
        assert [lagrange_b(k) for k in range(301)] == tables[1].primary_floats()

    def test_orders_past_the_float_range_are_the_recursion_floats(self):
        # every order keeps the working precision, up to b_744 = inf; a
        # power scaled by (2/pi)^k loses ~0.65 bits per order and drifts
        # from k = 534 on
        ks = (534, 600, 700, 744)
        want = large_x_coeffs(744).primary_floats()
        assert [lagrange_b(k) for k in ks] == [want[k] for k in ks]
        assert want[744] == math.inf

    def test_cached_series_gives_the_fresh_floats(self):
        # phi's series is built once and sliced: any order of calls gives
        # the floats of a series built for each k alone
        from wtan import series

        fresh = {}
        for k in (5, 30):
            series._PSI.clear()
            fresh[k] = lagrange_b(k)
        series._PSI.clear()
        assert [lagrange_b(k) for k in (30, 5, 30)] == [fresh[30], fresh[5], fresh[30]]


class TestEvalSeries:
    def test_small_x_matches_solver(self):
        table = small_x_coeffs(30)
        got = eval_series(0.5, table).value
        assert got == pytest.approx(eval_real(0.5, 1), abs=1e-12)

    def test_large_x_matches_solver(self):
        table = large_x_coeffs(30)
        got = eval_series(10.0, table).value
        assert got == pytest.approx(eval_real(10.0, 1), abs=1e-12)

    def test_zero(self):
        assert eval_series(0.0, small_x_coeffs(10)).value == 0.0
        # 5e-324 / bound rounds to q = 0: c_0 alone is summed
        assert eval_series(5e-324, small_x_coeffs(20)) == (math.sqrt(5e-324), 0.0)

    def test_radius_gating(self):
        with pytest.raises(OutsideConvergence):
            eval_series(3.0, small_x_coeffs(30))
        with pytest.raises(OutsideConvergence):
            eval_series(2.0, large_x_coeffs(30))
        with pytest.raises(OutsideConvergence):
            eval_series(-0.5, small_x_coeffs(30))

    def test_nan_raises(self):
        for table in (small_x_coeffs(10), large_x_coeffs(10)):
            with pytest.raises(NonFiniteArgument):
                eval_series(math.nan, table)

    def test_infinity_on_large_table_is_the_limit(self):
        # t = +-0, so q = 0: c_0 alone is summed
        for table in (large_x_coeffs(10), large_x_coeffs(20)):
            for x in (math.inf, -math.inf):
                assert eval_series(x, table) == (0.5 * math.pi, 0.0)
        with pytest.raises(OutsideConvergence):
            eval_series(math.inf, small_x_coeffs(10))

    def test_horner_over_primary_floats(self):
        # eval_series keeps its own floats: mutating the returned list
        # changes neither them nor a later evaluation
        for table, x in ((small_x_coeffs(30), 0.7), (large_x_coeffs(30), -6.0)):
            first = eval_series(x, table)
            coeffs = table.primary_floats()
            table.primary_floats()[0] = 123.0
            t = x if table.kind is SeriesKind.SMALL_X else 1.0 / x
            acc = 0.0
            for c in coeffs[::-1]:
                acc = acc * t + c
            want = math.sqrt(x) * acc if table.kind is SeriesKind.SMALL_X \
                else 0.5 * math.pi * acc
            assert eval_series(x, table) == first
            assert first.value == want
            assert table.primary_floats() == coeffs

    @pytest.mark.parametrize("primary", [
        # c_0 = 0: no envelope relative to it
        (0,) + tuple(Fraction(1, 2 ** (k - 1)) for k in range(1, 21)),
        # r = 1 from c_2, and |c_1| r / |c_0| = 1e310 is past the float range
        (1e-300, 1e10, 1),
    ])
    def test_infinite_envelope_sums_every_term(self, primary):
        table = SeriesTable(SeriesKind.SMALL_X, len(primary) - 1, primary, (), 30)
        assert table._envelope == math.inf
        x = 0.5
        coeffs = table.primary_floats()
        got = eval_series(x, table)
        assert got.value == math.sqrt(x) * full_horner(coeffs, x)
        # the last term reaches the float result: a sum without it differs
        assert got.value != math.sqrt(x) * full_horner(coeffs[:-1], x)

    def test_no_coefficient_past_c0_falls_back_to_rho_limit(self):
        # the root test has no order to read: the bound is RHO_LIMIT, not
        # an infinite bound that refuses every x
        for table in (large_x_coeffs(0),
                      SeriesTable(SeriesKind.LARGE_X, 3, (1, 0, 0, 0), (), 30)):
            assert table._bound == RHO_LIMIT
            for x in (10.0, -3.0, 1e300):
                assert eval_series(x, table).value == 0.5 * math.pi
            with pytest.raises(OutsideConvergence):
                eval_series(2.5, table)
        assert small_x_coeffs(0)._bound == RHO_LIMIT

    def test_truncation_estimate_reported(self):
        ev = eval_series(0.5, small_x_coeffs(10))
        assert 0.0 < ev.truncation_estimate < 1e-6

    def test_residual_shrinks_with_order(self):
        # defining-equation defect decreases monotonically once asymptotic
        x = 1.5
        resid = []
        for K in (5, 10, 20, 40):
            w = eval_series(x, small_x_coeffs(K)).value
            resid.append(abs(w * math.tan(w) - x))
        assert all(b < a for a, b in zip(resid, resid[1:]))

    def test_differentiated_series_matches_derivative(self):
        table = small_x_coeffs(40)
        x = 0.25
        a = table.primary_floats()
        # d/dx [sqrt(x) sum a_k x^k] = sum (k + 1/2) a_k x^(k - 1/2)
        ds = sum((k + 0.5) * a[k] * x ** (k - 0.5) for k in range(41))
        w = eval_series(x, table).value
        assert ds == pytest.approx(derivative(x, w).real, rel=1e-10)


def full_horner(coeffs, t):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def tail_and_head(table, t, K):
    """2^62 times an upper bound of sum_(k>K) |c_k t^k| and, exactly,
    |sum_(k<=K) c_k t^k|, both as integers over one power of two 2^top.
    The coefficients and t are dyadic, so every term is an integer over a
    power of two; a tail term finer than 2^-top (80 bits below the head's
    finest unit) is rounded up to a multiple of it."""
    m, d = t.as_integer_ratio()
    s = d.bit_length() - 1
    terms, mk = [], 1
    for k, c in enumerate(table.primary):
        n, a = c.as_integer_ratio()
        terms.append((n * mk, a.bit_length() - 1 + k * s))
        mk *= m
    top = max(e for _, e in terms[:K + 1]) + 80
    head = abs(sum(n << (top - e) for n, e in terms[:K + 1]))
    tail = sum(-(-abs(n) >> (e - top)) if e > top else abs(n) << (top - e)
               for n, e in terms[K + 1:])
    return tail << 62, head


class TestTruncation:
    """eval_series sums only the terms that can reach the float result."""

    def check(self, x, table):
        small = table.kind is SeriesKind.SMALL_X
        coeffs = table.primary_floats()
        t = x if small else 1.0 / x
        q = x / table._bound if small else abs(t) * table._bound
        scale = math.sqrt(x) if small else 0.5 * math.pi
        got = eval_series(x, table)
        full = scale * full_horner(coeffs, t)
        assert abs(got.value - full) <= math.ulp(full)
        assert got.truncation_estimate == scale * abs(coeffs[-1] * t ** table.order)
        K = series._last_order(q, table.order, table._envelope)
        tail, head = tail_and_head(table, t, K)
        assert tail <= head
        return got.value, full, K

    @given(st.floats(min_value=5e-324, max_value=RHO_LIMIT, exclude_max=True))
    @example(5e-324)
    @example(1e-310)
    @example(2.0)
    def test_small_x_field(self, tables, x):
        self.check(x, tables[0])

    @given(st.floats(min_value=RHO_LIMIT, max_value=1.7976931348623157e308,
                     exclude_min=True), st.sampled_from([-1.0, 1.0]))
    @example(1.7976931348623157e308, 1.0)
    @example(3.5, -1.0)
    @example(1e6, 1.0)
    def test_large_x_field(self, tables, x, sign):
        self.check(sign * x, tables[1])

    def test_bound_edge_uses_every_term(self, tables):
        small, large = tables
        edges = [(math.nextafter(RHO_LIMIT, 0.0), small),
                 (math.nextafter(RHO_LIMIT, math.inf), large),
                 (-math.nextafter(RHO_LIMIT, math.inf), large)]
        for x, table in edges:
            value, full, K = self.check(x, table)
            assert K == table.order and value == full

    def test_q_rounding_to_one_uses_every_term(self):
        # a bound b read from c_3 = b^3; one ulp past it fl(fl(1/x)*b) = 1,
        # where log2(1/q) = 0 leaves no truncation order (so does about one
        # b in 20 of [2.64, 10]; never a small table's, where x < b gives
        # fl(x/b) < 1)
        b = 7.950534638028159
        table = SeriesTable(SeriesKind.LARGE_X, 3,
                            (1, Fraction(1, 2), Fraction(1, 4), Fraction(b) ** 3), (), 30)
        x = math.nextafter(b, math.inf)
        assert table._bound == b and (1.0 / x) * b == 1.0
        for point in (x, -x):
            value, full, K = self.check(point, table)
            assert K == table.order and value == full

    def test_order_300_tables_use_few_terms(self, tables):
        # log2(2^63 / (1 - q)) / log2(1/q) with M = |c_0| = 1: q = 1/2.64
        # needs c_0..c_45, q = 2/2.64 c_0..c_162, q = 2.64/20 c_0..c_21
        small, large = tables
        assert [series._last_order(x / small._bound, 300, small._envelope)
                for x in (1.0, 2.0)] == [45, 162]
        assert series._last_order(large._bound / 20.0, 300, large._envelope) == 21
        assert series._last_order(0.0, 300, large._envelope) == 0

    def test_envelope_is_not_a_field(self, tables):
        for table in tables:
            assert table._envelope >= 2.0 ** 63
            assert repr(table) == repr(table._replace())
            assert hash(table) == hash(table._replace())


@pytest.fixture(scope="module")
def order_800():
    return small_x_coeffs(800), large_x_coeffs(800)


class TestPastTheFloatRange:
    """At order 800 the large-x b_k pass 1.8e308 from k = 744 on."""

    def test_floats_round_to_infinity(self, order_800):
        _, large = order_800
        floats = large.primary_floats()
        edge = Fraction(2 ** 1024 - 2 ** 970)      # MAX + half an ulp
        for f, b in zip(floats, large.primary):
            if abs(b) >= edge:
                assert f == (math.inf if b > 0 else -math.inf)
            else:
                assert f == float(b)
        assert [k for k, f in enumerate(floats) if math.isinf(f)] == list(range(744, 801))

    def test_finite_terms_give_a_finite_value(self, order_800):
        _, large = order_800
        for x in (10.0, -4.0, 3.0, 1e300, math.inf):
            got = eval_series(x, large)
            assert math.isfinite(got.value) and math.isfinite(got.truncation_estimate)
            if math.isfinite(x):
                assert got.value == pytest.approx(eval_real(x, 1), rel=4e-16)
                # |b_800| t^800 is not a float product here: rounded once
                exact = abs(large.primary[-1]) * Fraction(1.0 / x) ** 800
                assert got.truncation_estimate == 0.5 * math.pi * float(exact)

    def test_needed_infinite_term_raises(self, order_800):
        _, large = order_800
        for x in (2.8, -2.7, math.nextafter(RHO_LIMIT, math.inf)):
            with pytest.raises(OutsideConvergence, match="past float64's range"):
                eval_series(x, large)

    def test_small_x_estimate_does_not_overflow(self, order_800):
        small, _ = order_800
        got = eval_series(2.5, small)
        assert got.value == pytest.approx(eval_real(2.5, 1), rel=4e-16)
        exact = abs(small.primary[-1]) * Fraction(2.5) ** 800
        assert got.truncation_estimate == math.sqrt(2.5) * float(exact)
        assert 0.0 < got.truncation_estimate < 1e-20


class TestRadiusEstimates:
    def test_first_order_values(self):
        assert radius_estimates(small_x_coeffs(1))[0].rho == pytest.approx(6.0)
        assert radius_estimates(large_x_coeffs(1))[0].rho == pytest.approx(1.0)

    def test_order_zero_table_raises(self):
        with pytest.raises(ValueError):
            radius_estimates(small_x_coeffs(0))

    def test_both_kinds_in_window_at_100(self):
        for maker in (small_x_coeffs, large_x_coeffs):
            est = radius_estimates(maker(100))[-1]
            assert 2.3 <= est.rho <= 3.0

    def test_beyond_the_float_range(self):
        # a root test past float64's range saturates, as float() would
        huge = Fraction(10) ** 700
        rho = [radius_estimates(SeriesTable(kind, 2, (Fraction(1), c, c), (), 30))
               for c in (huge, 1 / huge) for kind in SeriesKind]
        assert [[r.rho for r in est] for est in rho] == [
            [0.0, 0.0], [math.inf, math.inf], [math.inf, math.inf], [0.0, 0.0]]

    @pytest.mark.parametrize("k", [1, 2, 3, 300])
    def test_root_rounds_midpoints_exactly(self, k):
        # (n/d)^(1/k) at and a relative 2^-2000 beside the midpoints between
        # floats, with an even mantissa m and below 2^52 (where the spacing
        # halves); ties go to the even neighbour
        from wtan.series import _root

        def power(mid, e):   # (mid * 2^e)^k as (n, d)
            n, d = mid ** k, 1
            return (n << e * k, d) if e >= 0 else (n, d << -e * k)

        m, big = 2 ** 52 + 1234, 2 ** 2000
        for e in (-60, 0, 9):
            n, d = power(2 * m + 1, e - 1)
            assert _root(n, d, k) == math.ldexp(m, e)
            assert _root(n * big + n, d * big, k) == math.ldexp(m + 1, e)
            n, d = power(2 * m + 3, e - 1)
            assert _root(n, d, k) == math.ldexp(m + 2, e)
            assert _root(n * big - n, d * big, k) == math.ldexp(m + 1, e)
            n, d = power(2 ** 54 - 1, e - 2)                        # below 2^52 2^e
            assert _root(n, d, k) == math.ldexp(2 ** 52, e)
            assert _root(n * big - n, d * big, k) == math.ldexp(2 ** 52 - 0.5, e)


def exact_power_root(n, d, k):
    """_root as it stood with one exact power m^k for its correction: the
    oracle of the truncated-power route."""
    E = n.bit_length() - d.bit_length()
    t, r = divmod(E, k)
    q = (n << max(0, -E)) / (d << max(0, E))
    try:
        y = math.ldexp(2.0 ** (r / k) * q ** (1.0 / k), t)
    except OverflowError:
        return math.inf
    if y < sys.float_info.min:
        return y

    def power_gap(m, e):
        lhs, rhs = n, d * m ** k
        if e * k >= 0:
            rhs <<= e * k
        else:
            lhs <<= -e * k
        return lhs - rhs, rhs

    f, e = math.frexp(y)
    m, e = int(f * 2.0 ** 53), e - 53
    gap, power = power_gap(m, e)
    x = m * math.expm1(math.log1p(gap / power) / k)
    s = m + x
    miss = (m - s) + x
    half = math.ulp(s) / (4.0 if miss < 0 and math.frexp(s)[0] == 0.5 else 2.0)
    y = math.ldexp(s, e)
    if abs(miss) < half - 1e-9:
        return y
    other = math.nextafter(y, math.copysign(math.inf, miss))
    gap = power_gap(int(4.0 * s) + int(math.copysign(4.0 * half, miss)), e - 2)[0]
    if gap == 0:
        return y if int(math.frexp(y)[0] * 2.0 ** 53) % 2 == 0 else other
    return other if (gap > 0) == (miss > 0) else y


class TestTruncatedPower:
    def test_bound_against_the_exact_power(self):
        # m^k (1 - (k-1) 2^(1-B)) <= M 2^t <= m^k, with M of at most B bits
        rng = random.Random(43)
        B = series._TOP_BITS
        cases = [(2 ** 52, 1000), (2 ** 53 - 1, 1000), (2 ** 53 - 1, 1), (2 ** 52 + 1, 2)]
        cases += [(rng.randrange(2 ** 52, 2 ** 53), rng.randint(1, 1000)) for _ in range(400)]
        for m, k in cases:
            M, t = series._top_power(m, k)
            exact = m ** k
            assert M.bit_length() <= B and t >= 0
            assert 0 <= exact - (M << t)
            assert (exact - (M << t)) << (B - 1) <= (k - 1) * exact, (m, k)

    def test_root_matches_the_exact_power_oracle(self, tables):
        rng = random.Random(4343)
        cases = []
        for table in tables:
            small = table.kind is SeriesKind.SMALL_X
            for k, c in enumerate(table.primary[1:], start=1):
                n, d = abs(c).as_integer_ratio()
                cases.append((d, n, k) if small else (n, d, k))
        for _ in range(1500):
            cases.append((rng.getrandbits(rng.randint(1, 3000)) | 1,
                          rng.getrandbits(rng.randint(1, 3000)) | 1, rng.randint(1, 1000)))
        # (mid 2^e)^k (1 +- 2^-j) for j around the 1e-9-unit margin and past it
        for _ in range(300):
            k = rng.randint(1, 400)
            mid, e = 2 * rng.randrange(2 ** 52, 2 ** 53) + 1, rng.randint(-60, 10)
            n, d = mid ** k, 1 << 53 * k
            n, d = (n << e * k, d) if e >= 0 else (n, d << -e * k)
            j = rng.randint(60, 140)
            cases.append((n * ((1 << j) + rng.choice((-1, 1))), d << j, k))
        assert [series._root(n, d, k) for n, d, k in cases] == \
            [exact_power_root(n, d, k) for n, d, k in cases]


@pytest.fixture(scope="module")
def tables():
    return small_x_coeffs(300), large_x_coeffs(300)


def reference_radii(coeffs, small, dps):
    with mp.workdps(dps):
        power = mp.mpf(-1 if small else 1)
        return [float(abs(v) ** (power / k)) for k, v in enumerate(coeffs) if k and v]


@pytest.mark.parametrize("order", [0, 1, 2, 12, 40, 41, 100, 300])
def test_tables_same_floats_as_plain_sums(order):
    small, large = small_x_coeffs(order), large_x_coeffs(order)
    a, d = reference_small(order, small.precision_digits)
    assert floats(small.primary) == floats(a)
    assert floats(small.secondary) == floats(d)
    b, c = reference_large(order, large.precision_digits)
    assert floats(large.primary) == floats(b)
    assert floats(large.secondary) == floats(c)
    if order:
        assert [r.rho for r in radius_estimates(small)] == \
            reference_radii(a, True, small.precision_digits)
        assert [r.rho for r in radius_estimates(large)] == \
            reference_radii(b, False, large.precision_digits)


class TestAsymptoticFit:

    def test_large_x_parameters(self, tables):
        _, tl = tables
        f = fit_asymptotic(tl, 50, 300)
        assert f.a == pytest.approx(2.25, abs=0.02)
        assert f.a == pytest.approx(ARG_TRUE, abs=0.02)
        assert f.rho == pytest.approx(RHO_TRUE, abs=1e-2)
        assert f.c == pytest.approx(0.584, abs=0.02)
        assert f.b == pytest.approx(-3.59, abs=0.02)

    def test_small_x_parameters(self, tables):
        ts, _ = tables
        f = fit_asymptotic(ts, 50, 300)
        assert f.a == pytest.approx(ARG_TRUE, abs=0.02)
        assert f.rho == pytest.approx(RHO_TRUE, abs=1e-2)
        assert f.c == pytest.approx(0.564, abs=0.02)
        assert f.b == pytest.approx(-3.14, abs=0.02)

    def test_zero_crossing_spacing(self, tables):
        # sign changes of the coefficient sequence repeat every pi/a ~ 1.40
        _, tl = tables
        b = [float(v) for v in tl.primary[50:301]]
        crossings = [i for i in range(1, len(b)) if b[i - 1] * b[i] < 0]
        spacing = np.diff(crossings).mean()
        assert spacing == pytest.approx(math.pi / 2.246, abs=0.1)

    def test_window_guard(self, tables):
        # too short a window; k = 0 has an infinite envelope, and a negative
        # k_min would read the table from its end
        ts, _ = tables
        for k_min, k_max in ((100, 110), (0, 100), (-1, 100), (-50, 250)):
            with pytest.raises(ValueError):
                fit_asymptotic(ts, k_min, k_max)
        with pytest.raises(ValueError, match="table order"):
            fit_asymptotic(ts, 50, ts.order + 1)

    @pytest.mark.parametrize("g", [0.9, 1.0, 1.1])
    def test_non_oscillating_sequence_diverges(self, g):
        # detrended to w_k = g^k: the Prony columns are parallel, so the
        # two-column solve has rank 1 and no oscillation exists to fit
        primary = (Fraction(1),) + tuple(
            Fraction(2.64) ** k / Fraction(k ** 1.5) * Fraction(g) ** k
            for k in range(1, 61))
        table = SeriesTable(SeriesKind.LARGE_X, 60, primary, (), 30)
        with pytest.raises(FitDiverged):
            fit_asymptotic(table, 10, 60)
        # the floats and bound eval_series keeps are not fields
        eval_series(100.0, table)
        assert table == table._replace()
        assert hash(table) == hash(table._replace())

    @staticmethod
    def _detrended(w, order):
        """A large-x table whose coefficients detrend to about w[k], k >= 1."""
        primary = [Fraction(1)] + [Fraction(0)] * order
        for k, wk in w.items():
            primary[k] = Fraction(wk) * Fraction(RHO_HAT) ** k / Fraction(k ** 1.5)
        return SeriesTable(SeriesKind.LARGE_X, order, tuple(primary), (), 30)

    def test_detrended_past_the_float_range_diverges(self):
        table = self._detrended({k: Fraction(10) ** (290 + k) for k in range(10, 61)}, 60)
        with pytest.raises(FitDiverged, match="past the float range"):
            fit_asymptotic(table, 10, 60)

    @pytest.mark.parametrize("e", [1, -1])
    def test_g_power_past_the_float_range_diverges(self, e):
        # w_k = 2^(e(k - 2080)) 1e300^e sin(k), k = 1080..1110: finite, but
        # g = 2^e, and g^k underflows to 0 (e = -1) or overflows (e = 1)
        table = self._detrended({k: math.ldexp(1e300 ** e * math.sin(k), e * (k - 2080))
                                 for k in range(1080, 1111)}, 1110)
        with pytest.raises(FitDiverged, match="past the float range"):
            fit_asymptotic(table, 1080, 1110)

    @pytest.mark.parametrize("r1, r2, message", [
        # w_k = r1^k + r2^k obeys w_(k+1) = (r1 + r2) w_k - r1 r2 w_(k-1):
        # real roots of opposite signs give beta = -r1 r2 > 0, of one sign
        # cos a = (r1 + r2) / (2 sqrt(r1 r2)) > 1
        (1.1, -0.9, "no oscillation"),
        (1.2, 0.8, "cos a"),
    ])
    def test_real_roots_diverge(self, r1, r2, message):
        table = self._detrended({k: r1 ** k + r2 ** k for k in range(1, 61)}, 60)
        with pytest.raises(FitDiverged, match=message):
            fit_asymptotic(table, 10, 60)

    def test_amplitude_below_the_float_range_diverges(self):
        # w_k = 1e-80 * 350^(k-100) sin(k): g = 350, and every w_k / g^k
        # (~1e-334) rounds to 0, so the amplitude fit is exactly 0
        table = self._detrended({k: 1e-80 * 350.0 ** (k - 100) * math.sin(k)
                                 for k in range(100, 121)}, 120)
        with pytest.raises(FitDiverged, match="zero amplitude"):
            fit_asymptotic(table, 100, 120)
        fit = fit_asymptotic(table._replace(primary=tuple(c * 10 ** 80 for c in table.primary)),
                             100, 120)
        assert fit.rho == pytest.approx(350.0 * RHO_HAT) and fit.a == pytest.approx(1.0)


class TestRecords:
    def test_repr_and_read_only_fields(self):
        # the records' repr is part of their interface: pinned field for field
        table = large_x_coeffs(1)
        assert repr(table) == (
            "SeriesTable(kind=<SeriesKind.LARGE_X: 'large'>, order=1, "
            "primary=(Fraction(1, 1), Fraction(-1, 1)), "
            "secondary=(Fraction(1, 1), Fraction(1, 1)), precision_digits=77)")
        inside = eval_series(100.0, table)   # caches floats and bound beside the fields
        assert repr(table).endswith("precision_digits=77)")
        # built by tuple.__new__, at x = 0 too: still the record, field for field
        at_zero = eval_series(0.0, small_x_coeffs(1))
        assert repr(inside) == (
            "SeriesEval(value=1.5550883635269477, truncation_estimate=0.015707963267948967)")
        assert repr(at_zero) == "SeriesEval(value=0.0, truncation_estimate=0.0)"
        for value in (inside, at_zero):
            assert type(value) is SeriesEval
            assert value._fields == ("value", "truncation_estimate")
            for field in value._fields:
                with pytest.raises(AttributeError):
                    setattr(value, field, 0.0)
        assert repr(radius_estimates(table)) == (
            "[RadiusEstimate(k=1, rho=1.0, kind=<SeriesKind.LARGE_X: 'large'>)]")
        assert repr(AsymptoticFit(c=0.5, a=2.25, b=-3.5, rho=2.64, residual=0.001)) == (
            "AsymptoticFit(c=0.5, a=2.25, b=-3.5, rho=2.64, residual=0.001)")
        for record, field in ((table, "order"), (radius_estimates(table)[0], "rho"),
                              (AsymptoticFit(1.0, 2.0, -1.0, 2.6, 0.0), "residual")):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
