import math

import mpmath as mp
import numpy as np
import pytest

from wtan.core import eval_real
from wtan.errors import DomainViolation, NonFiniteArgument, NonPositiveNorm
from wtan.quantum import (
    Parity,
    SpectrumEntry,
    WellModel,
    rayleigh_quotient,
    spectrum,
    variational_bound_1,
    variational_bound_2,
    wavefunction,
)

from conftest import jump_residual


def _golden_section_min(f, lo, hi, xatol):
    """The least f found by golden-section search on [lo, hi], for a
    unimodal f, once the bracket is no wider than xatol."""
    r = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = hi - r * (hi - lo), lo + r * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xatol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - r * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + r * (hi - lo)
            fd = f(d)
    return min(fc, fd)


def even_levels(entries):
    return [e for e in entries if e.parity is Parity.EVEN]


def _spectrum_by_loop(model, count):
    """The per-level loop `spectrum` was before its lists were built by
    comprehension: the reference for its floats and its errors."""
    import sys
    a = model.width_a
    x = a / model.lam if model.lam else math.inf
    entries = []
    for n in range(1, count + 1):
        if math.isinf(x):
            k = (2.0 * n - 1.0) * math.pi / a
        else:
            k = 2.0 / a * eval_real(x, n)
        entries.append((k, Parity.EVEN, n))
    for m in range(1, count + 1):
        entries.append((2.0 * m * math.pi / a, Parity.ODD, None))
    entries.sort(key=lambda e: e[0])
    out = []
    for i, (k, parity, branch) in enumerate(entries[:count]):
        E = k * k
        if not sys.float_info.min <= E < math.inf:
            raise DomainViolation(f"level {i} of a well of width {a!r} has k = {k!r}, "
                                  f"E = {E!r}: outside the normal float range")
        out.append(SpectrumEntry(index=i, parity=parity, k=k, E=E, branch=branch))
    return out


# odd and even counts, small and large: `spectrum` solves about half of each
SPECTRUM_COUNTS = (*range(1, 11), 51, 300, 301)


@pytest.mark.parametrize("width", [1.0, math.pi, 1e-3])
# a/lambda at 1e-20 and below: even level n rounds onto odd level n - 1
# (lambda > 0) or n (lambda < 0), the ties the extra solved level covers
@pytest.mark.parametrize("lam", [0.0, 1e-300, -1e-300, 1e-8, -1e-8, 0.5, -0.5, 1e8, -1e8,
                                 1e300, -1e300, 1e200, -1e200, 1e20, -1e20])
def test_spectrum_matches_the_loop_bit_for_bit(width, lam):
    model = WellModel(width_a=width, lam=lam)
    assert repr(spectrum(model, 300)) == repr(_spectrum_by_loop(model, 300))
    for count in SPECTRUM_COUNTS:
        assert repr(spectrum(model, count)) == repr(_spectrum_by_loop(model, count)), count


@pytest.mark.parametrize("lam", [0.5, -0.5, 1e300, -1e300, 1e20])
def test_spectrum_solves_about_half_its_levels(monkeypatch, lam):
    import wtan.quantum as quantum

    calls = []

    def counted(x, n):
        calls.append(n)
        return eval_real(x, n)

    monkeypatch.setattr(quantum, "eval_real", counted)
    model = WellModel(width_a=1.0, lam=lam)
    for count in (*SPECTRUM_COUNTS, 3000):
        calls.clear()
        levels = spectrum(model, count)
        assert len(levels) == count
        assert calls == list(range(1, min(count, count // 2 + 2) + 1)), count


@pytest.mark.parametrize("width", [1e-153, 1e160, 1e-300])
@pytest.mark.parametrize("lam", [0.0, 0.5, -1e8])
def test_spectrum_raises_as_the_loop_does(width, lam):
    model = WellModel(width_a=width, lam=lam)
    with pytest.raises(DomainViolation) as expected:
        _spectrum_by_loop(model, 40)
    with pytest.raises(DomainViolation) as got:
        spectrum(model, 40)
    assert str(got.value) == str(expected.value)


class TestSpectrum:
    @pytest.mark.parametrize("lam", [1e-320, -1e-320, 1e-300, -1e-300])
    def test_tiny_lambda_gives_the_unperturbed_levels(self, lam):
        # a/lambda overflows at 1e-320; at 1e-300 the branch values at
        # +-1e300 already round to the same floats
        assert spectrum(WellModel(width_a=1.0, lam=lam), 8) == \
            spectrum(WellModel(width_a=1.0, lam=0.0), 8)

    @pytest.mark.parametrize("width, lam", [(1e-150, -1e300), (1e-152, -1e180)])
    def test_ratio_underflowing_to_minus_zero_gives_the_0_minus_limit(self, width, lam):
        # a/lambda rounds to -0.0: even level n is eval_real's x -> 0- limit
        # n*pi, so k = 2n*pi/a, tied with odd level n and sorted before it
        assert width / lam == 0.0
        levels = spectrum(WellModel(width_a=width, lam=lam), 7)
        assert [e.parity for e in levels] == [Parity.EVEN, Parity.ODD] * 3 + [Parity.EVEN]
        for n, entry in enumerate(even_levels(levels), start=1):
            assert entry.branch == n and entry.k == 2.0 / width * (n * math.pi)

    @pytest.mark.parametrize("width, lam", [(1e-150, 1e300), (1e-152, 1e180)])
    def test_ratio_underflowing_to_plus_zero_raises_on_its_zero_level(self, width, lam):
        # the x -> 0+ limit (n-1)*pi puts the first even level at k = E = 0,
        # below the smallest normal float: DomainViolation by the docstring's rule
        assert width / lam == 0.0
        with pytest.raises(DomainViolation, match="level 0 .* has k = 0.0, E = 0.0"):
            spectrum(WellModel(width_a=width, lam=lam), 3)

    def test_weak_coupling_limit(self):
        model = WellModel(width_a=1.0, lam=1e-8)
        k0 = even_levels(spectrum(model, 4))[0].k
        assert abs(k0 - math.pi) < 1e-6

    def test_strong_attraction_limit(self):
        model = WellModel(width_a=1.0, lam=1e8)
        k0 = even_levels(spectrum(model, 4))[0].k
        assert k0 == pytest.approx(2.0 * math.sqrt(1.0 / 1e8), rel=1e-6)

    def test_strong_repulsion_limit(self):
        model = WellModel(width_a=1.0, lam=-1e8)
        k0 = even_levels(spectrum(model, 6))[0].k
        assert abs(k0 - 2.0 * math.pi) < 1e-6

    def test_second_branch_feeds_excited_even_state(self):
        model = WellModel(width_a=1.0, lam=1e-8)
        k1 = even_levels(spectrum(model, 8))[1].k
        assert abs(k1 - 3.0 * math.pi) < 1e-6

    def test_odd_levels_unaffected(self):
        for lam in (-3.0, 1e-3, 7.0):
            model = WellModel(width_a=2.0, lam=lam)
            odd = [e.k for e in spectrum(model, 8) if e.parity is Parity.ODD]
            for m, k in enumerate(odd, start=1):
                assert k == pytest.approx(2.0 * m * math.pi / 2.0, rel=1e-14)

    def test_scaling_relation(self):
        # k depends on (a, lambda) only through a/lambda and the 2/a prefactor
        base = WellModel(width_a=1.0, lam=0.7)
        scaled = WellModel(width_a=3.0, lam=2.1)
        k_base = [e.k for e in spectrum(base, 6)]
        k_scaled = [e.k for e in spectrum(scaled, 6)]
        for kb, ks in zip(k_base, k_scaled):
            assert ks == pytest.approx(kb / 3.0, rel=1e-12)

    def test_sorted_by_energy(self):
        model = WellModel(width_a=math.pi, lam=0.4)
        es = [e.E for e in spectrum(model, 10)]
        assert es == sorted(es)

    def test_unperturbed_well(self):
        model = WellModel(width_a=1.0, lam=0.0)
        ks = [e.k for e in spectrum(model, 5)]
        assert ks == pytest.approx([(m + 1) * math.pi for m in range(5)])


class TestWavefunction:
    def test_ground_state_weak_coupling(self):
        model = WellModel(width_a=1.0, lam=1e-10)
        entry = even_levels(spectrum(model, 2))[0]
        psi = wavefunction(model, entry)
        assert psi.A_I == pytest.approx(psi.A_II)
        # proportional to sin(pi xi / a)
        for xi in (0.1, 0.25, 0.7):
            ratio = psi(xi) / math.sin(math.pi * xi)
            assert ratio == pytest.approx(psi.A_I, rel=1e-6)

    def test_jump_condition_even(self):
        model = WellModel(width_a=math.pi, lam=1.0)
        for entry in even_levels(spectrum(model, 6)):
            psi = wavefunction(model, entry)
            assert jump_residual(model, entry, psi) < 1e-8 * entry.k ** 2

    def test_jump_condition_all_states(self):
        for lam in (-2.0, 0.35, 5.0):
            model = WellModel(width_a=math.pi, lam=lam)
            for entry in spectrum(model, 8):
                psi = wavefunction(model, entry)
                assert jump_residual(model, entry, psi) < 1e-8 * entry.k ** 2

    def test_odd_state_node_and_sign(self):
        model = WellModel(width_a=1.0, lam=0.9)
        odd = [e for e in spectrum(model, 4) if e.parity is Parity.ODD][0]
        psi = wavefunction(model, odd)
        assert psi(0.5) == pytest.approx(0.0, abs=1e-12)
        # globally sin(2 pi xi): mirrored amplitude carries the sign
        assert psi(0.75) == pytest.approx(psi.A_I * math.sin(2 * math.pi * 0.75),
                                          rel=1e-12)

    def test_generalized_normalization(self):
        model = WellModel(width_a=math.pi, lam=1.3)
        entry = even_levels(spectrum(model, 4))[0]
        psi = wavefunction(model, entry)
        # split at the centre, where psi has its kink
        l2 = float(mp.quad(lambda xi: psi(float(xi)) ** 2, [0.0, 0.5 * math.pi, math.pi]))
        norm = l2 + model.lam * psi(0.5 * math.pi) ** 2
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_even_norm_closed_form(self):
        # at an even eigenvalue the generalized norm is (a/2)(1 + sin(ka)/(ka)),
        # positive for attractive and repulsive contacts alike
        for lam in (-10.0, -2.0, -0.5, 0.35, 5.0):
            model = WellModel(width_a=1.0, lam=lam)
            for entry in even_levels(spectrum(model, 8)):
                psi = wavefunction(model, entry)
                ka = entry.k * model.width_a
                closed = 0.5 * model.width_a * (1.0 + math.sin(ka) / ka)
                assert psi.A_I ** 2 * closed == pytest.approx(1.0, rel=1e-12)

    def test_zero_outside_the_well(self):
        model = WellModel(width_a=1.0, lam=0.5)
        psi = wavefunction(model, spectrum(model, 1)[0])
        assert psi(0.5) != 0.0
        assert psi(-1e-9) == psi(1.0 + 1e-9) == psi(-5.0) == psi(7.0) == 0.0

    @pytest.mark.parametrize("parity", list(Parity))
    def test_nan_position_raises(self, parity):
        # it returned 0.0, as for a point outside the well
        model = WellModel(width_a=1.0, lam=0.5)
        psi = wavefunction(model, next(e for e in spectrum(model, 4) if e.parity is parity))
        with pytest.raises(NonFiniteArgument):
            psi(math.nan)
        assert psi(math.inf) == psi(-math.inf) == 0.0

    def test_inconsistent_entry_rejected(self):
        # k = pi is the lambda = 0 ground level; under lambda = -10 its
        # generalized norm is 1/2 - 10 < 0, so no normalization exists
        model = WellModel(width_a=1.0, lam=-10.0)
        entry = SpectrumEntry(index=0, parity=Parity.EVEN, k=math.pi,
                              E=math.pi ** 2, branch=1)
        with pytest.raises(NonPositiveNorm):
            wavefunction(model, entry)

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("a, k", [(1.0, math.inf), (1.0, math.nan), (1e300, 1e10)])
    def test_non_finite_k_a_raises(self, parity, a, k):
        # a hand-built entry: math.sin(inf) raised a bare ValueError, k = nan
        # gave nan amplitudes, and k*a/2 can overflow with k and a finite
        model = WellModel(width_a=a, lam=0.5)
        entry = SpectrumEntry(index=0, parity=parity, k=k, E=k * k, branch=None)
        with pytest.raises(NonFiniteArgument):
            wavefunction(model, entry)


class TestBounds:
    def test_chain_on_log_grid(self):
        for x in np.logspace(-3, 3, 100):
            x = float(x)
            w = eval_real(x, 1)
            b2 = variational_bound_2(x)
            b1 = variational_bound_1(x)
            assert w <= b2 + 1e-14
            assert b2 <= b1 + 1e-12

    def test_bound1_examples(self):
        # (pi/2) sqrt((pi/4)/(pi/4 + 2)) = 0.83411, comfortably above pi/4
        assert variational_bound_1(math.pi / 4) == pytest.approx(0.8341059, abs=1e-6)
        assert variational_bound_1(math.pi / 4) >= math.pi / 4
        assert variational_bound_1(1e12) == pytest.approx(math.pi / 2, rel=1e-10)
        # near 0+: bound/sqrt(x) -> pi/(2 sqrt 2) = 1.1107 >= 1
        x = 1e-12
        assert variational_bound_1(x) / math.sqrt(x) == pytest.approx(
            math.pi / (2 * math.sqrt(2)), rel=1e-10)

    def test_bound1_domain(self):
        with pytest.raises(DomainViolation):
            variational_bound_1(-1.0)
        assert variational_bound_1(-3.0) > 0  # valid again below -2
        assert variational_bound_1(0.0) == 0.0

    def test_bound2_limits(self):
        x = 1e-10
        slope = variational_bound_2(x) / math.sqrt(x)
        assert slope == pytest.approx(3 * math.pi * math.sqrt(5) / 20, rel=1e-8)
        assert slope == pytest.approx(1.0537, abs=1e-4)
        # 1e-10 from 0- the value is the limit to O(x)
        left = variational_bound_2(-1e-10)
        assert left == pytest.approx(math.pi * math.sqrt(5) / 2, rel=1e-6)
        assert left / math.pi == pytest.approx(1.1180, abs=1e-4)
        assert variational_bound_2(1e14) == pytest.approx(math.pi / 2, rel=1e-9)
        assert variational_bound_2(-1e14) == pytest.approx(math.pi / 2, rel=1e-9)

    def test_bound2_total_on_reals(self):
        for x in (-100.0, -2.0, -0.5, 0.0, 0.3, 7.0):
            variational_bound_2(x)  # no exception

    @pytest.mark.parametrize("x", [-1e-4, -1e-8, -1e-15, -1e-20, -1e-300, -5e-324, -2.0])
    def test_bound2_near_zero_from_below(self, x):
        # 5x + 10 - 2 sqrt(25 + 16x + 4x^2) cancels toward 0-: the value was
        # 4e-8 off at -1e-8 and 0.66% at -1e-15, and -1e-20 divided by 0.
        # 400 digits resolve the cancellation down to -5e-324
        with mp.workdps(400):
            t = mp.mpf(x)
            ref = 1.5 * mp.pi * mp.sqrt(t / (5 * t + 10 - 2 * mp.sqrt(25 + 16 * t + 4 * t * t)))
            assert abs(variational_bound_2(x) - ref) <= 2 * 2.220446049250313e-16 * ref

    def test_bound2_where_the_square_overflows(self):
        # 4x^2 overflows from |x| ~ 6.7e153 on: the value was 0.0 on both
        # signs there (1e200, -1e154) and nan at -1.7e308
        rng = np.random.default_rng(3504)
        mags = [1e150, 6.7e153, 6.8e153, 1e200, 1.7e308, 1.7976931348623157e308]
        mags += [float(10.0 ** t) for t in rng.uniform(150.0, math.log10(1.7e308), 200)]
        for x in (s * m for m in mags for s in (1.0, -1.0)):
            with mp.workdps(50):
                t = mp.mpf(x)
                ref = 1.5 * mp.pi * mp.sqrt(
                    t / (5 * t + 10 + mp.sign(t) * 2 * mp.sqrt(25 + 16 * t + 4 * t * t)))
                assert abs(variational_bound_2(x) - ref) <= 2 * math.ulp(float(ref)), x

    def test_bound2_unchanged_below_the_overflow(self):
        # the closed form as written before the overflow was mended, on
        # |x| from 5e-324 up to where 4x^2 overflows, both signs
        def before(x):
            root = 2.0 * math.sqrt(25.0 + 16.0 * x + 4.0 * x * x)
            ratio = ((5.0 * x + 10.0 + root) / (9.0 * (x + 4.0)) if -2.0 <= x < 0.0
                     else x / (5.0 * x + 10.0 + math.copysign(root, x)))
            return 1.5 * math.pi * math.sqrt(ratio)

        rng = np.random.default_rng(3505)
        mags = [5e-324, 2.0, 4.0, 6.7e153]
        mags += [float(10.0 ** t) for t in rng.uniform(-323.0, math.log10(6.7e153), 2000)]
        mags += [float(m) for m in rng.uniform(0.0, 10.0, 500)]
        for x in (s * m for m in mags for s in (1.0, -1.0)):
            assert variational_bound_2(x) == before(x), x

    @pytest.mark.parametrize("bound", [variational_bound_1, variational_bound_2])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_raises(self, bound, x):
        with pytest.raises(NonFiniteArgument):
            bound(x)


class TestRayleighQuotient:
    def test_b_zero_reduces_to_first_bound(self):
        for x in (0.5, 2.0, 50.0):
            assert rayleigh_quotient(x, 0.0) == pytest.approx(
                variational_bound_1(x) ** 2, rel=1e-14)

    @pytest.mark.parametrize("x", [0.25, 1.0, 8.0, -3.0])
    def test_minimum_matches_second_bound(self, x):
        fun = _golden_section_min(lambda b: rayleigh_quotient(x, b), -0.9, 0.9, xatol=1e-13)
        assert fun == pytest.approx(variational_bound_2(x) ** 2, abs=1e-10)

    def test_upper_bound_property(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = float(rng.uniform(0.05, 50.0))
            b = float(rng.uniform(-0.8, 0.8))
            assert rayleigh_quotient(x, b) >= eval_real(x, 1) ** 2 - 1e-12

    def test_nonpositive_norm(self):
        with pytest.raises(NonPositiveNorm):
            rayleigh_quotient(-1.0, 0.0)

    def test_zero_x_is_outside_the_domain(self):
        with pytest.raises(DomainViolation):
            rayleigh_quotient(0.0, 0.5)

    @pytest.mark.parametrize("x", [1e-310, 5e-324, -1e-310])
    def test_b_one_does_not_depend_on_x(self, x):
        # 2/x overflowed to +-inf and multiplied (1 - b)^2 = 0: nan
        assert rayleigh_quotient(x, 1.0) == rayleigh_quotient(1.0, 1.0) == 12.337005501361698

    @pytest.mark.parametrize("x, b", [(math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5),
                                      (-math.inf, 0.5), (1.0, math.inf), (1.0, -math.inf)])
    def test_non_finite_argument_raises(self, x, b):
        # nan returned nan, and x = inf the x -> inf limit
        with pytest.raises(NonFiniteArgument):
            rayleigh_quotient(x, b)

    def test_huge_b_gives_its_limit(self):
        # Q -> (9 pi^2/4)/(1 + 2/x) as |b| -> inf; b = 1e300 raised a bare
        # OverflowError
        for x in (0.5, 2.0, -3.0):
            limit = 2.25 * math.pi ** 2 / (1.0 + 2.0 / x)
            for b in (1e300, -1e300, 1e20):
                assert rayleigh_quotient(x, b) == pytest.approx(limit, rel=1e-15)

    def test_large_b_matches_the_undivided_form(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = float(rng.uniform(0.05, 50.0))
            b = float(rng.uniform(1.0, 100.0)) * rng.choice((-1.0, 1.0))
            plain = 0.25 * math.pi ** 2 * (1 + 9 * b * b) / ((1 + b * b) + 2 / x * (1 - b) ** 2)
            assert rayleigh_quotient(x, b) == pytest.approx(plain, rel=1e-14)


class TestModelValidation:
    def test_width_positive(self):
        with pytest.raises(ValueError):
            WellModel(width_a=0.0, lam=1.0)
        with pytest.raises(ValueError):
            WellModel(width_a=1.0, lam=1.0)._replace(width_a=-1.0)

    @pytest.mark.parametrize("width", [math.inf, math.nan, -math.inf])
    def test_width_finite(self, width):
        with pytest.raises(ValueError):
            WellModel(width_a=width, lam=1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_lam_finite(self, lam):
        with pytest.raises(ValueError):
            WellModel(width_a=1.0, lam=lam)
        with pytest.raises(ValueError):
            WellModel(width_a=1.0, lam=1.0)._replace(lam=lam)

    @pytest.mark.parametrize("width", [5e-324, 1e-300, 1e300])
    def test_levels_outside_the_float_range_raise(self, width):
        # k = E = inf for both levels at 5e-324, E = inf for index 1 at
        # 1e-300, and E = 0.0 at 1e300
        with pytest.raises(DomainViolation):
            spectrum(WellModel(width_a=width, lam=1.0), 2)

    def test_count_positive(self):
        with pytest.raises(ValueError):
            spectrum(WellModel(width_a=1.0, lam=1.0), 0)

    @pytest.mark.parametrize("count", [True, False, np.True_, 2.5, 3.0, "3", None,
                                       np.float64(3.0)])
    def test_count_must_be_an_integer(self, count):
        with pytest.raises(TypeError, match="^count must be an integer, got "):
            spectrum(WellModel(width_a=1.0, lam=1.0), count)

    @pytest.mark.parametrize("count", [np.int64(7), np.int32(7), np.uint16(7)])
    def test_numpy_count_gives_the_int_spectrum(self, count):
        model = WellModel(width_a=1.0, lam=1.0)
        assert repr(spectrum(model, count)) == repr(spectrum(model, 7))

    @pytest.mark.parametrize("count", [0, -1, np.int64(0)])
    def test_count_below_one_raises_value_error(self, count):
        with pytest.raises(ValueError, match="^count must be >= 1$"):
            spectrum(WellModel(width_a=1.0, lam=1.0), count)
