import math

import numpy as np
import pytest

from wtan.chebyshev import _cheb_interp_coeffs, eval_cheb, fit
from wtan.core import eval_real
from wtan.errors import NonFiniteArgument, SamplingFailure

# Reference coefficients of the split_a = 3.5, order-15 model, printed to
# eight decimals (alpha, beta, gamma per row).
REFERENCE_COEFFS = [
    (0.80600536, 1.03465858, 0.82312766),
    (-0.16766125, -0.28291110, 0.16771494),
    (0.02302848, 0.03258714, 0.01423939),
    (-0.00298934, 0.00177957, -0.00442520),
    (0.00030980, -0.00206359, -0.00095545),
    (-0.00001275, 0.00044900, 0.00024196),
    (-0.00000478, 0.00002021, 0.00007926),
    (0.00000178, -0.00004188, -0.00001706),
    (-0.00000038, 0.00001127, -0.00000743),
    (0.00000006, 0.00000018, 0.00000136),
    (-0.00000001, -0.00000111, 0.00000075),
    (0.00000000, 0.00000035, -0.00000012),
    (0.00000000, -0.00000001, -0.00000008),
    (0.00000000, -0.00000003, 0.00000001),
    (0.00000000, 0.00000001, 0.00000001),
]


@pytest.fixture(scope="module")
def model():
    return fit(3.5, 15)


class TestFit:
    def test_reference_spot_values(self, model):
        assert model.alpha[0] == pytest.approx(0.80600536, abs=5e-8)
        assert model.beta[1] == pytest.approx(-0.28291110, abs=5e-8)
        assert model.gamma[2] == pytest.approx(0.01423939, abs=5e-8)

    def test_all_45_reference_coefficients(self, model):
        for k, (ta, tb, tg) in enumerate(REFERENCE_COEFFS):
            assert model.alpha[k] == pytest.approx(ta, abs=5e-8), f"alpha[{k}]"
            assert model.beta[k] == pytest.approx(tb, abs=5e-8), f"beta[{k}]"
            assert model.gamma[k] == pytest.approx(tg, abs=5e-8), f"gamma[{k}]"

    def test_alpha_tail_negligible(self, model):
        for k in range(11, 15):
            assert abs(model.alpha[k]) < 5e-9

    def test_low_order_fit_consistent(self, model):
        small = fit(3.5, 4)
        est = abs(model.alpha[4])
        for k in range(4):
            assert abs(small.alpha[k] - model.alpha[k]) < 10 * est + 1e-9

    @pytest.mark.parametrize("order", [4, 15])
    def test_nodes_sample_the_exact_middle(self, order):
        # an odd order samples s = 0 itself, so beta takes its exact limit 1
        # at t = 0; no order samples either end s = +-1
        nodes = []
        _cheb_interp_coeffs([lambda s: nodes.append(s) or 0.0], order)
        assert (0.0 in nodes) == (order % 2 == 1)
        assert all(-1.0 < s < 1.0 for s in nodes)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit(-1.0, 15)
        with pytest.raises(ValueError):
            fit(3.5, 3)

    def test_node_past_the_float_range_is_a_sampling_failure(self):
        # the large-x region samples w at a/t, which overflows to inf here
        with pytest.raises(SamplingFailure):
            fit(1e308, 15)


def _per_region_coeffs(fun, order):
    """The per-region formula the shared cosine rows replaced: one generator
    of cos(k pi (j + 1/2) / order) per coefficient."""
    nodes = [math.cos(math.pi * (j + 0.5) / order) for j in range(order)]
    if order % 2:
        nodes[order // 2] = 0.0
    vals = [fun(s) for s in nodes]
    coeffs = []
    for k in range(order):
        # added left to right, as sum() did before Python 3.12 compensated it
        acc = 0.0
        for j, v in enumerate(vals):
            acc += v * math.cos(k * math.pi * (j + 0.5) / order)
        coeffs.append((1.0 if k == 0 else 2.0) * acc / order)
    return tuple(coeffs)


@pytest.mark.parametrize("split_a", [0.7, 3.5, 12.0])
def test_shared_rows_give_the_per_region_floats(split_a):
    # fit's three targets, each fitted alone by the per-region formula
    a = split_a
    targets = (
        lambda s: eval_real(0.5 * a * (s + 1.0), 1) / math.sqrt(0.5 * a * (s + 1.0)),
        lambda t: 1.0 if t == 0.0 else eval_real(a / t, 1) * 2.0 / math.pi,
        lambda s: eval_real(0.5 * a * (s - 1.0), 1) / math.pi,
    )
    for order in [*range(4, 41), 63, 127]:
        model = fit(a, order)
        expected = tuple(_per_region_coeffs(f, order) for f in targets)
        assert (model.alpha, model.beta, model.gamma) == expected, order


def test_regions_are_sampled_in_order_before_any_coefficient():
    calls = []

    def target(name, fail=False):
        def f(s):
            calls.append(name)
            if fail:
                raise SamplingFailure(name)
            return s
        return f

    with pytest.raises(SamplingFailure, match="beta"):
        _cheb_interp_coeffs([target("alpha"), target("beta", True), target("gamma")], 5)
    assert calls == ["alpha"] * 5 + ["beta"]


class TestEval:
    def test_special_value(self, model):
        assert eval_cheb(math.pi / 4, model) == pytest.approx(math.pi / 4, abs=1e-7)

    def test_asymptote(self, model):
        # w(1e6) itself sits pi/2 * 1e-6 below pi/2
        assert eval_cheb(1e6, model) == pytest.approx(math.pi / 2, abs=2e-6)
        assert eval_cheb(1e6, model) == pytest.approx(eval_real(1e6, 1), abs=1e-7)

    def test_negative_region(self, model):
        assert eval_cheb(-1.0, model) == pytest.approx(2.7983860457838867, abs=1e-7)

    def test_nan_raises_and_infinity_is_the_limit(self, model):
        # NaN fails every region's comparison; it must not reach the
        # negative region's sum
        with pytest.raises(NonFiniteArgument):
            eval_cheb(math.nan, model)
        limit = 0.5 * math.pi * sum(model.beta[::4]) - 0.5 * math.pi * sum(model.beta[2::4])
        for x in (math.inf, -math.inf):
            assert eval_cheb(x, model) == pytest.approx(limit, rel=1e-15)
            assert eval_cheb(x, model) == pytest.approx(0.5 * math.pi, abs=1e-7)

    def test_accuracy_everywhere(self, model):
        for x in np.linspace(1e-6, 3.5, 500):
            assert abs(eval_cheb(float(x), model) - eval_real(float(x), 1)) < 1e-7
        for x in np.linspace(-3.5, -1e-6, 500):
            assert abs(eval_cheb(float(x), model) - eval_real(float(x), 1)) < 1e-7
        for t in np.linspace(-1, 1, 501):
            if abs(t) < 5e-3:
                continue
            x = 3.5 / float(t)
            assert abs(eval_cheb(x, model) - eval_real(x, 1)) < 1e-7


class TestInvariants:
    def test_region_continuity_at_split(self, model):
        a = model.split_a
        gap = abs(eval_cheb(a, model) - eval_cheb(a * (1 + 1e-12), model))
        est = model.truncation_estimates()
        assert gap < 2 * (est["alpha"] + est["beta"] + est["gamma"])

    def test_error_bound_honesty(self, model):
        est = model.truncation_estimates()
        worst = {"alpha": 0.0, "beta": 0.0, "gamma": 0.0}
        for x in np.linspace(1e-9, 3.5, 10_000):
            err = abs(eval_cheb(float(x), model) - eval_real(float(x), 1))
            worst["alpha"] = max(worst["alpha"], err / math.sqrt(max(float(x), 1e-12)))
        for x in np.linspace(-3.5, -1e-5, 10_000):
            err = abs(eval_cheb(float(x), model) - eval_real(float(x), 1))
            worst["gamma"] = max(worst["gamma"], err / math.pi)
        for t in np.linspace(-1, 1, 10_001):
            if abs(t) < 1e-4:
                continue
            x = 3.5 / float(t)
            err = abs(eval_cheb(x, model) - eval_real(x, 1))
            worst["beta"] = max(worst["beta"], err / (math.pi / 2))
        for region in ("alpha", "beta", "gamma"):
            assert worst[region] <= 10 * est[region], region

    def test_coefficient_decay(self, model):
        # the envelope decays geometrically but oscillates (the nearest
        # singularity is complex), so compare three indices apart
        for coeffs in (model.alpha, model.beta, model.gamma):
            for k in range(3, len(coeffs) - 3):
                assert abs(coeffs[k + 3]) < max(abs(coeffs[k]), 5e-9)
