"""Monte Carlo sampling of realized liquid time.

The thinning sampler is checked against the closed-form occupation-time
mean, the Bessel-density oracle, and the independent single-shock
quadrature; determinism and the thinning-bound guard are exercised
directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from liqshock import (
    IntensityCurve,
    ModelParams,
    NumericalError,
    Payoff,
    intensity_curve,
    mc_linear_price,
    sample_realized_ttm,
    single_shock_memm_price,
)
from conftest import STRIKE
from oracle_occupation import constant_intensity_price, occupation_mean


def z_score(estimate, truth: float) -> float:
    return abs(estimate.mean - truth) / estimate.std_error


class TestSampleRealizedTtm:
    def test_reproducible_by_seed(self, params):
        curve = intensity_curve(params, "MMM")
        a = sample_realized_ttm(curve, 1.0, 0, seed=7, n_paths=500)
        b = sample_realized_ttm(curve, 1.0, 0, seed=7, n_paths=500)
        c = sample_realized_ttm(curve, 1.0, 0, seed=8, n_paths=500)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_range_and_shape(self, params):
        curve = intensity_curve(params, "MEMM")
        out = sample_realized_ttm(curve, 1.0, 0, seed=3, n_paths=2000)
        assert out.shape == (2000,)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.array_equal(sample_realized_ttm(curve, 0.0, 0, 3, 500),
                              np.zeros(500))

    @pytest.mark.parametrize("regime,truth", [
        (0, 0.9289940694655064), (1, 0.8520711664139224)])
    def test_mean_matches_closed_form(self, params, regime, truth):
        """The expected liquid time has a closed form per start regime; the
        sampler must land within 4 standard errors of it."""
        curve = intensity_curve(params, "MMM")
        out = sample_realized_ttm(curve, 1.0, regime, seed=11, n_paths=100_000)
        se = out.std(ddof=1) / np.sqrt(out.size)
        assert abs(out.mean() - truth) < 4.0 * se
        assert truth == pytest.approx(
            occupation_mean(params.nu01, params.nu10, 1.0) if regime == 0
            else truth, rel=1e-12)

    def test_shock_start_loses_liquid_time(self, params):
        curve = intensity_curve(params, "MMM")
        t0 = sample_realized_ttm(curve, 1.0, 0, seed=5, n_paths=50_000)
        t1 = sample_realized_ttm(curve, 1.0, 1, seed=5, n_paths=50_000)
        assert t1.mean() < t0.mean()

    def test_inputs_validated(self, params):
        curve = intensity_curve(params, "MMM")
        with pytest.raises(ValueError, match="n_paths"):
            sample_realized_ttm(curve, 1.0, 0, seed=1, n_paths=50)
        with pytest.raises(ValueError, match="start_regime"):
            sample_realized_ttm(curve, 1.0, 2, seed=1, n_paths=500)
        with pytest.raises(ValueError, match="horizon"):
            sample_realized_ttm(curve, 1.5, 0, seed=1, n_paths=500)
        with pytest.raises(ValueError, match="seed"):
            sample_realized_ttm(curve, 1.0, 0, seed=-1, n_paths=500)
        with pytest.raises(ValueError, match="seed"):
            sample_realized_ttm(curve, 1.0, 0, seed=True, n_paths=500)
        with pytest.raises(ValueError, match="regime 0"):
            sample_realized_ttm(intensity_curve(params, "MEMM_single_shock"),
                                1.0, 1, seed=1, n_paths=500)
        with pytest.raises(ValueError, match="n_paths"):
            sample_realized_ttm(curve, 1.0, 0, seed=1, n_paths=500.0)

    def test_lying_bound_detected(self, params):
        """A curve whose stated bound is not a true upper bound must be
        caught by the thinning sampler, not silently under-sample."""
        liar = IntensityCurve("MMM", params,
                              lambda t: 1.0 + 5.0 * np.asarray(t),
                              lambda t: np.full_like(np.asarray(t, float), 12.0),
                              constant=True)
        with pytest.raises(NumericalError, match="thinning bound"):
            sample_realized_ttm(liar, 1.0, 0, seed=2, n_paths=5000)


class TestSingleShockSampler:
    def test_reproducible_and_in_range(self, params):
        curve = intensity_curve(params, "MEMM_single_shock")
        a = sample_realized_ttm(curve, 1.0, 0, seed=13, n_paths=1000)
        b = sample_realized_ttm(curve, 1.0, 0, seed=13, n_paths=1000)
        assert np.array_equal(a, b)
        assert np.all((a >= 0.0) & (a <= 1.0))

    def test_mean_exceeds_two_sided_chain(self, params):
        """With recovery absorbing, at most one freeze occurs, so realized
        liquid time stochastically dominates the repeating-shock chain."""
        one = sample_realized_ttm(intensity_curve(params, "MEMM_single_shock"),
                                  1.0, 0, seed=17, n_paths=50_000)
        curve = intensity_curve(params, "MEMM")
        many = sample_realized_ttm(curve, 1.0, 0, seed=17, n_paths=50_000)
        assert one.mean() > many.mean()


class TestMcLinearPrice:
    def test_mmm_matches_occupation_oracle(self, params):
        payoff = Payoff("digital_call", STRIKE)
        est = mc_linear_price(params, payoff, "MMM", 10.0, 100_000, seed=23)
        truth = constant_intensity_price(params, payoff, 10.0)
        assert z_score(est, truth) < 4.0

    def test_memm_matches_pde(self, params, linear_solved):
        payoff = Payoff("vanilla_call", STRIKE)
        est = mc_linear_price(params, payoff, "MEMM", 10.0, 100_000, seed=29)
        ref = linear_solved("MEMM", "vanilla_call").quote(10.0)
        assert z_score(est, ref) < 4.0

    def test_single_shock_matches_quadrature(self, params):
        payoff = Payoff("digital_call", STRIKE)
        est = mc_linear_price(params, payoff, "MEMM_single_shock", 12.0,
                              200_000, seed=31)
        ref = single_shock_memm_price(params, payoff, 0.0, 12.0)
        assert z_score(est, ref) < 4.0

    def test_inputs_validated(self, params):
        payoff = Payoff("vanilla_call", STRIKE)
        with pytest.raises(ValueError, match="measure"):
            mc_linear_price(params, payoff, "physical?", 10.0, 1000, seed=1)
        with pytest.raises(ValueError, match="spot"):
            mc_linear_price(params, payoff, "MMM", -1.0, 1000, seed=1)
