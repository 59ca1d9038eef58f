"""Monte Carlo sampling of realized liquid time.

The thinning sampler is checked against the closed-form occupation-time
mean, the Bessel-density oracle (one payoff's mean, and the whole law of
the clock), and the independent single-shock quadrature; determinism,
the thinning-bound guard and the in-place estimator's bits are exercised
directly.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from liqshock import (
    MEASURES,
    PAYOFF_KINDS,
    IntensityCurve,
    ModelParams,
    NumericalError,
    Payoff,
    bs_price,
    intensity_curve,
    mc_linear_price,
    merton_factors,
    sample_realized_ttm,
    single_shock_factors,
    single_shock_memm_price,
)
from conftest import STRIKE
from liqshock import mc
from oracle_occupation import (
    constant_intensity_price,
    killed_occupation_mass,
    no_shock_atom,
    occupation_density,
    occupation_mean,
    shock_start_density,
    single_shock_density,
)


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

    @pytest.mark.parametrize("start_regime", [True, 0.0, np.array([0])],
                             ids=["bool", "float", "array"])
    def test_start_regime_must_be_an_integer(self, params, start_regime):
        curve = intensity_curve(params, "MMM")
        with pytest.raises(ValueError, match="start_regime must be an integer"):
            sample_realized_ttm(curve, 1.0, start_regime, seed=1, n_paths=500)

    @pytest.mark.parametrize("horizon", [np.array([1.0]), np.array([0.5, 1.0])],
                             ids=["one-element", "two-element"])
    def test_array_horizon_refused_by_name(self, params, horizon):
        curve = intensity_curve(params, "MMM")
        with pytest.raises(ValueError, match=re.escape(
                f"horizon must be a scalar, got an array of shape {horizon.shape}")):
            sample_realized_ttm(curve, horizon, 0, seed=1, n_paths=500)

    def test_lying_bound_detected(self, params):
        """A curve whose stated bound is not a true upper bound must be
        caught by the thinning sampler, not silently under-sample."""
        liar = IntensityCurve(
            "MMM", params,
            lambda t: (1.0 + 5.0 * np.asarray(t),
                       np.full_like(np.asarray(t, float), 12.0)),
            constant=True)
        with pytest.raises(NumericalError, match="thinning bound"):
            sample_realized_ttm(liar, 1.0, 0, seed=2, n_paths=5000)

    @pytest.mark.parametrize("regime", [0, 1])
    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
    def test_unusable_bound_refused_by_name(self, params, regime, bad):
        """A hand-built curve whose bound is not finite and >= 0 is refused
        by the bound's name before any round runs."""
        values = [1.0, 1.0]
        values[regime] = bad
        curve = IntensityCurve(
            "MMM", params,
            lambda t: tuple(np.full_like(np.asarray(t, float), v)
                            for v in values),
            constant=True)
        name = ("bound01", "bound10")[regime]
        with pytest.raises(NumericalError, match=f"{name} must be finite"):
            sample_realized_ttm(curve, 1.0, 0, seed=2, n_paths=500)


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

    def test_array_spot_refused_before_sampling(self, params, monkeypatch):
        """The estimator prices one scalar spot; an array is refused by name
        before any path is sampled."""
        monkeypatch.setattr(mc, "sample_realized_ttm", None)
        with pytest.raises(ValueError, match=r"spot must be a scalar.*\(2,\)"):
            mc_linear_price(params, Payoff("vanilla_call", STRIKE), "MMM",
                            np.array([10.0, 11.0]), 1000, seed=1)


def bits(mean, std_error) -> tuple[str, str]:
    return float(mean).hex(), float(std_error).hex()


class TestInPlaceEstimate:
    @pytest.mark.parametrize("n", [100, 1001, 2 * 2 ** 16 + 3])
    @pytest.mark.parametrize("measure", MEASURES)
    def test_price_is_the_whole_array_statistics(self, params, measure, n):
        """Pricing the clocks in place, block by block, and taking the
        standard error in place give the bits of np.mean and np.std over
        one whole-array bs_price of the same clocks."""
        clocks = sample_realized_ttm(intensity_curve(params, measure),
                                     params.T, 0, 43, n)
        for kind in PAYOFF_KINDS:
            payoff = Payoff(kind, STRIKE)
            v = bs_price(payoff, clocks, 10.0, params.sigma0)
            est = mc_linear_price(params, payoff, measure, 10.0, n, seed=43)
            assert bits(est.mean, est.std_error) == bits(
                np.mean(v), np.std(v, ddof=1) / math.sqrt(n))

    @pytest.mark.parametrize("n", [100, 127, 128, 129, 8191, 8193, 131_075])
    def test_in_place_steps_are_numpys(self, n):
        """The in-place steps reproduce np.mean and np.std(ddof=1) on both
        sides of numpy's pairwise-summation block (128) and buffer (8192)
        sizes, so a change in numpy's summation fails here."""
        x = 7.0 + 3.0 * np.random.default_rng(n).standard_normal(n)
        est = mc._estimate_in_place(x.copy())
        assert bits(est.mean, est.std_error) == bits(
            np.mean(x), np.std(x, ddof=1) / math.sqrt(n))


# Each test of the clock's law fails a correct sampler with probability
# LAW_LEVEL; its paths span several sampler chunks.
LAW_LEVEL = 1e-3
LAW_PATHS = 200_000
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def clock_law(params: ModelParams, measure: str):
    """The exact law of the liquid-start clock under ``measure``: its CDF
    on (0, T) and its no-shock atom at T.

    MMM is the occupation law itself.  MEMM reweights it by
    e^{-d0 tau} / E[e^{-d0 occ}] (see ``oracle_occupation``).
    MEMM_single_shock reweights the physical single-shock law
    (``single_shock_density``) by e^{-d0 tau} / F0(0), F0 of the
    single-shock factors, so the total mass of 1 checks that factor.  The
    CDF integrates the density by 8-point Gauss-Legendre on 1,000 equal
    panels, and on the part of a panel below each point."""
    density = occupation_density
    if measure == "MMM":
        def weight(t):
            return np.ones_like(t)
    else:
        if measure == "MEMM":
            mass = killed_occupation_mass(params)
        else:
            density = single_shock_density
            mass = float(single_shock_factors(params).F0(0.0))

        def weight(t):
            return np.exp(-params.d0 * t) / mass

    def integral(a, b):
        a, b = a[:, None], b[:, None]
        half = 0.5 * (b - a)
        t = a + half * (1.0 + _GL_NODES)
        f = density(t, params.nu01, params.nu10, params.T)
        return (half * f * weight(t)) @ _GL_WEIGHTS

    panels = 1000
    edges = np.linspace(0.0, params.T, panels + 1)
    cum = np.concatenate(([0.0], np.cumsum(integral(edges[:-1], edges[1:]))))

    def cdf(x):
        j = np.minimum((x * (panels / params.T)).astype(np.intp), panels - 1)
        return cum[j] + integral(edges[j], x)

    atom = no_shock_atom(params.nu01, params.T) * float(
        weight(np.array(params.T)))
    assert cum[-1] + atom == pytest.approx(1.0, abs=1e-12)
    return cdf, atom


def shock_start_law(params: ModelParams, measure: str):
    """The exact law of the shock-start clock under ``measure``: its CDF
    on (0, T) and its no-recovery atom at 0.

    The density convolves the first frozen spell into the liquid-start
    law (``shock_start_density``).  MEMM reweights it by e^{-d0 tau} over
    its own mass, which must be the shock-regime factor F1(0).  The CDF
    integrates the density by 8-point Gauss-Legendre on 1,000 equal panels
    and is linear between their edges: at nu10 = 2 that is within 2e-7 of
    the exact CDF, four orders of magnitude below the KS bound."""
    panels = 1000
    edges = np.linspace(0.0, params.T, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    t = edges[:-1, None] + half * (1.0 + _GL_NODES)
    f = shock_start_density(t, params.nu01, params.nu10, params.T)
    # No recovery before T: the no-shock atom of the swapped chain.
    atom = no_shock_atom(params.nu10, params.T)
    if measure == "MEMM":
        f = f * np.exp(-params.d0 * t)
    cum = np.concatenate(([0.0], np.cumsum(f @ (half * _GL_WEIGHTS))))
    mass = cum[-1] + atom
    if measure == "MMM":
        assert mass == pytest.approx(1.0, abs=1e-12)
    else:
        assert mass == pytest.approx(float(merton_factors(params).F1(0.0)),
                                     rel=1e-12)
    return (lambda v: np.interp(v, edges, cum / mass)), atom / mass


@pytest.fixture(scope="module", params=MEASURES)
def clock_sample(request, params):
    """A measure and its liquid-start clocks over LAW_PATHS paths."""
    assert LAW_PATHS >= 2 * mc._CHUNK
    curve = intensity_curve(params, request.param)
    return request.param, sample_realized_ttm(curve, params.T, 0, 1,
                                              LAW_PATHS)


@pytest.fixture(scope="module")
def slow_recovery(params) -> ModelParams:
    """The canonical parameters with nu10 = 2: about 13% of the paths
    started in a shock never recover, so their atom has a sizeable mass."""
    return replace(params, nu10=2.0)


@pytest.fixture(scope="module", params=["MMM", "MEMM"])
def shock_start_sample(request, slow_recovery):
    """A measure and its shock-start clocks over LAW_PATHS paths."""
    curve = intensity_curve(slow_recovery, request.param)
    return request.param, sample_realized_ttm(curve, slow_recovery.T, 1, 2,
                                              LAW_PATHS)


class TestClockLaw:
    def test_no_shock_atom(self, params, clock_sample):
        """The share of clocks equal to T, the paths with no shock, lies in
        the two-sided binomial interval of level LAW_LEVEL."""
        measure, clocks = clock_sample
        _, atom = clock_law(params, measure)
        lo, hi = stats.binom.interval(1.0 - LAW_LEVEL, LAW_PATHS, atom)
        assert lo <= np.count_nonzero(clocks == params.T) <= hi

    def test_clocks_below_t_follow_the_exact_density(self, params,
                                                     clock_sample):
        """The clocks below T, given that a shock occurred, pass a
        Kolmogorov-Smirnov test against the exact conditional CDF at level
        LAW_LEVEL (the bound is the exact Kolmogorov quantile)."""
        measure, clocks = clock_sample
        cdf, atom = clock_law(params, measure)
        below = clocks[clocks < params.T]
        assert np.all(below > 0.0)
        d = stats.kstest(below, lambda x: cdf(x) / (1.0 - atom)).statistic
        assert d <= stats.kstwo.isf(LAW_LEVEL, below.size)

    def test_no_recovery_atom(self, slow_recovery, shock_start_sample):
        """From the shock regime, the share of clocks equal to 0, the paths
        that never recover, lies in the two-sided binomial interval of
        level LAW_LEVEL."""
        measure, clocks = shock_start_sample
        _, atom = shock_start_law(slow_recovery, measure)
        lo, hi = stats.binom.interval(1.0 - LAW_LEVEL, LAW_PATHS, atom)
        assert lo <= np.count_nonzero(clocks == 0.0) <= hi

    def test_shock_start_clocks_follow_the_convolved_density(
            self, slow_recovery, shock_start_sample):
        """From the shock regime, the clocks above 0 pass a
        Kolmogorov-Smirnov test against the exact conditional CDF at level
        LAW_LEVEL."""
        measure, clocks = shock_start_sample
        cdf, atom = shock_start_law(slow_recovery, measure)
        above = clocks[clocks > 0.0]
        assert np.all(above < slow_recovery.T)
        d = stats.kstest(above, lambda x: cdf(x) / (1.0 - atom)).statistic
        assert d <= stats.kstwo.isf(LAW_LEVEL, above.size)

    @pytest.mark.parametrize("nu10", [2.0, 12.0])
    def test_shock_start_density_is_the_swapped_chain(self, params, nu10):
        """The convolved density equals the law of T minus the frozen time,
        which from the shock regime is the liquid-start law with the two
        intensities swapped."""
        tau = np.linspace(0.001, params.T - 0.001, 999)
        assert np.allclose(
            shock_start_density(tau, params.nu01, nu10, params.T),
            occupation_density(params.T - tau, nu10, params.nu01, params.T),
            rtol=1e-12, atol=0.0)
