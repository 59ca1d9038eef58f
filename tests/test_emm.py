"""Linear pricing under the minimal measures.

The MMM surfaces are checked against an independent occupation-time oracle
(Bessel-density quadrature, exact for unchanged intensities), and the
MEMM surfaces, extrapolated in the time step, against the same law
reweighted by e^{-d0 occ}; the single-shock MEMM quadrature is cross-checked against the PDE route and
its no-shock degeneracy.  The MEMM/MMM spread signs document the model's
actual ordering: positive where the value grows with liquid time (vanilla
calls), negative for in-the-money digitals, whose value shrinks with
maturity.
"""

from __future__ import annotations

import numpy as np
import pytest

from liqshock import (
    GridSpec,
    ModelParams,
    Payoff,
    bs_price,
    linear_price,
    merton_factors,
    single_shock_memm_price,
)
from conftest import SPOTS, STRIKE
from oracle_occupation import (constant_intensity_price,
                               killed_occupation_mass, memm_price)

# The default parameters and two corners of the benchmark's parameter box.
MEMM_SETS = {
    "default": dict(mu0=0.06, sigma0=0.3, nu01=1.0, nu10=12.0),
    "slow_recovery": dict(mu0=0.09, sigma0=0.2, nu01=2.0, nu10=6.0),
    "fast_recovery": dict(mu0=0.03, sigma0=0.4, nu01=2.0, nu10=24.0),
}


class TestLinearPrice:
    @pytest.mark.parametrize("kind", ["digital_call", "vanilla_call"])
    def test_mmm_matches_occupation_oracle(self, params, linear_solved, kind):
        """Dual route: implicit PDE march vs direct quadrature of the
        occupation-time density (the MMM price is a Black-Scholes price
        integrated over realized liquid time)."""
        result = linear_solved("MMM", kind)
        payoff = Payoff(kind, STRIKE)
        for spot in SPOTS:
            ref = constant_intensity_price(params, payoff, spot)
            assert result.quote(spot) == pytest.approx(ref, abs=5e-4)

    def test_measure_validated(self, params, grid_default):
        with pytest.raises(ValueError, match="measure"):
            linear_price(params, Payoff("vanilla_call", STRIKE), "MEM",
                         grid_default)

    @pytest.mark.parametrize("measure", ["MMM", "MEMM"])
    def test_digital_pair_prices_sum_to_one(self, params, measure):
        """digital_call + digital_put pays 1 in every state; both linear
        prices must carry the constant exactly (the march preserves
        constants and the strike sits midway between nodes)."""
        grid = GridSpec.build(params, STRIKE, n_time=400)
        call = linear_price(params, Payoff("digital_call", STRIKE), measure, grid)
        put = linear_price(params, Payoff("digital_put", STRIKE), measure, grid)
        total_p = call.surface_p.values + put.surface_p.values
        total_q = call.surface_q.values + put.surface_q.values
        assert np.max(np.abs(total_p - 1.0)) < 1e-12
        assert np.max(np.abs(total_q - 1.0)) < 1e-12

    def test_per_contract_quantity_independence(self, params):
        grid = GridSpec.build(params, STRIKE, n_time=200)
        one = linear_price(params, Payoff("vanilla_call", STRIKE, 1.0), "MEMM", grid)
        seven = linear_price(params, Payoff("vanilla_call", STRIKE, 7.0), "MEMM", grid)
        assert np.array_equal(one.surface_p.values, seven.surface_p.values)

    def test_terminal_row_is_exact_payoff(self, params, linear_solved):
        result = linear_solved("MMM", "digital_call")
        payoff = Payoff("digital_call", STRIKE)
        nodes = result.grid.spot_nodes()
        assert np.array_equal(result.surface_p.row(params.T), payoff.value(nodes))
        assert np.array_equal(result.surface_q.row(params.T), payoff.value(nodes))

    def test_quote_regime_dispatch(self, linear_solved):
        result = linear_solved("MMM", "vanilla_call")
        assert result.quote(10.0, regime=1) == result.surface_q.quote(10.0)
        assert result.quote(10.0, regime=0) == result.surface_p.quote(10.0)

    @pytest.mark.parametrize("regime", [2, -1])
    def test_quote_refuses_other_regimes(self, linear_solved, regime):
        result = linear_solved("MMM", "vanilla_call")
        with pytest.raises(ValueError, match="regime"):
            result.quote(10.0, regime=regime)


class TestExactMemm:
    """The MEMM price as the occupation law reweighted by e^{-d0 occ}."""

    @pytest.mark.parametrize("name", MEMM_SETS)
    def test_reweighted_mass_is_f0(self, name):
        par = ModelParams(gamma=1.0, T=1.0, **MEMM_SETS[name])
        f0 = float(merton_factors(par).F0(0.0))
        assert abs(killed_occupation_mass(par) / f0 - 1.0) <= 1e-12

    @pytest.mark.parametrize("kind", ["vanilla_call", "digital_call"])
    @pytest.mark.parametrize("name", MEMM_SETS)
    def test_extrapolated_linear_price_matches(self, name, kind):
        """The march's error is first order in the time step, so
        2 q(2N) - q(N) removes it; measured worst 1.8e-6 over these
        cells."""
        par = ModelParams(gamma=1.0, T=1.0, **MEMM_SETS[name])
        pay = Payoff(kind, STRIKE)
        coarse, fine = (linear_price(par, pay, "MEMM",
                                     GridSpec.build(par, STRIKE, n_time=n), (0,))
                        for n in (2000, 4000))
        for spot in SPOTS:
            extrapolated = 2.0 * fine.quote(spot) - coarse.quote(spot)
            assert extrapolated == pytest.approx(memm_price(par, pay, spot),
                                                 abs=5e-6)


class TestSingleShockMemm:
    def test_no_shock_collapses_to_black_scholes(self, params):
        quiet = ModelParams(mu0=params.mu0, sigma0=params.sigma0, nu01=0.0,
                            nu10=params.nu10, gamma=params.gamma, T=params.T)
        payoff = Payoff("vanilla_call", STRIKE)
        ref = float(bs_price(payoff, params.T, 10.0, params.sigma0))
        assert single_shock_memm_price(quiet, payoff, 0.0, 10.0) == pytest.approx(
            ref, abs=1e-12)

    @pytest.mark.parametrize("kind", ["digital_call", "vanilla_call"])
    def test_matches_pde_zero_order(self, params, single_shock_solved, kind):
        """Dual route: tensor-Simpson quadrature vs the small-gamma limit of
        the PDE march."""
        surf = single_shock_solved(kind, None)
        payoff = Payoff(kind, STRIKE)
        for spot in SPOTS:
            ref = single_shock_memm_price(params, payoff, 0.0, spot)
            assert surf.quote(spot) == pytest.approx(ref, abs=5e-4)

    def test_interior_time_matches_pde(self, params, single_shock_solved):
        surf = single_shock_solved("vanilla_call", None)
        payoff = Payoff("vanilla_call", STRIKE)
        ref = single_shock_memm_price(params, payoff, 0.5, 10.0)
        assert surf.quote(10.0, t=0.5) == pytest.approx(ref, abs=5e-4)

    def test_inputs_validated(self, params):
        payoff = Payoff("vanilla_call", STRIKE)
        with pytest.raises(ValueError):
            single_shock_memm_price(params, payoff, params.T, 10.0)
        with pytest.raises(ValueError):
            single_shock_memm_price(params, payoff, -0.1, 10.0)
        with pytest.raises(ValueError):
            single_shock_memm_price(params, payoff, 0.0, -1.0)

    def test_array_spot_refused_by_name(self, params):
        """The quadrature prices one scalar spot; an array is refused before
        any quadrature, naming ``spot``."""
        payoff = Payoff("vanilla_call", STRIKE)
        with pytest.raises(ValueError, match=r"spot must be a scalar.*\(2,\)"):
            single_shock_memm_price(params, payoff, 0.0, np.array([9.0, 10.0]))

    def test_array_t_refused_by_name(self, params):
        """One valuation time per call: an array t is refused naming t,
        not with numpy's ambiguous-truth-value error."""
        payoff = Payoff("vanilla_call", STRIKE)
        with pytest.raises(ValueError, match=r"t must be a scalar.*\(2,\)"):
            single_shock_memm_price(params, payoff, np.array([0.0, 0.5]), 10.0)


class TestSpread:
    def test_vanilla_call_spread_positive(self, linear_solved):
        mm = linear_solved("MMM", "vanilla_call")
        me = linear_solved("MEMM", "vanilla_call")
        for spot in SPOTS:
            assert mm.quote(spot) - me.quote(spot) > 0.0

    def test_digital_spread_sign_flips_in_the_money(self, linear_solved):
        """The entropy tilt loads the measure onto longer freezes, i.e.
        shorter liquid time; that lowers values increasing in maturity
        (out-of-the-money digital) and raises values decreasing in maturity
        (in-the-money digital)."""
        mm = linear_solved("MMM", "digital_call")
        me = linear_solved("MEMM", "digital_call")
        assert mm.quote(8.0) - me.quote(8.0) > 0.0
        assert mm.quote(12.0) - me.quote(12.0) < 0.0
