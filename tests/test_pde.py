"""Finite-difference solvers: grids, surfaces, indifference marches,
single-shock march, small-gamma expansion, sweeps and hedge reports.

Cross-route checks anchor each solver: no-shock degeneracies against
closed-form Black-Scholes, the single-shock march against the independent
tensor quadrature, constants and quantity-folding invariances, and the
buyer <= linear <= writer sandwich as a randomized property.
"""

from __future__ import annotations

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from liqshock import (
    GridSpec,
    HedgeReport,
    ModelParams,
    NumericalError,
    Payoff,
    PriceSurface,
    adjusted_ttm,
    bs_greeks,
    bs_price,
    hedge_report,
    mmm_and_expansion,
    linear_price,
    single_shock_memm_price,
    solve_buyer,
    solve_indifference,
    solve_single_shock,
    solve_writer,
)
from conftest import SPOTS, STRIKE
from liqshock.pde import _Stepper


def make_params(**kw) -> ModelParams:
    base = dict(mu0=0.06, sigma0=0.3, nu01=1.0, nu10=12.0, gamma=1.0, T=1.0)
    base.update(kw)
    return ModelParams(**base)


class TestGridSpec:
    def test_strike_sits_midway_between_nodes(self, params):
        for n_time in (100, 500, 2000):
            grid = GridSpec.build(params, STRIKE, n_time=n_time)
            offset = (math.log(STRIKE) - grid.z_min) / grid.delta_z
            assert offset - math.floor(offset) == pytest.approx(0.5, abs=1e-9)

    def test_step_relation(self, params):
        grid = GridSpec.build(params, STRIKE, n_time=800)
        s2dt = params.sigma0 ** 2 * grid.delta_t
        assert grid.delta_z == pytest.approx(
            math.sqrt(s2dt + 0.25 * s2dt * s2dt), rel=1e-14)
        assert grid.delta_t == pytest.approx(params.T / 800, rel=1e-14)

    def test_domain_covers_requested_width(self, params):
        grid = GridSpec.build(params, STRIKE, width=6.0)
        half = 6.0 * params.sigma0 * math.sqrt(params.T)
        assert grid.z_max - math.log(STRIKE) >= half
        assert math.log(STRIKE) - grid.z_min >= half

    def test_build_validation(self, params):
        with pytest.raises(ValueError):
            GridSpec.build(params, -1.0)
        with pytest.raises(ValueError):
            GridSpec.build(params, STRIKE, n_time=0)
        with pytest.raises(ValueError):
            GridSpec.build(params, STRIKE, width=0.0)

    @pytest.mark.parametrize("count", [200.5, 200.0, "200", True])
    def test_non_integer_counts_refused_by_name(self, params, count):
        """A count that is not an integer is refused where the grid is
        made; 200.5 used to build a grid whose march then failed in
        ``range``."""
        with pytest.raises(ValueError, match=rf"n_time must be an integer, got {count!r}"):
            GridSpec.build(params, STRIKE, n_time=count)
        grid = GridSpec.build(params, STRIKE, n_time=200)
        for name in ("n_time", "n_space"):
            with pytest.raises(ValueError, match=rf"{name} must be an integer"):
                replace(grid, **{name: count})

    @pytest.mark.parametrize("width", [float("nan"), -1.0, 1e300, 1e308,
                                       float("inf")])
    def test_unbuildable_width_is_named(self, params, width):
        """A width whose grid would not fit an array is refused before any
        node count is formed."""
        with pytest.raises(ValueError, match="width"):
            GridSpec.build(params, STRIKE, width=width)

    def test_direct_construction_validation(self):
        with pytest.raises(ValueError, match="delta_z"):
            GridSpec(n_time=10, n_space=3, z_min=0.0, delta_t=0.1, delta_z=2.1)
        with pytest.raises(ValueError, match="n_space"):
            GridSpec(n_time=10, n_space=2, z_min=0.0, delta_t=0.1, delta_z=0.1)
        # An infinite step would make times() compute 0 * inf = NaN.
        with pytest.raises(ValueError, match="delta_t must be finite, got inf"):
            GridSpec(n_time=10, n_space=5, z_min=0.0, delta_t=math.inf,
                     delta_z=0.1)

    @pytest.mark.parametrize("z_min", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_z_min_refused_by_value(self, z_min):
        with pytest.raises(ValueError, match=f"z_min must be finite, got {z_min}"):
            GridSpec(n_time=10, n_space=5, z_min=z_min, delta_t=0.1, delta_z=0.1)

    def test_z_max_is_the_last_node(self, grid_default):
        assert grid_default.z_max == grid_default.z_nodes()[-1]


class TestPriceSurface:
    def test_shape_and_regime_validated(self, params, grid_default):
        bad = np.zeros((3, 3))
        with pytest.raises(ValueError, match="shape"):
            PriceSurface(bad, grid_default, 0)
        rows = np.zeros((grid_default.n_time + 1, grid_default.n_space))
        with pytest.raises(ValueError, match="regime must be 0 or 1"):
            PriceSurface(rows, grid_default, 2)

    def test_row_requires_grid_time(self, indiff_solved):
        p, _ = indiff_solved("vanilla_call", 1.0)
        dt = p.grid.delta_t
        assert np.shares_memory(p.row(5 * dt), p.values[5])
        with pytest.raises(ValueError, match="grid time"):
            p.row(5.4321 * dt)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1e308])
    def test_non_finite_time_rejected(self, indiff_solved, t):
        """A time whose row index is not finite is refused by name, not
        with an OverflowError or numpy's NaN-to-integer error."""
        p, _ = indiff_solved("vanilla_call", 1.0)
        for read in (p.row, lambda t: p.quote(10.0, t), lambda t: p.delta(10.0, t)):
            with pytest.raises(ValueError, match=re.escape(f"t={t} is not a grid time")):
                read(t)

    @pytest.mark.parametrize("t", [np.array([0.0, 0.5]), [0.0, 0.5]])
    def test_array_time_refused_by_name(self, indiff_solved, t):
        """A surface reads one time row; an array t is refused naming t
        and its shape, not with numpy's conversion error."""
        p, _ = indiff_solved("vanilla_call", 1.0)
        for read in (p.row, lambda t: p.quote(10.0, t), lambda t: p.delta(10.0, t)):
            with pytest.raises(ValueError, match=re.escape(
                    "t must be a scalar, got an array of shape (2,)")):
                read(t)

    def test_quote_outside_domain_rejected(self, indiff_solved):
        p, _ = indiff_solved("vanilla_call", 1.0)
        with pytest.raises(ValueError, match="domain"):
            p.quote(1e5)
        with pytest.raises(ValueError):
            p.quote(-3.0)

    @pytest.mark.parametrize("spot", [math.nan, math.inf, [10.0, math.nan]])
    def test_non_finite_spot_rejected(self, indiff_solved, spot):
        p, _ = indiff_solved("vanilla_call", 1.0)
        for read in (p.quote, p.delta):
            with pytest.raises(ValueError, match="spot must be positive and finite"):
                read(spot)

    def test_quote_reproduces_nodal_values(self, indiff_solved):
        p, _ = indiff_solved("vanilla_call", 1.0)
        nodes = p.grid.spot_nodes()
        j = p.grid.n_space // 2
        assert p.quote(nodes[j]) == pytest.approx(p.values[0, j], abs=1e-12)

    def test_delta_consistent_with_quote(self, indiff_solved):
        """delta is the derivative of the same local quadratic the quote
        uses; check against a finite difference of quote away from the
        strike (where the stencil is smooth)."""
        p, _ = indiff_solved("vanilla_call", 1.0)
        eps = 1e-6
        for s in (9.0, 11.5):
            fd = (p.quote(s + eps) - p.quote(s - eps)) / (2 * eps)
            assert p.delta(s) == pytest.approx(fd, abs=1e-7)


class TestNoShockDegeneracy:
    """With nu01 = 0 the shock never arrives: every solver must collapse
    to plain Black-Scholes up to discretization error."""

    def setup_method(self):
        self.quiet = make_params(nu01=0.0)
        self.grid = GridSpec.build(self.quiet, STRIKE)

    def test_buyer_is_black_scholes(self):
        payoff = Payoff("vanilla_call", STRIKE, 1.0)
        p, q = solve_buyer(self.quiet, payoff, self.grid)
        ref = float(bs_price(payoff, 1.0, 10.0, 0.3))
        assert p.quote(10.0) == pytest.approx(ref, abs=2e-4)
        # A regime-1 start still sits through one initial freeze, so the
        # shock-regime value prices a shorter effective maturity: q < p.
        assert 0.0 < q.quote(10.0) < p.quote(10.0)

    def test_single_shock_is_black_scholes(self):
        payoff = Payoff("digital_call", STRIKE, 1.0)
        p = solve_single_shock(self.quiet, payoff, self.grid, [1.0])[0]
        ref = float(bs_price(payoff, 1.0, 10.0, 0.3))
        assert p.quote(10.0) == pytest.approx(ref, abs=2e-4)


class TestExactInvariances:
    def test_nonlinear_march_preserves_constants(self, params):
        """A payoff worth 1 at every grid node (digital far in the money)
        must stay exactly 1: diffusion annihilates constants and the
        exponential sources cancel at q = p."""
        grid = GridSpec.build(params, STRIKE, n_time=400)
        payoff = Payoff("digital_call", 1.0, 1.0)
        assert np.all(payoff.value(grid.spot_nodes()) == 1.0)
        p, q = solve_buyer(params, payoff, grid)
        assert np.max(np.abs(p.values - 1.0)) < 1e-12
        assert np.max(np.abs(q.values - 1.0)) < 1e-12

    def test_quantity_folds_into_risk_aversion(self, params):
        """n contracts at gamma price identically (per contract) to one
        contract at n * gamma: the solver depends only on the product."""
        grid = GridSpec.build(params, STRIKE, n_time=300)
        five = solve_buyer(params, Payoff("vanilla_call", STRIKE, 5.0), grid)
        scaled = solve_buyer(make_params(gamma=5.0),
                             Payoff("vanilla_call", STRIKE, 1.0), grid)
        assert np.array_equal(five[0].values, scaled[0].values)
        assert np.array_equal(five[1].values, scaled[1].values)
        w_five = solve_writer(params, Payoff("vanilla_call", STRIKE, -5.0), grid)
        w_scaled = solve_writer(make_params(gamma=5.0),
                                Payoff("vanilla_call", STRIKE, -1.0), grid)
        assert np.array_equal(w_five[0].values, w_scaled[0].values)

    def test_terminal_rows_are_exact(self, params, indiff_solved):
        p, q = indiff_solved("digital_call", 10.0)
        h = Payoff("digital_call", STRIKE).value(p.grid.spot_nodes())
        assert np.array_equal(p.values[-1], h)
        assert np.array_equal(q.values[-1], h)


class TestStackedIndifference:
    """One pass over several contracts solves a block-diagonal system with
    zero couplings, so every block must reproduce its own solve exactly."""

    QUANTITIES = (10.0, 5.0, 1.0, -1.0, -5.0, -10.0)

    @pytest.mark.parametrize("kind", ["vanilla_call", "digital_put"])
    def test_stack_equals_per_contract_solves(self, params, kind):
        grid = GridSpec.build(params, STRIKE, n_time=300)
        stacked = solve_indifference(params, Payoff(kind, STRIKE), grid,
                                     self.QUANTITIES)
        assert len(stacked) == len(self.QUANTITIES)
        for n, (p, q) in zip(self.QUANTITIES, stacked):
            solver = solve_buyer if n > 0 else solve_writer
            p_one, q_one = solver(params, Payoff(kind, STRIKE, n), grid)
            assert np.array_equal(p.values, p_one.values)
            assert np.array_equal(q.values, q_one.values)
            assert (p.regime, q.regime) == (p_one.regime, q_one.regime) == (0, 1)

    def test_step_matches_banded_reference(self, params):
        """Each block of a stacked step equals a banded solve of that block
        alone, bit for bit (reference: scipy's solve_banded, which calls
        the same LAPACK routine through its checked wrapper)."""
        grid = GridSpec.build(params, STRIKE, n_time=300)
        m = grid.n_space
        rng = np.random.default_rng(5)
        dt_kappa = rng.uniform(0.0, 0.05, (3, m))
        rhs = rng.uniform(-1.0, 2.0, (3, m))
        # The marches' layout: the three blocks as one flat row.
        flat = _Stepper(grid, params.sigma0, blocks=3).solve(
            dt_kappa.reshape(-1), rhs.reshape(-1).copy())
        assert flat.shape == (3 * m,)
        a = 0.5 * params.sigma0 ** 2 * grid.delta_t
        dz = grid.delta_z
        sub = -a * (1.0 / (dz * dz) + 1.0 / (2.0 * dz))
        sup = -a * (1.0 / (dz * dz) - 1.0 / (2.0 * dz))
        for b in range(3):
            ab = np.zeros((3, m))
            ab[0, 1] = sup - sub * math.exp(-dz)
            ab[0, 2:] = sup
            ab[2, : m - 2] = sub
            ab[2, m - 2] = sub - sup * math.exp(dz)
            ab[1] = 1.0 + 2.0 * a / (dz * dz) + dt_kappa[b]
            ab[1, 0] += sub * (1.0 + math.exp(-dz))
            ab[1, -1] += sup * (1.0 + math.exp(dz))
            ref = solve_banded((1, 1), ab, rhs[b], check_finite=False)
            assert np.array_equal(flat[b * m:(b + 1) * m], ref)

    def test_one_block_tripping_the_guard_fails_the_stack(self, params):
        grid = GridSpec.build(params, STRIKE, n_time=100)
        with pytest.raises(NumericalError, match="exponent guard"):
            solve_indifference(params, Payoff("digital_call", STRIKE), grid,
                               (1.0, 1e4))

    def test_singular_step_is_a_numerical_error(self, params, monkeypatch):
        """A nonnegative dt * kappa keeps every step strictly diagonally
        dominant, so LAPACK's zero-pivot report is forced here."""
        grid = GridSpec.build(params, STRIKE, n_time=100)

        def zero_pivot(dl, d, du, b, **kw):
            return dl, d, du, b, 7

        monkeypatch.setattr("liqshock.pde.dgtsv", zero_pivot)
        with pytest.raises(NumericalError, match="singular.*info = 7"):
            _Stepper(grid, params.sigma0).solve(0.0, np.ones(grid.n_space))


class TestAsymptoticExpansion:
    def test_zero_order_is_linear_memm(self, params, bundles, linear_solved):
        bund = bundles("digital_call")
        lin = linear_solved("MEMM", "digital_call")
        assert np.array_equal(bund.p0.values, lin.surface_p.values)
        assert np.array_equal(bund.q0.values, lin.surface_q.values)

    @pytest.mark.parametrize("kind", ["digital_call", "vanilla_call"])
    def test_first_order_terms_nonpositive(self, bundles, kind):
        """The leading risk correction is a buyer discount: p1 and q1 are
        nonpositive everywhere, and vanish at maturity."""
        bund = bundles(kind)
        assert np.all(bund.p1.values[-1] == 0.0)
        assert np.all(bund.q1.values[-1] == 0.0)
        assert bund.p1.values.max() <= 1e-10
        assert bund.q1.values.max() <= 1e-10

    def test_first_order_beats_zeroth_at_unit_aversion(self, params, bundles,
                                                       indiff_solved):
        bund = bundles("digital_call")
        exact_p, _ = indiff_solved("digital_call", 1.0)
        for spot in SPOTS:
            target = exact_p.quote(spot)
            err0 = abs(bund.p0.quote(spot) - target)
            err1 = abs(bund.first_order_quote(spot, params.gamma) - target)
            assert err1 < err0

    def test_custom_gamma_eff(self, bundles):
        """gamma_eff is an argument: 0 gives p0, its sign picks the side,
        and an array of spots quotes each spot as a call of its own."""
        bund = bundles("vanilla_call")
        assert bund.first_order_quote(10.0, 0.0) == bund.p0.quote(10.0)
        assert bund.first_order_quote(10.0, -2.0) == (
            bund.p0.quote(10.0) - 2.0 * bund.p1.quote(10.0))
        spots = np.array(SPOTS)
        assert bund.first_order_quote(spots, 3.0).tolist() == [
            bund.first_order_quote(s, 3.0) for s in SPOTS]


class TestSingleShock:
    def test_buyer_only(self, params, grid_default):
        with pytest.raises(ValueError, match="quantity > 0"):
            solve_single_shock(params, Payoff("vanilla_call", STRIKE),
                               grid_default, [-1.0])

    def test_small_gamma_matches_quadrature(self):
        """Dual route at small risk aversion: the nonlinear march must land
        on the independent linear quadrature to first order."""
        small = make_params(gamma=1e-3)
        grid = GridSpec.build(small, STRIKE)
        surf = solve_single_shock(small, Payoff("digital_call", STRIKE), grid,
                                  [1.0])[0]
        for spot in SPOTS:
            ref = single_shock_memm_price(small, Payoff("digital_call", STRIKE),
                                          0.0, spot)
            assert surf.quote(spot) == pytest.approx(ref, abs=1e-4)

    def test_sandwiched_between_full_buyer_and_linear(self, params, indiff_solved,
                                                      single_shock_solved,
                                                      linear_solved):
        """Pricing only the first shock discards some risk but not all:
        full buyer <= single-shock buyer <= linear price (10 contracts)."""
        full, _ = indiff_solved("digital_call", 10.0)
        single = single_shock_solved("digital_call", 10.0)
        lin = linear_solved("MEMM", "digital_call")
        for spot in SPOTS:
            lo, mid, hi = full.quote(spot), single.quote(spot), lin.quote(spot)
            assert lo <= mid + 1e-9
            assert mid <= hi + 1e-9

    def test_intensity_exponent_cap(self):
        fast = make_params(nu10=800.0)
        grid = GridSpec.build(fast, STRIKE, n_time=300)
        with pytest.raises(NumericalError, match="exponent cap"):
            solve_single_shock(fast, Payoff("digital_call", STRIKE), grid,
                               [1.0])

    def test_risk_aversion_exponent_guard(self):
        hot = make_params(gamma=1e4)
        grid = GridSpec.build(hot, STRIKE, n_time=300)
        with pytest.raises(NumericalError, match="exponent guard"):
            solve_single_shock(hot, Payoff("digital_call", STRIKE), grid,
                               [1.0])


class TestRiskAversionSweep:
    """A risk-aversion sweep is a quantity stack at gamma = 1: gamma enters
    the march only through gamma_eff = quantity * gamma."""

    GAMMAS = [0.25, 0.5, 1.0, 2.0]

    def quotes(self, params, quantity):
        grid = GridSpec.build(params, STRIKE, n_time=300)
        stack = solve_indifference(replace(params, gamma=1.0),
                                   Payoff("vanilla_call", STRIKE), grid,
                                   [quantity * g for g in self.GAMMAS], keep=(0,))
        return [p.quote(STRIKE) for p, _ in stack]

    def test_buyer_monotone_decreasing(self, params):
        quotes = self.quotes(params, 1.0)
        assert all(b < a for a, b in zip(quotes, quotes[1:]))

    def test_writer_monotone_increasing(self, params):
        quotes = self.quotes(params, -1.0)
        assert all(b > a for a, b in zip(quotes, quotes[1:]))


class TestHedgeReport:
    def test_decomposition_sums_exactly(self, params, indiff_solved):
        payoff = Payoff("vanilla_call", STRIKE, 1.0)
        p, _ = indiff_solved("vanilla_call", 1.0)
        rep = hedge_report(params, payoff, p, 0.0, 10.0)
        assert not rep.low_confidence
        total = (rep.base_delta + rep.adjusted_ttm_spread
                 + rep.implied_ttm_spread + rep.smile_correction)
        assert total == pytest.approx(rep.indiff_delta, abs=1e-14)
        assert rep.merton_dollar_position == pytest.approx(
            params.mu0 / (params.sigma0 ** 2 * params.gamma), rel=1e-14)
        assert 0.0 < rep.implied_ttm_value < params.T

    def test_digital_reports_base_plus_residual(self, params, indiff_solved):
        payoff = Payoff("digital_call", STRIKE, 1.0)
        p, _ = indiff_solved("digital_call", 1.0)
        rep = hedge_report(params, payoff, p, 0.0, 10.0)
        assert math.isnan(rep.adjusted_ttm_spread)
        assert math.isnan(rep.implied_ttm_spread)
        assert math.isnan(rep.implied_ttm_value)
        assert rep.smile_correction == pytest.approx(
            rep.indiff_delta - rep.base_delta, abs=1e-14)

    def test_deep_in_the_money_flags_low_confidence(self, params, indiff_solved):
        """Deep in the money the residual time value (~1e-9 at S=58) falls
        below the liquidity-risk premium a 10-contract buyer demands, so the
        quote dips under intrinsic value and no implied clock exists; the
        report must degrade to base + residual and say so."""
        payoff = Payoff("vanilla_call", STRIKE, 10.0)
        p, _ = indiff_solved("vanilla_call", 10.0)
        assert p.quote(58.0) < 48.0  # below intrinsic: the trigger
        rep = hedge_report(params, payoff, p, 0.0, 58.0)
        assert rep.low_confidence
        assert math.isnan(rep.adjusted_ttm_spread)
        assert math.isnan(rep.implied_ttm_value)

    def test_no_shock_clock_spreads_vanish(self):
        quiet = make_params(nu01=0.0)
        grid = GridSpec.build(quiet, STRIKE, n_time=400)
        payoff = Payoff("vanilla_call", STRIKE, 1.0)
        p, _ = solve_buyer(quiet, payoff, grid)
        rep = hedge_report(quiet, payoff, p, 0.0, 10.0)
        assert rep.adjusted_ttm_spread == 0.0
        assert rep.implied_ttm_value == pytest.approx(quiet.T, abs=5e-3)
        assert abs(rep.implied_ttm_spread) < 1e-3
        assert abs(rep.smile_correction) < 1e-3

    @pytest.mark.parametrize("case", ["buyer_n10", "payoff_call", "payoff_put",
                                      "digital"])
    def test_array_equals_per_spot_reports(self, params, indiff_solved, case):
        """One sweep call returns, field by field, the 0-d reports of one
        call per spot, and NaN exactly where they hold NaN.  The n = 10
        buyer dips below intrinsic deep in the money (no implied clock:
        implied_ttm_value NaN); a surface equal to the payoff quotes exactly
        intrinsic out of the money (clock pinned at 0, low confidence); the
        digital carries base + residual only."""
        spots = np.array([2.0, 5.0, 8.0, 9.9, 10.0, 12.0, 20.0, 40.0, 58.0])
        if case == "buyer_n10":
            payoff = Payoff("vanilla_call", STRIKE, 10.0)
            surface, _ = indiff_solved("vanilla_call", 10.0)
        elif case == "digital":
            payoff = Payoff("digital_call", STRIKE, 1.0)
            surface, _ = indiff_solved("digital_call", 1.0)
        else:
            payoff = Payoff("vanilla_" + case[7:], STRIKE, 1.0)
            grid = GridSpec.build(params, STRIKE, n_time=200)
            values = np.tile(payoff.value(grid.spot_nodes()), (grid.n_time + 1, 1))
            surface = PriceSurface(values, grid, regime=0)
        sweep = hedge_report(params, payoff, surface, 0.0, spots)
        singles = [hedge_report(params, payoff, surface, 0.0, float(s))
                   for s in spots]
        for name in (f.name for f in fields(HedgeReport)):
            column = getattr(sweep, name)
            if name == "merton_dollar_position":
                assert all(column == getattr(r, name) for r in singles)
                continue
            assert column.shape == spots.shape
            assert all(getattr(r, name).shape == () for r in singles)
            assert np.array_equal(column, [getattr(r, name) for r in singles],
                                  equal_nan=column.dtype != bool), name
        assert not np.isnan(sweep.adjusted_delta).any()
        # The clock spreads exist exactly where both clocks are usable.
        missing = sweep.low_confidence | payoff.is_digital
        for spread in (sweep.adjusted_ttm_spread, sweep.implied_ttm_spread):
            assert np.array_equal(np.isnan(spread), missing)
        branches = set(zip(sweep.low_confidence.tolist(),
                           np.isnan(sweep.implied_ttm_value).tolist()))
        expected = {
            "buyer_n10": {(False, False), (True, True)},
            "payoff_call": {(False, False), (True, False), (True, True)},
            "payoff_put": {(False, False), (True, False)},
            "digital": {(False, True)},
        }[case]
        assert branches == expected

    @pytest.mark.parametrize("kind", ["vanilla_put", "digital_call"])
    def test_adjusted_delta_is_the_adjusted_clock_delta(self, params, kind):
        """adjusted_delta is the Black-Scholes delta on the expected-liquid
        clock of the surface's regime over T - t, at every spot."""
        payoff = Payoff(kind, STRIKE, 1.0)
        grid = GridSpec.build(params, STRIKE, n_time=200)
        values = np.tile(payoff.value(grid.spot_nodes()), (grid.n_time + 1, 1))
        spots = np.array([6.0, 10.0, 14.0])
        t = 10 * grid.delta_t
        for regime in (0, 1):
            surface = PriceSurface(values, grid, regime)
            rep = hedge_report(params, payoff, surface, t, spots)
            clock = adjusted_ttm(params, params.T - t, regime)
            expected = bs_greeks(payoff, clock, spots, params.sigma0).delta
            assert np.array_equal(rep.adjusted_delta, expected)

    def test_zero_adjusted_clock_leaves_base_and_residual(
            self, params, indiff_solved, monkeypatch):
        """Where the expected-liquid clock is 0 there is no adjusted delta
        and no clock spread: every spot is low confidence."""
        payoff = Payoff("vanilla_call", STRIKE, 1.0)
        p, _ = indiff_solved("vanilla_call", 1.0)
        monkeypatch.setattr("liqshock.bs.adjusted_ttm", lambda *args: 0.0)
        rep = hedge_report(params, payoff, p, 0.0, np.array(SPOTS))
        assert np.isnan(rep.adjusted_delta).all()
        assert rep.low_confidence.all()
        assert np.isnan(rep.adjusted_ttm_spread).all()
        assert np.isnan(rep.implied_ttm_spread).all()
        assert np.array_equal(rep.smile_correction,
                              rep.indiff_delta - rep.base_delta)

    def test_time_validated(self, params, indiff_solved):
        payoff = Payoff("vanilla_call", STRIKE, 1.0)
        p, _ = indiff_solved("vanilla_call", 1.0)
        with pytest.raises(ValueError):
            hedge_report(params, payoff, p, params.T, 10.0)

    def test_array_time_refused_by_name(self, params, indiff_solved):
        payoff = Payoff("vanilla_call", STRIKE, 1.0)
        p, _ = indiff_solved("vanilla_call", 1.0)
        with pytest.raises(ValueError, match=re.escape(
                "t must be a scalar, got an array of shape (2,)")):
            hedge_report(params, payoff, p, np.array([0.0, 0.5]), 10.0)


def test_sandwich_holds_at_the_gamma_eff_floor(params):
    """At |gamma_eff| = 1e-6, the smallest a march accepts, buyer and writer
    still bracket the MEMM price, and each matches p0 +- 1e-6 p1 far inside
    the spread: the rounding of the 1/gamma_eff terms stays small."""
    unit_gamma = replace(params, gamma=1.0)
    grid = GridSpec.build(unit_gamma, STRIKE, n_time=300)
    unit = Payoff("vanilla_call", STRIKE)
    g = 1e-6
    (buyer, _), (writer, _) = solve_indifference(unit_gamma, unit, grid,
                                                 [g, -g], keep=(0,))
    bundle = mmm_and_expansion(unit_gamma, unit, grid, keep=(0,))[1]
    spots = np.array(SPOTS)
    memm = bundle.p0.quote(spots)
    assert np.all(buyer.quote(spots) < memm)
    assert np.all(memm < writer.quote(spots))
    for surf, g_eff in ((buyer, g), (writer, -g)):
        err = np.abs(surf.quote(spots) - bundle.first_order_quote(spots, g_eff))
        assert np.all(err < 1e-10)


@settings(max_examples=15, deadline=None)
@given(mu0=st.floats(-0.3, 0.3), sigma0=st.floats(0.15, 0.6),
       nu01=st.floats(0.05, 3.0), nu10=st.floats(1.0, 20.0),
       gamma=st.floats(0.1, 3.0), T=st.floats(0.25, 2.0))
def test_buyer_linear_writer_sandwich(mu0, sigma0, nu01, nu10, gamma, T):
    """Random parameters: buyer indifference <= MEMM linear <= writer
    indifference at the strike (risk aversion only widens the spread)."""
    p = ModelParams(mu0=mu0, sigma0=sigma0, nu01=nu01, nu10=nu10,
                    gamma=gamma, T=T)
    grid = GridSpec.build(p, STRIKE, n_time=100)
    buyer, _ = solve_buyer(p, Payoff("vanilla_call", STRIKE, 1.0), grid)
    writer, _ = solve_writer(p, Payoff("vanilla_call", STRIKE, -1.0), grid)
    linear = linear_price(p, Payoff("vanilla_call", STRIKE), "MEMM", grid)
    b, e, w = buyer.quote(STRIKE), linear.quote(STRIKE), writer.quote(STRIKE)
    assert b <= e + 1e-8
    assert e <= w + 1e-8
