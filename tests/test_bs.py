"""Black-Scholes engine: prices, greeks, effective-maturity machinery.

Prices are checked against direct lognormal-density quadrature, greeks
against finite differences, the adjusted time-to-maturity against the
occupation-time oracle, and the implied time-to-maturity as the inverse
of the pricing map.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from liqshock import (
    ModelParams,
    Payoff,
    adjusted_ttm,
    bs_greeks,
    bs_price,
    implied_ttm,
)
from liqshock.bs import _BS_BLOCK
from oracle_occupation import occupation_mean

SIGMA = 0.3


def lognormal_quadrature_price(payoff: Payoff, ttm: float, spot: float,
                               sigma: float) -> float:
    """Direct integration of h against the driftless lognormal density."""
    sd = sigma * math.sqrt(ttm)

    def integrand(x: float) -> float:
        s_t = spot * math.exp(-0.5 * sd * sd + sd * x)
        return float(payoff.value(s_t)) * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

    # The payoff has a kink (vanilla) or jump (digital) where s_t crosses
    # the strike; tell the integrator where it is.
    x_star = (math.log(payoff.strike / spot) + 0.5 * sd * sd) / sd
    pts = [x_star] if -10.0 < x_star < 10.0 else None
    val, _ = quad(integrand, -10.0, 10.0, limit=200, epsabs=1e-13, points=pts)
    return val


class TestBsPrice:
    @pytest.mark.parametrize("kind", ["vanilla_call", "vanilla_put",
                                      "digital_call", "digital_put"])
    @pytest.mark.parametrize("spot", [8.0, 10.0, 12.0])
    def test_matches_lognormal_quadrature(self, kind, spot):
        payoff = Payoff(kind, 10.0)
        ref = lognormal_quadrature_price(payoff, 1.0, spot, SIGMA)
        assert float(bs_price(payoff, 1.0, spot, SIGMA)) == pytest.approx(
            ref, abs=1e-10)

    def test_zero_ttm_is_payoff(self):
        payoff = Payoff("vanilla_call", 10.0)
        assert float(bs_price(payoff, 0.0, 12.0, SIGMA)) == 2.0
        assert float(bs_price(Payoff("digital_call", 10.0), 0.0, 8.0, SIGMA)) == 0.0

    def test_broadcasting(self):
        payoff = Payoff("vanilla_call", 10.0)
        ttm = np.array([0.5, 1.0])[:, None]
        spot = np.array([8.0, 10.0, 12.0])[None, :]
        out = np.asarray(bs_price(payoff, ttm, spot, SIGMA))
        assert out.shape == (2, 3)
        assert out[1, 2] == pytest.approx(float(bs_price(payoff, 1.0, 12.0, SIGMA)))

    def test_blocked_broadcast_equals_row_calls(self):
        """A broadcast larger than one block is evaluated in row blocks,
        bit for bit as each row alone."""
        payoff = Payoff("digital_call", 10.0)
        ttm = np.linspace(0.0, 1.0, 41)[:, None]
        spot = np.linspace(5.0, 15.0, 401)
        assert ttm.size * spot.size > _BS_BLOCK
        out = bs_price(payoff, ttm, spot, SIGMA)
        rows = np.array([bs_price(payoff, t, spot, SIGMA) for t in ttm[:, 0]])
        assert np.array_equal(out, rows)

    @pytest.mark.parametrize("shape", [(), (1,), (0,), (3, 0)])
    def test_only_a_0d_broadcast_returns_a_float(self, shape):
        payoff = Payoff("vanilla_call", 10.0)
        out = bs_price(payoff, np.ones(shape), 10.0, SIGMA)
        if shape:
            assert isinstance(out, np.ndarray) and out.shape == shape
        else:
            assert type(out) is float
            assert out == bs_price(payoff, np.ones(1), 10.0, SIGMA)[0]

    def test_put_call_parity(self):
        call = Payoff("vanilla_call", 10.0)
        put = Payoff("vanilla_put", 10.0)
        for s in (7.0, 10.0, 14.0):
            lhs = float(bs_price(call, 0.8, s, SIGMA)) - float(bs_price(put, 0.8, s, SIGMA))
            assert lhs == pytest.approx(s - 10.0, abs=1e-12)

    def test_digital_pair_sums_to_one(self):
        dc = Payoff("digital_call", 10.0)
        dp = Payoff("digital_put", 10.0)
        total = float(bs_price(dc, 0.6, 9.0, SIGMA)) + float(bs_price(dp, 0.6, 9.0, SIGMA))
        assert total == pytest.approx(1.0, abs=1e-13)


class TestBsGreeks:
    @pytest.mark.parametrize("kind,spot", [
        ("vanilla_call", 9.0), ("vanilla_call", 11.0),
        ("digital_call", 10.5), ("vanilla_put", 10.0),
    ])
    def test_greeks_match_finite_differences(self, kind, spot):
        payoff = Payoff(kind, 10.0)
        q = bs_greeks(payoff, 1.0, spot, SIGMA)
        eps = 1e-5
        d_fd = (float(bs_price(payoff, 1.0, spot + eps, SIGMA))
                - float(bs_price(payoff, 1.0, spot - eps, SIGMA))) / (2 * eps)
        t_fd = (float(bs_price(payoff, 1.0 + eps, spot, SIGMA))
                - float(bs_price(payoff, 1.0 - eps, spot, SIGMA))) / (2 * eps)
        assert q.price == pytest.approx(float(bs_price(payoff, 1.0, spot, SIGMA)))
        assert q.delta == pytest.approx(d_fd, abs=1e-8)
        assert q.theta_ttm == pytest.approx(t_fd, abs=1e-8)

    def test_nonpositive_ttm_rejected(self):
        with pytest.raises(ValueError):
            bs_greeks(Payoff("vanilla_call", 10.0), 0.0, 10.0, SIGMA)

    @pytest.mark.parametrize("kind", ["vanilla_call", "vanilla_put",
                                      "digital_call", "digital_put"])
    def test_price_equals_bs_price_bitwise(self, kind):
        """bs_greeks and bs_price share one formula: equal bit for bit on a
        (ttm, spot) grid reaching deep in and out of the money."""
        payoff = Payoff(kind, 10.0)
        ttm = np.array([1e-6, 1e-3, 0.05, 0.5, 1.0, 3.0, 25.0])[:, None]
        spot = np.array([0.5, 2.0, 7.0, 9.99, 10.0, 10.01, 13.0, 40.0, 500.0])[None, :]
        assert np.array_equal(bs_greeks(payoff, ttm, spot, SIGMA).price,
                              bs_price(payoff, ttm, spot, SIGMA))


@pytest.mark.parametrize("fn", [bs_price, bs_greeks])
@pytest.mark.parametrize("name", ["ttm", "spot"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("shape", [(), (2, 3)])
def test_non_finite_input_refused_by_value(fn, name, bad, shape):
    """A NaN or infinite ttm or spot raises ValueError naming the input
    and its first offending value, whether it stands alone or sits inside
    an array whose other entries are valid."""
    args = {"ttm": np.full(shape, 0.5), "spot": np.full(shape, 10.0)}
    args[name].flat[-1] = bad
    with pytest.raises(ValueError, match=rf"{name} .*got {bad}$"):
        fn(Payoff("vanilla_call", 10.0), args["ttm"], args["spot"], SIGMA)


class TestAdjustedTtm:
    def make(self, **kw) -> ModelParams:
        base = dict(mu0=0.06, sigma0=0.3, nu01=1.0, nu10=12.0, gamma=1.0, T=1.0)
        base.update(kw)
        return ModelParams(**base)

    def test_liquid_start_closed_form_value(self):
        assert adjusted_ttm(self.make(), 1.0, 0) == pytest.approx(
            0.9289940694655064, rel=1e-14)

    def test_shock_start_closed_form_value(self):
        assert adjusted_ttm(self.make(), 1.0, 1) == pytest.approx(
            0.8520711664139224, rel=1e-14)

    def test_matches_occupation_oracle(self):
        """Liquid start: the adjusted maturity is the expected liquid time,
        recovered independently by quadrature of the occupation density."""
        p = self.make()
        ref = occupation_mean(p.nu01, p.nu10, 1.0)
        assert adjusted_ttm(p, 1.0, 0) == pytest.approx(ref, rel=1e-10)
        shorter = occupation_mean(p.nu01, p.nu10, 0.35)
        assert adjusted_ttm(p, 0.35, 0) == pytest.approx(shorter, rel=1e-10)

    def test_no_shock_degenerates_to_horizon(self):
        p = self.make(nu01=0.0)
        assert adjusted_ttm(p, 0.7, 0) == pytest.approx(0.7, rel=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    @pytest.mark.parametrize("shape", [(), (2, 3)])
    def test_bad_horizon_refused_by_value(self, bad, shape):
        """A NaN, infinite or negative horizon raises ValueError naming its
        first offending value (NaN and inf used to return nan and inf)."""
        horizon = np.full(shape, 0.5)
        horizon.flat[-1] = bad
        with pytest.raises(ValueError, match=rf"horizon .*got {bad}$"):
            adjusted_ttm(self.make(), horizon, 1)

    @settings(max_examples=60, deadline=None)
    @given(nu01=st.floats(0.05, 5.0), nu10=st.floats(0.5, 20.0),
           horizon=st.floats(0.05, 3.0))
    def test_ordering_property(self, nu01, nu10, horizon):
        """0 < shock-start < liquid-start < horizon whenever shocks are
        possible: frozen time is lost time."""
        p = self.make(nu01=nu01, nu10=nu10, T=horizon)
        t0 = adjusted_ttm(p, horizon, 0)
        t1 = adjusted_ttm(p, horizon, 1)
        assert 0.0 < t1 < t0 < horizon


class TestImpliedTtm:
    def test_round_trip_identity(self):
        payoff = Payoff("vanilla_call", 10.0)
        for tau in (0.02, 0.3, 1.0, 4.0):
            target = float(bs_price(payoff, tau, 10.5, SIGMA))
            out = implied_ttm(payoff, 10.5, target, SIGMA, horizon=1.0)
            assert out.ttm == pytest.approx(tau, abs=1e-9)
            assert not out.low_confidence

    def test_digital_rejected(self):
        with pytest.raises(ValueError, match="vanilla"):
            implied_ttm(Payoff("digital_call", 10.0), 10.0, 0.4, SIGMA, 1.0)

    def test_below_intrinsic_rejected(self):
        """No maturity reproduces a price below intrinsic value: the
        element carries the cause and no clock, and nothing is raised."""
        payoff = Payoff("vanilla_call", 10.0)
        out = implied_ttm(payoff, 12.0, 1.99, SIGMA, 1.0)
        assert out.ttm.shape == out.failure.shape == ()
        assert out.failure[()] == "target price 1.99 is below intrinsic value 2.0"
        assert math.isnan(out.ttm)
        assert not out.low_confidence

    def test_pinned_at_intrinsic_flags_low_confidence(self):
        """An ITM price exactly at intrinsic has TTM 0 but no resolution:
        the result must say so instead of failing."""
        payoff = Payoff("vanilla_call", 10.0)
        out = implied_ttm(payoff, 12.0, 2.0, SIGMA, 1.0)
        assert out.ttm == pytest.approx(0.0, abs=1e-9)
        assert out.low_confidence

    @pytest.mark.parametrize("kind", ["vanilla_call", "vanilla_put"])
    def test_array_equals_scalar_calls(self, kind):
        """One array call reproduces each element's scalar (0-d) call
        exactly: the same ttm, flag and failure text under ==,
        and ttm = nan for an element without a positive-maturity
        solution."""
        payoff = Payoff(kind, 10.0)
        spots, targets, horizons = [], [], []
        for spot in (6.0, 9.5, 10.0, 10.5, 14.0):
            for horizon in (0.25, 1.0):
                intrinsic = float(payoff.value(spot))
                top = float(bs_price(payoff, 10.0 * horizon, spot, SIGMA))
                for target in (float(bs_price(payoff, 0.3 * horizon, spot, SIGMA)),
                               float(bs_price(payoff, 7.0 * horizon, spot, SIGMA)),
                               intrinsic, intrinsic + 5e-11,  # pinned at intrinsic
                               intrinsic - 1e-3,              # below intrinsic
                               top + 1e-3):                   # above the bracket
                    spots.append(spot)
                    targets.append(target)
                    horizons.append(horizon)
        out = implied_ttm(payoff, np.array(spots), np.array(targets), SIGMA,
                          np.array(horizons))
        assert out.ttm.shape == (len(spots),)
        outcomes = set()
        for k, (spot, target, horizon) in enumerate(zip(spots, targets, horizons)):
            ref = implied_ttm(payoff, spot, target, SIGMA, horizon)
            assert ref.ttm.shape == ref.failure.shape == ()
            failure = ref.failure[()]
            assert out.failure[k] == failure
            if failure:
                outcomes.add("below" if "below intrinsic" in failure else "exceeds")
                assert math.isnan(out.ttm[k]) and math.isnan(ref.ttm)
                assert not out.low_confidence[k] and not ref.low_confidence
                continue
            outcomes.add("pinned" if ref.ttm == 0.0 else "solved")
            assert out.ttm[k] == ref.ttm
            assert out.low_confidence[k] == ref.low_confidence
        assert outcomes == {"solved", "pinned", "below", "exceeds"}

    def test_broadcasts_over_spot_and_horizon(self):
        payoff = Payoff("vanilla_call", 10.0)
        spots = np.array([[9.0], [11.0]])
        horizons = np.array([0.5, 1.0, 2.0])
        target = float(bs_price(payoff, 0.4, 11.0, SIGMA))
        out = implied_ttm(payoff, spots, target, SIGMA, horizons)
        assert out.ttm.shape == out.failure.shape == (2, 3)
        assert out.ttm[1, 0] == implied_ttm(payoff, 11.0, target, SIGMA, 0.5).ttm
        assert out.ttm[1, 2] == pytest.approx(0.4, abs=1e-9)
