"""Model layer: parameters, discount factors, intensity curves.

The closed-form discount factors are checked against an independent
matrix-exponential oracle for the underlying linear ODE systems, and the
characteristic roots against their defining quadratic.
"""

from __future__ import annotations

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from liqshock import (
    MEASURES,
    PAYOFF_KINDS,
    ModelParams,
    NumericalError,
    Payoff,
    intensity_curve,
    merton_factors,
    single_shock_factors,
)

TABLE_PARAMS = dict(mu0=0.06, sigma0=0.3, nu01=1.0, nu10=12.0, gamma=1.0, T=1.0)


def make_params(**overrides) -> ModelParams:
    kw = dict(TABLE_PARAMS)
    kw.update(overrides)
    return ModelParams(**kw)


# A moderate, resonance-free parameter box for property tests.
param_strategy = st.builds(
    make_params,
    mu0=st.floats(-0.5, 0.5),
    sigma0=st.floats(0.05, 1.0),
    nu01=st.floats(0.01, 5.0),
    nu10=st.floats(0.5, 20.0),
    T=st.floats(0.1, 3.0),
)


# Corners of the benchmark's parameter box (T = 1, gamma does not enter).
BOX_CORNERS = [dict(sigma0=s, nu01=a, nu10=b, mu0=m)
               for s in (0.2, 0.4) for a in (0.5, 2.0) for b in (6.0, 24.0)
               for m in (0.03, 0.09)]


def separate_factors(fac, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F0 and F1 as two separate closed forms, each evaluating its own
    exponentials."""
    tau = fac.T - t
    d0, nu01, nu10, l1, l2 = fac.d0, fac.nu01, fac.nu10, fac.lambda1, fac.lambda2
    if nu01 == 0.0:
        delta = nu10 - d0
        ratio = tau + 0.0 if delta == 0.0 else -np.expm1(-delta * tau) / delta
        return np.exp(-d0 * tau), np.exp(-d0 * tau) * (1.0 + d0 * ratio)
    a1 = (l2 - d0) / (l2 - l1)
    a2 = (l1 - d0) / (l1 - l2)
    w1 = a1 * (d0 + nu01 - l1) / nu01
    w2 = a2 * (d0 + nu01 - l2) / nu01
    return (a1 * np.exp(-l1 * tau) + a2 * np.exp(-l2 * tau),
            w1 * np.exp(-l1 * tau) + w2 * np.exp(-l2 * tau))


class TestModelParams:
    def test_d0_value(self):
        # d0 = mu0^2 / (2 sigma0^2) = 0.0036 / 0.18
        assert make_params().d0 == pytest.approx(0.02, abs=1e-15)

    @pytest.mark.parametrize("mu0", [2.7549906184682247e-162, -1e-160, 1e-156])
    def test_subnormal_d0_flushed_to_zero(self, mu0):
        """A d0 below the smallest normal double reads 0, so the roots keep
        their ordering: lambda2 = 0 and lambda1 = nu01 + nu10."""
        p = make_params(mu0=mu0, sigma0=1.0, nu01=0.5, nu10=1.0)
        assert p.d0 == 0.0
        fac = merton_factors(p)
        assert (fac.lambda1, fac.lambda2) == (1.5, 0.0)

    def test_smallest_normal_d0_kept(self):
        p = make_params(mu0=math.sqrt(2.0 * sys.float_info.min) * 2.0, sigma0=1.0)
        assert p.d0 >= sys.float_info.min
        fac = merton_factors(p)
        assert 0.0 < fac.lambda2 < p.d0 < fac.lambda1

    @pytest.mark.parametrize("field,value", [
        ("sigma0", 0.0), ("sigma0", -0.1), ("nu01", -1.0), ("nu10", 0.0),
        ("gamma", 0.0), ("gamma", -2.0), ("T", 0.0), ("mu0", float("nan")),
        ("T", float("inf")),
    ])
    def test_invalid_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_params(**{field: value})

    @pytest.mark.parametrize("kw", [dict(nu10=1e160), dict(nu01=1e160),
                                    dict(mu0=1e160), dict(sigma0=1e-160),
                                    dict(sigma0=1e-200)])
    def test_unrepresentable_root_sum_rejected(self, kw):
        """The factors' roots need (d0 + nu01 + nu10)^2 in double precision;
        beyond it the parameters are refused by name, before any warning."""
        with pytest.raises(ValueError, match="mu0, sigma0, nu01, nu10"):
            make_params(**kw)
        make_params(nu10=1e150)


class TestPayoff:
    def test_kinds_and_values(self):
        s = np.array([8.0, 10.0, 12.0])
        assert np.array_equal(Payoff("vanilla_call", 10.0).value(s), [0.0, 0.0, 2.0])
        assert np.array_equal(Payoff("vanilla_put", 10.0).value(s), [2.0, 0.0, 0.0])
        # digitals pay on strict inequality: h(K) = 0
        assert np.array_equal(Payoff("digital_call", 10.0).value(s), [0.0, 0.0, 1.0])
        assert np.array_equal(Payoff("digital_put", 10.0).value(s), [1.0, 0.0, 0.0])

    def test_scalar_evaluation_returns_float(self):
        out = Payoff("vanilla_call", 10.0).value(11.5)
        assert isinstance(out, float) and out == 1.5

    def test_is_digital(self):
        assert Payoff("digital_put", 10.0).is_digital
        assert not Payoff("vanilla_call", 10.0).is_digital

    def test_invalid_payoffs_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Payoff("straddle", 10.0)
        with pytest.raises(ValueError, match="strike"):
            Payoff("vanilla_call", 0.0)
        with pytest.raises(ValueError, match="quantity"):
            Payoff("vanilla_call", 10.0, 0.0)

    def test_registry_constants(self):
        assert set(PAYOFF_KINDS) == {
            "vanilla_call", "vanilla_put", "digital_call", "digital_put"}
        assert set(MEASURES) == {"MMM", "MEMM", "MEMM_single_shock"}


class TestMertonFactors:
    def test_characteristic_roots(self):
        """Both reported roots satisfy l^2 - (d0+nu01+nu10) l + d0 nu10 = 0
        and straddle d0."""
        p = make_params()
        fac = merton_factors(p)
        s = p.d0 + p.nu01 + p.nu10
        prod = p.d0 * p.nu10
        for lam in (fac.lambda1, fac.lambda2):
            assert abs(lam * lam - s * lam + prod) < 1e-12 * max(1.0, s * s)
        assert 0.0 < fac.lambda2 < p.d0 < fac.lambda1
        # product form keeps the small root accurate
        assert fac.lambda2 == pytest.approx(prod / fac.lambda1, rel=1e-15)

    def test_factors_match_matrix_exponential(self):
        """(F0, F1)(T - tau) solves dF/dtau = A F, F(0) = (1, 1), with
        A = [[-(d0+nu01), nu01], [nu10, -nu10]]; expm is the oracle."""
        p = make_params()
        fac = merton_factors(p)
        A = np.array([[-(p.d0 + p.nu01), p.nu01], [p.nu10, -p.nu10]])
        for tau in (0.0, 0.17, 0.5, 1.0):
            ref = expm(A * tau) @ np.array([1.0, 1.0])
            t = p.T - tau
            assert fac.F0(t) == pytest.approx(ref[0], rel=1e-12)
            assert fac.F1(t) == pytest.approx(ref[1], rel=1e-12)

    def test_terminal_values_and_ratio(self):
        p = make_params()
        fac = merton_factors(p)
        assert fac.F0(p.T) == pytest.approx(1.0, abs=1e-14)
        assert fac.F1(p.T) == pytest.approx(1.0, abs=1e-14)
        # fixed point of the valuation system: shocked regime discounts less
        assert fac.F1(0.0) / fac.F0(0.0) == pytest.approx(
            1.0015406456411529, rel=1e-12)

    def test_no_shock_branch(self):
        """nu01 = 0 degenerates to pure discounting of the liquid regime."""
        p = make_params(nu01=0.0)
        fac = merton_factors(p)
        for t in (0.0, 0.4, 1.0):
            assert fac.F0(t) == pytest.approx(math.exp(-p.d0 * (p.T - t)),
                                              rel=1e-13)
        # matrix oracle still applies
        A = np.array([[-p.d0, 0.0], [p.nu10, -p.nu10]])
        ref = expm(A * p.T) @ np.array([1.0, 1.0])
        assert fac.F0(0.0) == pytest.approx(ref[0], rel=1e-12)
        assert fac.F1(0.0) == pytest.approx(ref[1], rel=1e-12)

    @pytest.mark.parametrize("kw", [
        dict(nu01=1e-18), dict(nu01=1e-300), dict(nu01=5e-324),
        dict(mu0=1e8), dict(mu0=1e10), dict(mu0=0.6, nu10=2.0, nu01=1e-300)],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_unrepresentable_factors_refused(self, kw):
        """Where F0 or F1 is not finite and positive at t = 0 or T in
        double precision, building the factors (and so the MEMM curve) is
        a NumericalError naming d0, nu01 and nu10: F1's weights cancel to
        0 at a tiny nu01, both factors reach 0 or turn negative at a huge
        d0, and at d0 = nu10 a tiny nu01 leaves a repeated root."""
        p = make_params(**kw)
        for build in (merton_factors, lambda p: intensity_curve(p, "MEMM")):
            with pytest.raises(NumericalError,
                               match=re.escape(f"d0={p.d0}, nu01={p.nu01}, nu10=")):
                build(p)

    @pytest.mark.parametrize("kw", BOX_CORNERS + [
        dict(nu01=0.0), dict(mu0=0.0), dict(nu01=0.0, mu0=0.0)],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_memm_intensities_share_exponentials_exactly(self, kw):
        """F0 and F1 computed from one shared pair of exponentials equal
        their separate closed forms bit for bit."""
        p = make_params(**kw)
        fac = merton_factors(p)
        t = np.linspace(0.0, p.T, 2001)
        f0, f1 = separate_factors(fac, t)
        assert np.array_equal(fac.F0(t), f0)
        assert np.array_equal(fac.F1(t), f1)

    @pytest.mark.parametrize("kw", BOX_CORNERS + [
        dict(nu01=0.0), dict(mu0=0.0), dict(nu01=0.0, mu0=0.0)],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_memm_curve_ratios_match_the_shared_tilt(self, kw):
        """The MEMM curve's nu01(t) and nu10(t), each formed alone, equal
        the tilt nu01 F1/F0, nu10 F0/F1 of one shared pair of exponentials
        bit for bit."""
        p = make_params(**kw)
        t = np.linspace(0.0, p.T, 2001)
        f0, f1 = merton_factors(p)._factors(t)
        curve = intensity_curve(p, "MEMM")
        assert np.array_equal(curve.nu01(t), p.nu01 * f1 / f0)
        assert np.array_equal(curve.nu10(t), p.nu10 * f0 / f1)

    @settings(max_examples=60, deadline=None)
    @given(param_strategy)
    def test_ordering_property(self, p):
        """F1 >= F0 >= F2 on [0, T), all in (0, 1]; roots straddle d0."""
        fac = merton_factors(p)
        ts = np.linspace(0.0, p.T, 7)[:-1]
        f0, f1, f2 = fac.F0(ts), fac.F1(ts), fac.F2(ts)
        assert np.all(f1 >= f0 - 1e-12) and np.all(f0 >= f2 - 1e-12)
        for arr in (f0, f1, f2):
            assert np.all(arr > 0.0) and np.all(arr <= 1.0 + 1e-12)
        if p.d0 > 0 and p.nu01 > 0:
            assert fac.lambda2 < p.d0 < fac.lambda1


class TestSingleShockFactors:
    def test_factors_match_matrix_exponential(self):
        """Three-state chain (liquid, shocked, absorbed-liquid): the
        closed forms solve dF/dtau = A F from F(0) = (1, 1, 1)."""
        p = make_params()
        fac = single_shock_factors(p)
        A = np.array([
            [-(p.d0 + p.nu01), p.nu01, 0.0],
            [0.0, -p.nu10, p.nu10],
            [0.0, 0.0, -p.d0],
        ])
        for tau in (0.05, 0.3, 1.0):
            ref = expm(A * tau) @ np.ones(3)
            t = p.T - tau
            assert fac.F0(t) == pytest.approx(ref[0], rel=1e-12)
            assert fac.F1(t) == pytest.approx(ref[1], rel=1e-12)
            assert fac.F2(t) == pytest.approx(ref[2], rel=1e-12)

    def test_resonant_parameters_rejected(self):
        # nu10 == d0
        with pytest.raises(ValueError, match="resonant"):
            single_shock_factors(make_params(mu0=0.3 * math.sqrt(24.0),
                                             nu10=12.0))
        # d0 + nu01 == nu10
        with pytest.raises(ValueError, match="resonant"):
            single_shock_factors(make_params(nu01=11.98))


class TestIntensityCurves:
    def test_mmm_is_constant(self):
        p = make_params()
        c = intensity_curve(p, "MMM")
        ts = np.linspace(0.0, p.T, 5)
        assert np.allclose(c.nu01(ts), p.nu01)
        assert np.allclose(c.nu10(ts), p.nu10)

    def test_memm_tilt_direction_and_terminal_value(self):
        """The tilted chain is more shock-prone: nu01 is scaled up by
        F1/F0 >= 1 and nu10 down by F0/F1, meeting the constants at T."""
        p = make_params()
        fac = merton_factors(p)
        c = intensity_curve(p, "MEMM")
        ts = np.linspace(0.0, p.T, 9)
        assert np.all(np.asarray(c.nu01(ts)) >= p.nu01 - 1e-12)
        assert np.all(np.asarray(c.nu10(ts)) <= p.nu10 + 1e-10)
        assert c.nu01(p.T) == pytest.approx(p.nu01, rel=1e-12)
        assert c.nu01(0.3) == pytest.approx(
            p.nu01 * fac.F1(0.3) / fac.F0(0.3), rel=1e-14)
        # detailed-balance of the tilt: the product of intensities is kept
        assert c.nu01(0.3) * c.nu10(0.3) == pytest.approx(
            p.nu01 * p.nu10, rel=1e-12)

    def test_bounds_dominate_curves(self):
        p = make_params()
        for measure in MEASURES:
            c = intensity_curve(p, measure)
            ts = np.linspace(0.0, p.T, 501)
            assert np.max(np.asarray(c.nu01(ts))) <= c.bound01 + 1e-15
            assert np.max(np.asarray(c.nu10(ts))) <= c.bound10 + 1e-15

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError, match="measure"):
            intensity_curve(make_params(), "Q-forward")

