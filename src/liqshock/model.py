"""Market model primitives.

Two-regime market: regime 0 is liquid (the asset follows a geometric
Brownian motion with drift mu0 and volatility sigma0), regime 1 is a
liquidity shock (trading halts and the price is frozen).  The regime is a
continuous-time Markov chain with switch intensities nu01 (into the shock)
and nu10 (out of it).  Interest rates are zero.

The exponential-utility valuation of regime risk is carried by a pair of
discount factors (F0, F1) solving the terminal-value system

    F'(t) = (D - A) F(t),   F(T) = (1, 1),

with D = diag(d0, 0), d0 = mu0^2 / (2 sigma0^2), and A the chain generator.
F2(t) = exp(-d0 (T - t)) is the no-switching factor.  The minimal entropy
martingale measure (MEMM) tilts the intensities by the ratio of these
factors; the minimal martingale measure (MMM) keeps them unchanged.

A single-shock variant makes the first recovery absorbing: states
(0: liquid pre-shock, 1: in shock, 2: liquid post-shock, absorbing), with
discount factors (F0c, F1c, F2c) solving the analogous 3-state system.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError

__all__ = [
    "ModelParams",
    "Payoff",
    "MertonFactors",
    "SingleShockFactors",
    "IntensityCurve",
    "merton_factors",
    "single_shock_factors",
    "intensity_curve",
]

PAYOFF_KINDS = ("vanilla_call", "vanilla_put", "digital_call", "digital_put")
MEASURES = ("MMM", "MEMM", "MEMM_single_shock")

# Uniform samples used to bound an intensity curve from above, and the
# safety factor applied to the sampled maximum (curves are smooth and slowly
# varying, so a 0.1% headroom over 2001 samples is a true upper bound).
_BOUND_SAMPLES = 2001
_BOUND_SAFETY = 1.001


@dataclass(frozen=True)
class ModelParams:
    """Market parameters.

    mu0, sigma0 : drift and volatility of the asset in the liquid regime
    nu01, nu10  : shock arrival and recovery intensities (nu01 >= 0, nu10 > 0)
    gamma       : absolute risk aversion of the exponential utility (> 0)
    T           : horizon in years (> 0)
    """

    mu0: float
    sigma0: float
    nu01: float
    nu10: float
    gamma: float
    T: float

    def __post_init__(self) -> None:
        for name in ("mu0", "sigma0", "nu01", "nu10", "gamma", "T"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.sigma0 <= 0.0:
            raise ValueError(f"sigma0 must be > 0, got {self.sigma0}")
        if self.nu01 < 0.0:
            raise ValueError(f"nu01 must be >= 0, got {self.nu01}")
        if self.nu10 <= 0.0:
            raise ValueError(f"nu10 must be > 0, got {self.nu10}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.T <= 0.0:
            raise ValueError(f"T must be > 0, got {self.T}")
        # The discount factors' roots solve l^2 - (d0 + nu01 + nu10) l + d0 nu10.
        try:
            s = self.d0 + self.nu01 + self.nu10
        except ZeroDivisionError:           # sigma0^2 underflows to 0
            s = math.inf
        if not math.isfinite(s * s):
            raise ValueError(
                "mu0, sigma0, nu01, nu10 out of range: (d0 + nu01 + nu10)^2 "
                "with d0 = mu0^2 / (2 sigma0^2) is not finite in double precision")

    @property
    def d0(self) -> float:
        """Half squared Sharpe ratio of the liquid regime, mu0^2/(2 sigma0^2).

        A subnormal value is flushed to 0.  Every factor e^{-d0 tau} is
        exactly 1 there, and no double lies strictly between 0 and the
        smallest subnormal, so the ordering 0 < lambda2 < d0 of the discount
        factors' roots could not hold."""
        d0 = self.mu0 * self.mu0 / (2.0 * self.sigma0 * self.sigma0)
        return d0 if d0 >= sys.float_info.min else 0.0


@dataclass(frozen=True)
class Payoff:
    """European payoff specification.

    ``value`` returns the per-contract payoff h(S); ``quantity`` (n > 0 for a
    buyer position, n < 0 for a writer) is consumed by the indifference
    solvers, which scale risk aversion rather than the payoff.  Digitals pay
    on strict inequality, so h(strike) = 0 for both digital kinds.
    """

    kind: str
    strike: float
    quantity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in PAYOFF_KINDS:
            raise ValueError(f"kind must be one of {PAYOFF_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.strike) and self.strike > 0.0):
            raise ValueError(f"strike must be positive and finite, got {self.strike}")
        if not math.isfinite(self.quantity) or self.quantity == 0.0:
            raise ValueError(f"quantity must be finite and nonzero, got {self.quantity}")

    @property
    def is_digital(self) -> bool:
        return self.kind in ("digital_call", "digital_put")

    def value(self, spot: np.ndarray) -> np.ndarray:
        """Per-contract payoff h(S), vectorized over ``spot``."""
        s = np.asarray(spot, dtype=float)
        k = self.strike
        if self.kind == "vanilla_call":
            return np.maximum(s - k, 0.0)
        if self.kind == "vanilla_put":
            return np.maximum(k - s, 0.0)
        if self.kind == "digital_call":
            return np.where(s > k, 1.0, 0.0)
        return np.where(s < k, 1.0, 0.0)  # digital_put


def _stable_roots(s: float, p: float) -> tuple[float, float]:
    """Roots of x^2 - s x + p = 0 with s, p >= 0 and s^2 >= 4p, computed
    without subtractive cancellation in the small root."""
    disc = s * s - 4.0 * p
    if disc < 0.0:
        # Guard against rounding pushing a true zero slightly negative.
        disc = 0.0
    big = 0.5 * (s + math.sqrt(disc))
    small = p / big if big > 0.0 else 0.0
    return big, small


@dataclass(frozen=True)
class _Factors:
    """Discount factors of one regime chain, evaluated in time to maturity.

    A chain defines ``_factors(t)``, the tuple (F0(t), F1(t), ...) from one
    set of exponentials, vectorized over t; ``F0`` and ``F1`` read it.
    ``F2(t) = e^{-d0 (T-t)}`` is the no-switching factor of every chain.
    """

    d0: float
    nu01: float
    nu10: float
    T: float

    def F0(self, t: np.ndarray) -> np.ndarray:
        return self._factors(t)[0]

    def F1(self, t: np.ndarray) -> np.ndarray:
        return self._factors(t)[1]

    def F2(self, t: np.ndarray) -> np.ndarray:
        return np.exp(-self.d0 * (self.T - np.asarray(t, dtype=float)))


@dataclass(frozen=True)
class MertonFactors(_Factors):
    """Closed-form discount factors of the two-regime valuation system.

    F0(t) = a1 e^{-l1 (T-t)} + a2 e^{-l2 (T-t)} with l1 >= l2 the roots of
    l^2 - (d0 + nu01 + nu10) l + d0 nu10 = 0, and F1 carries the
    corresponding mixture for the shocked regime.  For d0 > 0 and nu01 > 0
    the roots straddle d0 (0 < l2 < d0 < l1) and F1 > F0 > F2 on [0, T).
    The nu01 = 0 case degenerates (F0 = F2; possibly a repeated root) and is
    evaluated by a dedicated branch.

    Reported fields: the roots lambda1, lambda2.  Evaluation uses the
    overflow-free form above, in time to maturity T - t, throughout.
    """

    lambda1: float
    lambda2: float

    def _factors(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(F0(t), F1(t)), both from one pair of exponentials."""
        tau = self.T - np.asarray(t, dtype=float)
        if self.nu01 == 0.0:
            e = np.exp(-self.d0 * tau)
            return e, e * (1.0 + self.d0 * _one_minus_exp_over(self.nu10 - self.d0, tau))
        e1 = np.exp(-self.lambda1 * tau)
        e2 = np.exp(-self.lambda2 * tau)
        # The weights a_k of F0.
        a1 = (self.lambda2 - self.d0) / (self.lambda2 - self.lambda1)
        a2 = (self.lambda1 - self.d0) / (self.lambda1 - self.lambda2)
        k = self.d0 + self.nu01
        w1 = a1 * (k - self.lambda1) / self.nu01
        w2 = a2 * (k - self.lambda2) / self.nu01
        return a1 * e1 + a2 * e2, w1 * e1 + w2 * e2


def _one_minus_exp_over(delta: float, tau: np.ndarray) -> np.ndarray:
    """(1 - e^{-delta tau}) / delta, continuous through delta = 0 (-> tau)."""
    if delta == 0.0:
        return np.asarray(tau, dtype=float) + 0.0
    return -np.expm1(-delta * np.asarray(tau, dtype=float)) / delta


def merton_factors(params: ModelParams) -> MertonFactors:
    """Build the two-regime discount factors for the given parameters;
    NumericalError where F0 or F1 is not finite and positive."""
    d0, nu01, nu10, T = params.d0, params.nu01, params.nu10, params.T
    if nu01 == 0.0:
        # Roots collapse to {d0, nu10}; F0 = F2 and F1 has its own closed form.
        l1, l2 = max(d0, nu10), min(d0, nu10)
    else:
        l1, l2 = _stable_roots(d0 + nu01 + nu10, d0 * nu10)
    fac = MertonFactors(d0=d0, nu01=nu01, nu10=nu10, T=T,
                        lambda1=l1, lambda2=l2)
    # Each factor is a sum of two exponentials, so one that is positive at
    # t = 0 and t = T is positive on [0, T].  A repeated root (nu01 tiny
    # beside d0 = nu10) leaves the weights undefined.
    with np.errstate(all="ignore"):
        ends = (np.array(fac._factors(np.array([0.0, T])))
                if nu01 == 0.0 or l1 > l2 else np.nan)
    if not np.all((ends > 0.0) & (ends < math.inf)):
        raise NumericalError(
            "the discount factors F0, F1 are not finite and positive in "
            f"double precision at d0={d0}, nu01={nu01}, nu10={nu10}")
    return fac


@dataclass(frozen=True)
class SingleShockFactors(_Factors):
    """Discount factors of the single-shock (first recovery absorbing) chain.

    States: 0 liquid pre-shock, 1 in shock, 2 liquid post-shock (absorbing).
    F2c(t) = e^{-d0 (T-t)};
    F1c(t) = [nu10 e^{-d0 tau} - d0 e^{-nu10 tau}] / (nu10 - d0), tau = T-t;
    F0c(t) = F1c(t) + d0/(d0 + nu01 - nu10) (e^{-(d0+nu01) tau} - e^{-nu10 tau}).

    The parameter combinations d0 = nu10 and d0 + nu01 = nu10 make these
    displays resonant and are rejected at construction.
    """

    def _factors(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(F0c(t), F1c(t), F2c(t)), sharing their exponentials."""
        tau = self.T - np.asarray(t, dtype=float)
        d0, nu01, nu10 = self.d0, self.nu01, self.nu10
        f2 = np.exp(-d0 * tau)
        e10 = np.exp(-nu10 * tau)
        f1 = (nu10 * f2 - d0 * e10) / (nu10 - d0)
        extra = d0 / (d0 + nu01 - nu10) * (np.exp(-(d0 + nu01) * tau) - e10)
        return f1 + extra, f1, f2


def single_shock_factors(params: ModelParams) -> SingleShockFactors:
    """Build the single-shock discount factors, rejecting resonant parameters."""
    d0, nu01, nu10 = params.d0, params.nu01, params.nu10
    scale = max(d0, nu10, 1.0)
    if abs(nu10 - d0) <= 1e-10 * scale:
        raise ValueError(
            f"single-shock factors are resonant at nu10 = d0 (nu10={nu10}, d0={d0}); "
            "perturb the parameters")
    if abs(d0 + nu01 - nu10) <= 1e-10 * max(scale, nu01):
        raise ValueError(
            f"single-shock factors are resonant at d0 + nu01 = nu10 "
            f"(d0={d0}, nu01={nu01}, nu10={nu10}); perturb the parameters")
    return SingleShockFactors(d0=d0, nu01=nu01, nu10=nu10, T=params.T)


class IntensityCurve:
    """Regime-switch intensities t -> (nu01(t), nu10(t)) under a measure.

    ``rates(t)`` returns the pair (nu01(t), nu10(t)), vectorized over t,
    and everything that reads the curve takes one evaluation of it.  MMM
    keeps the market intensities (it does not tilt the chain).  MEMM
    multiplies by the discount-factor ratio of the target regime over the
    current one; MEMM_single_shock does the same with the single-shock
    factors.  ``bound01``/``bound10`` are upper bounds for the curves on
    [0, T], used by the thinning sampler and computed on first read (the
    marches never read them); a ``constant`` curve is bounded by its value
    at t = 0.  ``by_regime`` evaluates the curve of each entry's regime at
    its time.
    """

    def __init__(self, measure: str, params: ModelParams, rates,
                 constant: bool):
        self.measure = measure
        self.params = params
        self.rates = rates
        self._constant = constant

    def by_regime(self, t: np.ndarray, regime: np.ndarray) -> np.ndarray:
        """nu01(t) where ``regime`` is 0 and nu10(t) elsewhere, elementwise,
        for 1-D ``t`` and ``regime`` of one size."""
        return np.where(regime == 0, *self.rates(t))

    @cached_property
    def _bounds(self) -> tuple[float, float]:
        if self._constant:
            return tuple(float(r) for r in self.rates(0.0))
        ts = np.linspace(0.0, self.params.T, _BOUND_SAMPLES)
        return tuple(float(np.max(r)) * _BOUND_SAFETY for r in self.rates(ts))

    @cached_property
    def bound01(self) -> float:
        return self._bounds[0]

    @cached_property
    def bound10(self) -> float:
        return self._bounds[1]


def intensity_curve(params: ModelParams, measure: str) -> IntensityCurve:
    """Build the intensity curve of one of the supported measures."""
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}, got {measure!r}")
    if measure == "MMM":
        def rates(t):
            t = np.asarray(t, dtype=float)
            return (np.full_like(t, params.nu01), np.full_like(t, params.nu10))

        return IntensityCurve(measure, params, rates, constant=True)
    if measure == "MEMM":
        fac, entered = merton_factors(params), 0
    else:
        fac, entered = single_shock_factors(params), 2

    # Each market intensity times the discount factor of the regime it
    # enters over that of the regime it leaves: nu01 F1/F0, nu10 F0/F1, or
    # nu10 F2/F1 on the single-shock chain, whose recovery enters regime 2.
    def rates(t):
        f = fac._factors(t)
        return fac.nu01 * f[1] / f[0], fac.nu10 * f[entered] / f[1]

    return IntensityCurve(measure, params, rates, constant=params.d0 == 0.0)
