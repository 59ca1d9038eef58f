"""Black-Scholes engine (zero rates) and time-to-maturity tools.

All option values here are classical Black-Scholes quantities; the liquidity
model enters only through the time argument.  ``adjusted_ttm`` maps a
calendar horizon to the expected liquid (tradeable) time accumulated over
it, and ``implied_ttm`` inverts the vanilla price in the maturity variable.
Throughout, ``ttm`` arguments are time-to-maturity in years; calendar-time
surfaces are converted by the caller.

``implied_ttm`` inverts a whole sweep in one bisection loop: each pass makes
one ``bs_price`` call on the elements still bracketing, and each element
stops on its own tolerance test.  Element by element the iterates and the
``bs_price`` arithmetic are those of a one-element call, so an array result
is bit-identical, element by element, to one-element calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import NumericalError, check_regime
from .model import ModelParams, Payoff

__all__ = [
    "BSQuote",
    "ImpliedTTM",
    "bs_price",
    "bs_greeks",
    "adjusted_ttm",
    "implied_ttm",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Bisection stops when the reproduced price is within this of the target.
_IMPLIED_PRICE_TOL = 1e-10
_IMPLIED_MAX_ITER = 200
# Largest broadcast bs_price evaluates in one piece.
_BS_BLOCK = 8192


@dataclass(frozen=True)
class BSQuote:
    """Price, delta and maturity-sensitivity of a Black-Scholes value.

    ``theta_ttm`` = dP/dttm is a derivative with respect to
    time-to-maturity, not calendar time.  Every field has the broadcast
    shape of the inputs.
    """

    price: np.ndarray
    delta: np.ndarray
    theta_ttm: np.ndarray


@dataclass(frozen=True)
class ImpliedTTM:
    """Result of inverting a vanilla price in the maturity variable.

    Every field is an array of the broadcast shape of the inputs (0-d for
    scalar inputs).  ``failure`` names, per element, why no
    positive-maturity solution exists ("" where one does); such elements
    carry ttm = nan and low_confidence = False.  A solved ttm reproduces
    the target price within 1e-10.
    """

    ttm: np.ndarray
    low_confidence: np.ndarray
    failure: np.ndarray


def _phi(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def _validate_sigma(sigma: float) -> None:
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")


def _first_bad(values: np.ndarray, ok: np.ndarray, what: str) -> None:
    """Raise naming the first of the flat ``values`` where ``ok`` is False."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ValueError(f"{what}, got {float(values[bad[0]])}")


def check_spot(spot) -> None:
    """Refuse (ValueError) a spot that is not positive and finite, naming
    the first such value; the one spot rule of the package."""
    s = np.asarray(spot, dtype=float)
    # A NaN fails every comparison, so it is refused with the infinities.
    _first_bad(s.ravel(), (s > 0.0) & (s < math.inf),
               "spot must be positive and finite")


def _bs_formula(payoff: Payoff, tau: np.ndarray, s: np.ndarray, sigma: float):
    """The Black-Scholes formula at tau > 0, shared by ``bs_price`` and
    ``bs_greeks``: returns (vol, d1, d2, price) with vol = sigma sqrt(tau)."""
    k = payoff.strike
    vol = sigma * np.sqrt(tau)
    d1 = (np.log(s / k) + 0.5 * sigma * sigma * tau) / vol
    d2 = d1 - vol
    if payoff.kind == "vanilla_call":
        price = s * ndtr(d1) - k * ndtr(d2)
    elif payoff.kind == "vanilla_put":
        price = k * ndtr(-d2) - s * ndtr(-d1)
    elif payoff.kind == "digital_call":
        price = ndtr(d2)
    else:  # digital_put
        price = ndtr(-d2)
    return vol, d1, d2, price


def _bs_fill(payoff: Payoff, tau: np.ndarray, s: np.ndarray, sigma: float,
             out: np.ndarray) -> None:
    """Write P_BS(tau, s) into ``out`` (all three of one shape)."""
    expired = tau == 0.0
    if not np.any(expired):
        out[...] = _bs_formula(payoff, tau, s, sigma)[3]
        return
    out[expired] = payoff.value(s[expired])
    live = ~expired
    if np.any(live):
        out[live] = _bs_formula(payoff, tau[live], s[live], sigma)[3]


def bs_price(payoff: Payoff, ttm, spot, sigma: float):
    """Per-contract Black-Scholes price at zero rates.

    Vectorized over ``ttm`` and ``spot`` (numpy broadcasting).  ttm = 0
    returns the payoff itself, with the strict-inequality digital
    convention.  The broadcast is evaluated in blocks of leading-axis rows
    of at most ``_BS_BLOCK`` elements (a 0-d broadcast is one row of one),
    written straight into the result, so the masks and intermediates stay
    cache-sized instead of scaling with the whole table.  Every value is an
    elementwise function of its own (ttm, spot), so the blocks are
    bit-identical to one whole-array evaluation.  A ttm or spot that is not
    finite, a negative ttm or a non-positive spot raises ValueError naming
    the first such value.
    """
    _validate_sigma(sigma)
    tau = np.asarray(ttm, dtype=float)
    s = np.asarray(spot, dtype=float)
    _first_bad(tau.ravel(), (tau >= 0.0) & (tau < math.inf),
               "ttm must be finite and >= 0")
    check_spot(s)
    tau_b, s_b = np.broadcast_arrays(tau, s)
    out = np.empty(tau_b.shape, dtype=float)
    tau_r, s_r, out_r = np.atleast_1d(tau_b, s_b, out)
    rows = max(1, _BS_BLOCK // (math.prod(out_r.shape[1:]) or 1))
    for lo in range(0, out_r.shape[0], rows):
        hi = lo + rows
        _bs_fill(payoff, tau_r[lo:hi], s_r[lo:hi], sigma, out_r[lo:hi])
    return out


def bs_greeks(payoff: Payoff, ttm, spot, sigma: float) -> BSQuote:
    """Price, delta and theta_ttm at zero rates.

    Rejects ttm = 0, where delta and the maturity derivatives are not
    defined for digital payoffs, and refuses the other inputs
    ``bs_price`` refuses.
    """
    _validate_sigma(sigma)
    tau = np.asarray(ttm, dtype=float)
    s = np.asarray(spot, dtype=float)
    _first_bad(tau.ravel(), (tau > 0.0) & (tau < math.inf),
               "bs_greeks requires a finite ttm > 0")
    check_spot(s)
    tau_b, s_b = np.broadcast_arrays(tau, s)
    vol, d1, d2, price = _bs_formula(payoff, tau_b, s_b, sigma)
    if payoff.kind in ("vanilla_call", "vanilla_put"):
        delta = ndtr(d1) if payoff.kind == "vanilla_call" else ndtr(d1) - 1.0
        theta = s_b * _phi(d1) * sigma / (2.0 * np.sqrt(tau_b))
    else:
        # d(d1)/dttm and d(d2)/dttm
        dd1 = (-np.log(s_b / payoff.strike) / (2.0 * sigma * tau_b ** 1.5)
               + sigma / (4.0 * np.sqrt(tau_b)))
        dd2 = dd1 - sigma / (2.0 * np.sqrt(tau_b))
        sign = 1.0 if payoff.kind == "digital_call" else -1.0
        delta = sign * _phi(d2) / (s_b * vol)
        theta = sign * _phi(d2) * dd2
    return BSQuote(price, delta, theta)


def adjusted_ttm(params: ModelParams, horizon, regime: int):
    """Expected liquid time accumulated over ``horizon`` calendar years.

    Closed form from the two-regime occupation time started in ``regime``.
    Vectorized over ``horizon``; 0 <= result <= horizon, with equality at
    horizon only when nu01 = 0 and regime = 0.  A negative or non-finite
    horizon raises ValueError naming the first such value.
    """
    regime = check_regime("regime", regime)
    h = np.asarray(horizon, dtype=float)
    _first_bad(h.ravel(), (h >= 0.0) & (h < math.inf),
               "horizon must be finite and >= 0")
    n01, n10 = params.nu01, params.nu10
    nu = n01 + n10
    decay = np.exp(-nu * h)
    if regime == 0:
        out = (n01 + n10 * nu * h - n01 * decay) / (nu * nu)
    else:
        out = (-n10 + n10 * nu * h + n10 * decay) / (nu * nu)
    return np.minimum(out, h)  # clip fp overshoot at nu01 = 0


def implied_ttm(payoff: Payoff, spot, target_price, sigma: float,
                horizon) -> ImpliedTTM:
    """Invert the vanilla Black-Scholes price in time-to-maturity.

    The vanilla price at zero rates is strictly increasing in maturity, so
    bisection on [0, 10 * horizon] converges; digitals are rejected (their
    price is not monotone in maturity).  A target at or below intrinsic
    value (within the price tolerance) has no time value: the bracket's
    lower end is returned, with ``low_confidence`` set when the payoff is
    in the money.

    Vectorized over ``spot``, ``target_price`` and ``horizon`` (numpy
    broadcasting).  One bisection loop serves every element: each pass
    prices the elements that have not yet converged with one ``bs_price``
    call, and an element leaves the loop as soon as its own reproduced
    price is within tolerance.  Every element therefore follows the
    iterates of its own one-element bisection (``mid = 0.5 * (lo + hi)``,
    the same ``bs_price`` arithmetic element by element), so its result is
    bit-identical to a one-element call.  Every result field has the
    broadcast shape; an element without a positive-maturity solution (a
    target below intrinsic value or above the price at the bracket's upper
    end) gets its cause in ``failure`` and raises nothing.  An element
    still unresolved after the iteration cap raises NumericalError for the
    whole call.
    """
    if payoff.is_digital:
        raise ValueError("implied ttm is defined for vanilla payoffs only")
    _validate_sigma(sigma)
    s, target, h = np.broadcast_arrays(np.asarray(spot, dtype=float),
                                       np.asarray(target_price, dtype=float),
                                       np.asarray(horizon, dtype=float))
    shape = s.shape
    s, target, h = s.ravel(), target.ravel(), h.ravel()
    check_spot(s)
    _first_bad(target, np.isfinite(target), "target_price must be finite")
    _first_bad(h, np.isfinite(h) & (h > 0.0), "horizon must be positive and finite")

    intrinsic = payoff.value(s)
    ttm = np.full(s.shape, np.nan)
    low_confidence = np.zeros(s.shape, dtype=bool)
    failure = np.full(s.shape, "", dtype=object)
    below = target < intrinsic - _IMPLIED_PRICE_TOL
    for i in np.flatnonzero(below):
        failure[i] = (f"target price {float(target[i])} is below intrinsic "
                      f"value {float(intrinsic[i])}")
    f_lo = intrinsic - target
    # Zero (or numerically zero) time value.  For an in-the-money payoff the
    # price is flat near ttm = 0, so the pinned answer carries little
    # information; flag it.
    pinned = ~below & ((np.abs(f_lo) <= _IMPLIED_PRICE_TOL) | (target <= intrinsic))
    ttm[pinned] = 0.0
    low_confidence[pinned] = intrinsic[pinned] > 0.0

    active = np.flatnonzero(~below & ~pinned)
    lo = np.zeros(active.size)
    hi = 10.0 * h[active]
    f_hi = bs_price(payoff, hi, s[active], sigma) - target[active]
    over = f_hi < 0.0
    for i, f, top in zip(active[over], f_hi[over], hi[over]):
        failure[i] = (
            f"target price {float(target[i])} exceeds the Black-Scholes price "
            f"{float(target[i] + f):.6g} at the maximum bracket maturity {float(top)}")
    active, lo, hi = active[~over], lo[~over], hi[~over]
    for _ in range(_IMPLIED_MAX_ITER):
        if not active.size:
            break
        mid = 0.5 * (lo + hi)
        f_mid = bs_price(payoff, mid, s[active], sigma) - target[active]
        done = np.abs(f_mid) <= _IMPLIED_PRICE_TOL
        ttm[active[done]] = mid[done]
        too_short = f_mid < 0.0
        lo = np.where(too_short, mid, lo)
        hi = np.where(too_short, hi, mid)
        active, lo, hi = active[~done], lo[~done], hi[~done]
    if active.size:
        i = active[0]
        raise NumericalError(
            f"implied ttm bisection did not reach {_IMPLIED_PRICE_TOL} after "
            f"{_IMPLIED_MAX_ITER} iterations "
            f"(spot={float(s[i])}, target={float(target[i])})")

    return ImpliedTTM(ttm=ttm.reshape(shape),
                      low_confidence=low_confidence.reshape(shape),
                      failure=failure.reshape(shape))
