"""The single-shock MEMM price by a route independent of the PDE.

``single_shock_memm_price`` evaluates the linear MEMM price of the
single-shock problem (recovery absorbing) from the explicit occupation-time
representation: condition on the first shock time and the recovery time;
between switches the chain survival factors are known in closed form.  The
two-dimensional integral is a tensor Simpson rule.  It serves as a
cross-check oracle for the PDE route; the linear MMM and MEMM prices
themselves are marched in ``pde``.
"""

from __future__ import annotations

import math

import numpy as np

from . import bs as _bs
from .errors import NumericalError, check_scalar, check_valuation_time
from .model import ModelParams, Payoff, single_shock_factors

__all__ = ["single_shock_memm_price"]

_QUAD_START_PANELS = 400
_QUAD_TOL = 1e-8
_QUAD_MAX_DOUBLINGS = 12
# Outer-axis chunk of the tensor quadrature: the one bound on its
# temporaries, bs_price's included, each chunk * (panels + 1) doubles.
_QUAD_CHUNK = 128


def _simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights on n subintervals (n even), for unit step;
    multiply by step/3."""
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _single_shock_quadrature(params: ModelParams, payoff: Payoff, t: float,
                             spot: float, n: int) -> float:
    """Occupation-time quadrature of the single-shock linear price with n
    Simpson subintervals on each axis.

    Decomposition over the first shock time tau and recovery time zeta:
    - no shock before T: weight e^{-(d0+nu01)(T-t)} / F0c(t), payoff clock T-t;
    - shock at tau, recovery at zeta: the liquid clock accumulates
      (tau - t) + (T - zeta);
    - shock at tau, no recovery by T: clock tau - t.
    The tilted intensities and survival factors combine into the closed
    forms used below (the intermediate F ratios cancel), and the weights
    integrate to 1, which is probed by tests with a unit payoff.
    """
    fac = single_shock_factors(params)
    T = params.T
    d0, nu01, nu10 = params.d0, params.nu01, params.nu10
    sigma = params.sigma0
    f0_t = float(fac.F0(t))
    head_w = math.exp(-(d0 + nu01) * (T - t)) / f0_t
    head = head_w * float(_bs.bs_price(payoff, T - t, spot, sigma))
    tau = np.linspace(t, T, n + 1)
    s = np.linspace(0.0, 1.0, n + 1)
    w = _simpson_weights(n)
    f1_tau = fac.F1(tau)
    # Outer factor nu01_tilde(tau) B01(t, tau) = nu01 e^{-(d0+nu01)(tau-t)}
    # F1c(tau) / F0c(t).
    outer = nu01 * np.exp(-(d0 + nu01) * (tau - t)) * f1_tau / f0_t
    inner_vals = np.empty(n + 1)
    for a0 in range(0, n + 1, _QUAD_CHUNK):
        a1 = min(a0 + _QUAD_CHUNK, n + 1)
        tau_c = tau[a0:a1, None]
        zeta = tau_c + s[None, :] * (T - tau_c)
        # nu10_tilde(zeta) B10(tau, zeta) = nu10 e^{-nu10 (zeta-tau)}
        # F2c(zeta) / F1c(tau).
        g_in = nu10 * np.exp(-nu10 * (zeta - tau_c)) \
            * fac.F2(zeta) / f1_tau[a0:a1, None]
        clock = (tau_c - t) + (T - tau_c) * (1.0 - s[None, :])
        pb = _bs.bs_price(payoff, clock, spot, sigma)
        integ = (g_in * pb) @ w / (3.0 * n) * (T - tau[a0:a1])
        # No recovery by T: B10(tau, T) = e^{-nu10 (T-tau)} / F1c(tau).
        tail = np.exp(-nu10 * (T - tau[a0:a1])) / f1_tau[a0:a1] \
            * _bs.bs_price(payoff, tau[a0:a1] - t, spot, sigma)
        inner_vals[a0:a1] = integ + tail
    outer_int = float(np.dot(w, outer * inner_vals)) * (T - t) / (3.0 * n)
    return head + outer_int


def single_shock_memm_price(params: ModelParams, payoff: Payoff, t: float,
                            spot: float) -> float:
    """Linear MEMM price when only the first shock is priced, by the
    occupation-time quadrature (per contract).

    Panel count doubles from 400x400 until two successive values agree to
    1e-8; more than 12 doublings raises NumericalError.  Requires
    0 <= t < T and a spot within the model's support.
    """
    check_valuation_time(t, params.T)
    check_scalar("spot", spot)
    _bs.check_spot(spot)
    if params.nu01 == 0.0:
        # No shock can arrive; the price is plain Black-Scholes.
        return float(_bs.bs_price(payoff, params.T - t, spot, params.sigma0))
    n = _QUAD_START_PANELS
    prev = _single_shock_quadrature(params, payoff, t, spot, n)
    for _ in range(_QUAD_MAX_DOUBLINGS):
        n *= 2
        cur = _single_shock_quadrature(params, payoff, t, spot, n)
        if abs(cur - prev) <= _QUAD_TOL:
            return cur
        prev = cur
    raise NumericalError(
        f"single-shock quadrature did not converge to {_QUAD_TOL} within "
        f"{_QUAD_MAX_DOUBLINGS} panel doublings (t={t}, spot={spot})")

