"""Closed-form occupation-time oracle for constant-intensity prices.

Under constant switching intensities the price of a European claim is
``E[P_BS(occ, S)]`` where ``occ`` is the realized liquid (diffusive) time
over the horizon.  For a two-state chain started in the liquid state the
law of ``occ`` is known in closed form: a Bessel-series density on
``(0, T)`` plus an atom ``e^{-nu01 T}`` at ``occ = T`` (no shock at all).
This gives machine-accurate reference prices by one-dimensional adaptive
quadrature — a route completely independent of both the lattice solver
and the Monte Carlo sampler, used to pin down their shared limit.

A shock start convolves the first frozen spell into the liquid-start law
(``shock_start_density``).  Under the unchanged (MMM) intensities
the price is ``E[P_BS(occ, S)]`` over this law.  The MEMM tilt of the
intensities is the Doob h-transform of killing the chain at rate d0 while
it is liquid (F0(t) = E[e^{-d0 occ_t}], with occ_t the liquid time left),
so the MEMM law is the same one reweighted:
``E^MEMM[g(occ)] = E[g(occ) e^{-d0 occ}] / F0(0)``, or F1(0) from a
shock start.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.special import i0e, i1e

from liqshock import ModelParams, Payoff, bs_price


def occupation_density(tau, nu01: float, nu10: float, horizon: float):
    """Density of realized liquid time on (0, horizon), liquid start.

    Exponentially scaled Bessel functions keep the evaluation stable for
    large ``nu10 * horizon``: I_k(2x) = i_ke(2x) e^{2x}.
    """
    tau = np.asarray(tau, dtype=float)
    frozen = horizon - tau
    x = np.sqrt(nu01 * nu10 * tau * frozen)
    expo = np.exp(-nu01 * tau - nu10 * frozen + 2.0 * x)
    safe = np.where(frozen > 0, frozen, 1.0)
    ratio = np.where(frozen > 0, np.sqrt(nu01 * nu10 * tau / safe), 0.0)
    return expo * (ratio * i1e(2.0 * x) + nu01 * i0e(2.0 * x))


def no_shock_atom(nu01: float, horizon: float) -> float:
    """Probability that no shock occurs, i.e. occupation equals horizon."""
    return float(np.exp(-nu01 * horizon))


def shock_start_density(tau, nu01: float, nu10: float, horizon: float):
    """Density of realized liquid time on (0, horizon), shock start.

    The first frozen spell s is Exp(nu10); a path that recovers at
    s < horizon then follows the liquid-start law over horizon - s.  Its
    atom, no shock after the recovery, lands at tau = horizon - s; its
    density at tau has the frozen time r = horizon - s - tau:

        f(tau) = nu10 e^{-nu10 (horizon - tau)} e^{-nu01 tau}
               + int_0^{horizon - tau} nu10 e^{-nu10 (horizon - tau - r)}
                     occupation_density(tau; horizon = tau + r) dr.

    The integrand is smooth in r (I1(2x) / x is finite at x = 0), so
    8-point Gauss-Legendre on four equal panels integrates it.  The
    paths that never recover form the atom e^{-nu10 horizon} at tau = 0.
    """
    tau = np.asarray(tau, dtype=float)
    panels = 4
    nodes, weights = np.polynomial.legendre.leggauss(8)
    frac = ((np.arange(panels)[:, None] + 0.5 * (1.0 + nodes)) / panels).ravel()
    span = horizon - tau
    t, s = tau[..., None], span[..., None]
    r = s * frac
    spell = nu10 * np.exp(-nu10 * (s - r))
    inner = (spell * occupation_density(t, nu01, nu10, t + r)) @ np.tile(
        weights / (2 * panels), panels)
    return nu10 * np.exp(-nu10 * span - nu01 * tau) + span * inner


def occupation_mean(nu01: float, nu10: float, horizon: float) -> float:
    """E[occupation] by quadrature against the density plus the atom."""
    val, _ = quad(
        lambda t: t * occupation_density(t, nu01, nu10, horizon),
        0.0, horizon, limit=400)
    return val + horizon * no_shock_atom(nu01, horizon)


def constant_intensity_price(params: ModelParams, payoff: Payoff,
                             spot: float) -> float:
    """Exact MMM price: quadrature of P_BS over the occupation law."""
    def integrand(t: float) -> float:
        dens = float(occupation_density(t, params.nu01, params.nu10, params.T))
        return dens * float(bs_price(payoff, t, spot, params.sigma0))

    val, _ = quad(integrand, 0.0, params.T, limit=400)
    tail = no_shock_atom(params.nu01, params.T) * float(
        bs_price(payoff, params.T, spot, params.sigma0))
    return val + tail


def _killed_expectation(params: ModelParams, g) -> float:
    """E[g(occ) e^{-d0 occ}] over the occupation law (liquid start)."""
    def integrand(t: float) -> float:
        dens = float(occupation_density(t, params.nu01, params.nu10, params.T))
        return dens * float(np.exp(-params.d0 * t)) * g(t)

    val, _ = quad(integrand, 0.0, params.T, limit=400)
    tail = no_shock_atom(params.nu01, params.T) * float(
        np.exp(-params.d0 * params.T)) * g(params.T)
    return val + tail


def killed_occupation_mass(params: ModelParams) -> float:
    """Total mass E[e^{-d0 occ}] of the reweighted law; equals F0(0)."""
    return _killed_expectation(params, lambda t: 1.0)


def memm_price(params: ModelParams, payoff: Payoff, spot: float) -> float:
    """Exact MEMM price: quadrature of P_BS over the occupation law
    reweighted by e^{-d0 occ}, divided by F0(0)."""
    from liqshock import merton_factors

    total = _killed_expectation(
        params, lambda t: float(bs_price(payoff, t, spot, params.sigma0)))
    return total / float(merton_factors(params).F0(0.0))
