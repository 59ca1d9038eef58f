"""Pricing and hedging European options under liquidity shocks.

The market alternates between a liquid regime, where the asset follows a
geometric Brownian motion, and a shock regime, where trading halts and the
price freezes.  Because shocked periods contribute no diffusion, a European
claim effectively matures after the *realized liquid time* rather than the
calendar horizon, and the incomplete-market price depends on how shock risk
is charged.

The package provides

* closed forms: Black-Scholes prices/greeks, the exponential-utility
  discount factors of the regime chain, expected-liquid-time ("adjusted")
  and price-implied time-to-maturity (:mod:`liqshock.bs`,
  :mod:`liqshock.model`);
* an implicit finite-difference march for every PDE price: linear prices
  under the minimal martingale and minimal entropy martingale measures,
  exponential-utility indifference prices for buyers and writers, their
  small-risk-aversion expansion, a single-shock variant, and a hedge
  decomposition (:mod:`liqshock.pde`);
* a single-shock quadrature oracle, independent of the march
  (:mod:`liqshock.emm`);
* a Monte Carlo oracle on the realized-liquid-time representation
  (:mod:`liqshock.mc`);
* a CSV-reporting command line, ``liqshock`` (:mod:`liqshock.cli`).

Every numeric function follows one return rule, numpy in, numpy out: it
is vectorized over its array arguments by numpy broadcasting and returns
an array of the broadcast shape, 0-d (a 0-d array or a numpy float64) when
every argument is a scalar.  Callers that need a Python float call
``float()``.  The two oracles are the exceptions: ``single_shock_memm_price``
and ``mc_linear_price`` price one scalar spot per call and refuse an array
spot (ValueError).  A valuation time ``t`` is always a scalar:
``single_shock_memm_price``, ``hedge_report`` and the ``PriceSurface``
reads refuse an array ``t`` by name.
"""

from .bs import (BSQuote, ImpliedTTM, adjusted_ttm, bs_greeks, bs_price,
                 implied_ttm)
from .emm import single_shock_memm_price
from .errors import NumericalError
from .mc import MCEstimate, mc_linear_price, sample_realized_ttm
from .model import (MEASURES, PAYOFF_KINDS, IntensityCurve, MertonFactors,
                    ModelParams, Payoff, SingleShockFactors, intensity_curve,
                    merton_factors, single_shock_factors)
from .pde import (AsymptoticBundle, GridSpec, HedgeReport, LinearPriceResult,
                  PriceSurface, hedge_report, linear_price, mmm_and_expansion,
                  single_shock_zero_order, solve_buyer, solve_indifference,
                  solve_single_shock, solve_writer)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "NumericalError",
    # model primitives
    "ModelParams",
    "Payoff",
    "MertonFactors",
    "SingleShockFactors",
    "IntensityCurve",
    "merton_factors",
    "single_shock_factors",
    "intensity_curve",
    "PAYOFF_KINDS",
    "MEASURES",
    # closed forms
    "BSQuote",
    "ImpliedTTM",
    "bs_price",
    "bs_greeks",
    "adjusted_ttm",
    "implied_ttm",
    # linear pricing
    "LinearPriceResult",
    "linear_price",
    "mmm_and_expansion",
    "single_shock_memm_price",
    # indifference PDE
    "GridSpec",
    "PriceSurface",
    "AsymptoticBundle",
    "HedgeReport",
    "solve_indifference",
    "solve_buyer",
    "solve_writer",
    "solve_single_shock",
    "single_shock_zero_order",
    "hedge_report",
    # Monte Carlo oracle
    "MCEstimate",
    "sample_realized_ttm",
    "mc_linear_price",
]
