"""Shared fixtures: canonical parameters and memoized solver results.

The expensive artefacts (default-grid linear and nonlinear surfaces,
asymptotic bundles) are computed once per session and shared across test
modules through small memoizing factories keyed by the request.
"""

from __future__ import annotations

import pytest

from liqshock import (
    GridSpec,
    ModelParams,
    Payoff,
    linear_price,
    mmm_and_expansion,
    single_shock_zero_order,
    solve_buyer,
    solve_single_shock,
    solve_writer,
)

SPOTS = (8.0, 10.0, 12.0)
STRIKE = 10.0


@pytest.fixture(scope="session")
def params() -> ModelParams:
    return ModelParams(mu0=0.06, sigma0=0.3, nu01=1.0, nu10=12.0,
                       gamma=1.0, T=1.0)


@pytest.fixture(scope="session")
def grid_default(params) -> GridSpec:
    return GridSpec.build(params, STRIKE)


@pytest.fixture(scope="session")
def linear_solved(params):
    """Memoized linear_price: get(measure, kind[, n_time]) -> result."""
    cache: dict = {}

    def get(measure: str, kind: str, n_time: int = 2000):
        key = (measure, kind, n_time)
        if key not in cache:
            grid = GridSpec.build(params, STRIKE, n_time=n_time)
            cache[key] = linear_price(params, Payoff(kind, STRIKE, 1.0),
                                      measure, grid)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def indiff_solved(params, grid_default):
    """Memoized indifference solves: get(kind, n) -> (p, q) surfaces.

    Positive n solves the buyer system, negative n the writer system;
    quotes are per contract either way.
    """
    cache: dict = {}

    def get(kind: str, n: float):
        key = (kind, n)
        if key not in cache:
            payoff = Payoff(kind, STRIKE, n)
            solver = solve_buyer if n > 0 else solve_writer
            cache[key] = solver(params, payoff, grid_default)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def bundles(params, grid_default):
    """Memoized asymptotic expansion bundles keyed by payoff kind."""
    cache: dict = {}

    def get(kind: str):
        if kind not in cache:
            cache[kind] = mmm_and_expansion(
                params, Payoff(kind, STRIKE, 1.0), grid_default)[1]
        return cache[kind]

    return get


@pytest.fixture(scope="session")
def single_shock_solved(params, grid_default):
    """Memoized single-shock surfaces: get(kind, n) and get(kind, None)
    for the small-gamma limit."""
    cache: dict = {}

    def get(kind: str, n):
        key = (kind, n)
        if key not in cache:
            if n is None:
                cache[key] = single_shock_zero_order(
                    params, Payoff(kind, STRIKE, 1.0), grid_default)
            else:
                cache[key] = solve_single_shock(
                    params, Payoff(kind, STRIKE), grid_default, [n])[0]
        return cache[key]

    return get
