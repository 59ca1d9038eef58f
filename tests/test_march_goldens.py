"""Bit-level goldens for every backward march and the thinning sampler.

The goldens in ``data/march_goldens.json`` and ``data/indifference_rows.npz``
were written when each march carried its own time loop, the single-shock
measure had its own thinning loop, and the MEMM intensities were built in
three places.  Every surface and every vector of draws is pinned by the
SHA-256 of its float64 bytes, so the shared march loop, the one thinning
kernel and the one MEMM tilt must reproduce them bit for bit.  (The
digests pin this platform's floating point: a different libm or LAPACK
build rounds differently and fails them.)

The indifference march is the one exception.  It used to form the MEMM
shock intensity as nu01 * (F1 / F0); the shared tilt forms (nu01 * F1) / F0,
which rounds differently unless nu01 is a power of two.  Its surfaces are
therefore pinned bit for bit at nu01 = 1, where both products are exact,
and at nu01 = 1.7 rows 0, 100, 200 and 299 must agree with the stored rows
within 1e-12 times the surface's price scale.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import digest
from liqshock import (
    GridSpec,
    ModelParams,
    Payoff,
    intensity_curve,
    linear_price,
    mmm_and_expansion,
    sample_realized_ttm,
    single_shock_zero_order,
    solve_indifference,
    solve_single_shock,
)

DATA = Path(__file__).parent / "data"
KINDS = ("vanilla_call", "vanilla_put", "digital_call", "digital_put")
STRIKE = 10.0
N_TIME = 300
STACK = (10.0, 1.0, -1.0, -10.0)
ROWS = [0, 100, 200, 299]
SEED = 20121
N_PATHS = 1000


def make_params(nu01: float) -> ModelParams:
    return ModelParams(mu0=0.06, sigma0=0.3, nu01=nu01, nu10=12.0,
                       gamma=1.0, T=1.0)


def linear_surfaces(params: ModelParams, kind: str) -> dict[str, np.ndarray]:
    """Surfaces of the linear, expansion and single-shock marches."""
    grid = GridSpec.build(params, STRIKE, n_time=N_TIME)
    unit = Payoff(kind, STRIKE)
    out = {}
    for measure in ("MMM", "MEMM"):
        res = linear_price(params, unit, measure, grid)
        out[f"{measure}_p"] = res.surface_p.values
        out[f"{measure}_q"] = res.surface_q.values
    bundle = mmm_and_expansion(params, unit, grid)[1]
    for name in ("p0", "q0", "p1", "q1"):
        out[f"expansion_{name}"] = getattr(bundle, name).values
    for n in (1, 10):
        out[f"single_shock_n{n}"] = solve_single_shock(
            params, unit, grid, [n])[0].values
    out["single_shock_zero_order"] = single_shock_zero_order(
        params, unit, grid).values
    return out


def indifference_surfaces(params: ModelParams,
                          kind: str) -> dict[str, np.ndarray]:
    """The (p, q) surfaces of one stacked indifference march."""
    grid = GridSpec.build(params, STRIKE, n_time=N_TIME)
    pairs = solve_indifference(params, Payoff(kind, STRIKE), grid, STACK)
    out = {}
    for n, (p, q) in zip(STACK, pairs):
        out[f"indiff_{n:+g}_p"] = p.values
        out[f"indiff_{n:+g}_q"] = q.values
    return out


def sampler_draws(params: ModelParams) -> dict[str, np.ndarray]:
    """Realized liquid time under MMM and MEMM (both start regimes) and the
    single-shock MEMM, under the keys they were stored with (``anti0``:
    without the antithetic mode the sampler once had)."""
    out = {}
    for measure in ("MMM", "MEMM"):
        curve = intensity_curve(params, measure)
        for regime in (0, 1):
            out[f"{measure}_r{regime}_anti0"] = sample_realized_ttm(
                curve, params.T, regime, SEED, N_PATHS)
    curve = intensity_curve(params, "MEMM_single_shock")
    out["MEMM_single_shock_anti0"] = sample_realized_ttm(
        curve, params.T, 0, SEED, N_PATHS)
    return out


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads((DATA / "march_goldens.json").read_text())


def mismatches(computed: dict[str, np.ndarray], pinned: dict[str, str]) -> list[str]:
    assert sorted(computed) == sorted(pinned)
    return [name for name, a in computed.items() if digest(a) != pinned[name]]


@pytest.mark.parametrize("kind", KINDS)
def test_linear_expansion_single_shock_bit_identical(goldens, kind):
    computed = linear_surfaces(make_params(1.7), kind)
    assert mismatches(computed, goldens["linear"][kind]) == []


@pytest.mark.parametrize("kind", KINDS)
def test_indifference_bit_identical_at_unit_nu01(goldens, kind):
    computed = indifference_surfaces(make_params(1.0), kind)
    assert mismatches(computed, goldens["indifference_nu01_1"][kind]) == []


@pytest.mark.parametrize("kind", KINDS)
def test_indifference_within_rounding(kind):
    """nu01 = 1.7: the tilt's operand order moves the march by rounding
    only (see the module docstring)."""
    computed = indifference_surfaces(make_params(1.7), kind)
    with np.load(DATA / "indifference_rows.npz") as stored:
        for name, values in computed.items():
            ref = stored[f"{kind}/{name}"]
            scale = max(1.0, float(np.max(np.abs(ref))))
            err = float(np.max(np.abs(values[ROWS] - ref)))
            assert err <= 1e-12 * scale, f"{name}: {err:.3g} vs scale {scale:.3g}"


def test_sampler_draws_bit_identical(goldens):
    computed = sampler_draws(make_params(1.7))
    assert mismatches(computed, goldens["draws"]) == []
