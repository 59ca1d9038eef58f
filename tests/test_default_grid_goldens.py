"""Bit-level goldens of the marches the commands run, on the default grid.

``test_march_goldens.py`` pins every march at N = 300.  This module pins
the marches ``price``, ``ttm`` and ``hedge`` run at the default
2000 x 538 grid of the worked example: the one-block indifference march
(``hedge``), the linear MEMM march at ``ttm``'s kept rows, and row 0 of
``price``'s three stacked marches, for every payoff.  Each array is pinned
by the SHA-256 of its float64 bytes, so a zero whose sign flips fails it
too.  (The digests pin this platform's floating point, as the N = 300
ones do.)

The digests in ``data/default_grid_goldens.json`` were written before the
march steps moved to preallocated scratch; regenerate them only for a
change that means to move the surfaces:

    PYTHONPATH=src python3 tests/test_default_grid_goldens.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from liqshock import (GridSpec, ModelParams, Payoff, cli, linear_price,
                      mmm_and_expansion, solve_indifference, solve_single_shock)

DATA = Path(__file__).parent / "data" / "default_grid_goldens.json"
KINDS = ("vanilla_call", "vanilla_put", "digital_call", "digital_put")
STRIKE = 10.0
# The default `contracts`, in the order `price` stacks them (buyers first).
CONTRACTS = (10.0, 5.0, 1.0, -1.0, -5.0, -10.0)
BUYERS = tuple(n for n in CONTRACTS if n > 0.0)
HEDGE_ROWS = list(range(0, 2001, 100))
# `ttm`'s 21 time-sweep rows on the default grid.
TTM_ROWS = sorted({round(k * 2000 / 20) for k in range(21)})


def params() -> ModelParams:
    return ModelParams(mu0=0.06, sigma0=0.3, nu01=1.0, nu10=12.0,
                       gamma=1.0, T=1.0)


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64)
                          .tobytes()).hexdigest()


def hedge_marches(kind: str) -> dict[str, np.ndarray]:
    """One-block indifference marches at n = +5 and -5, rows 0, 100, ..."""
    par = params()
    grid = GridSpec.build(par, STRIKE)
    out = {}
    for n in (5.0, -5.0):
        ((p, q),) = solve_indifference(par, Payoff(kind, STRIKE), grid, [n],
                                       HEDGE_ROWS)
        out[f"indiff_{n:+g}_p"] = p.values
        out[f"indiff_{n:+g}_q"] = q.values
    return out


def ttm_march(kind: str) -> dict[str, np.ndarray]:
    par = params()
    res = linear_price(par, Payoff(kind, STRIKE), "MEMM", GridSpec.build(par, STRIKE),
                       TTM_ROWS)
    return {"MEMM_p": res.surface_p.values, "MEMM_q": res.surface_q.values}


def price_marches(kind: str) -> dict[str, np.ndarray]:
    """Row 0 of `price`'s linear pass, indifference stack and single-shock
    stack."""
    par = params()
    grid = GridSpec.build(par, STRIKE)
    unit = Payoff(kind, STRIKE)
    mmm, bundle = mmm_and_expansion(par, unit, grid, (0,))
    out = {"MMM_p": mmm.surface_p.values, "MMM_q": mmm.surface_q.values}
    for name in ("p0", "q0", "p1", "q1"):
        out[f"expansion_{name}"] = getattr(bundle, name).values
    for n, (p, q) in zip(CONTRACTS, solve_indifference(par, unit, grid,
                                                       CONTRACTS, (0,))):
        out[f"indiff_{n:+g}_p"] = p.values
        out[f"indiff_{n:+g}_q"] = q.values
    for n, surf in zip(BUYERS, solve_single_shock(par, unit, grid, BUYERS, (0,))):
        out[f"single_shock_{n:+g}"] = surf.values
    return out


GROUPS = {"hedge": hedge_marches, "ttm": ttm_march, "price": price_marches}


def digests(group: str, kind: str) -> dict[str, str]:
    return {name: digest(a) for name, a in GROUPS[group](kind).items()}


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("kind", ("vanilla_call", "vanilla_put"))
def test_hedge_marches_bit_identical(goldens, kind):
    assert digests("hedge", kind) == goldens["hedge"][kind]


@pytest.mark.parametrize("kind", ("vanilla_call", "vanilla_put"))
def test_ttm_march_bit_identical(goldens, kind):
    assert digests("ttm", kind) == goldens["ttm"][kind]


@pytest.mark.parametrize("kind", KINDS)
def test_price_marches_bit_identical(goldens, kind):
    assert digests("price", kind) == goldens["price"][kind]


def test_ttm_rows_are_the_commands():
    assert len(TTM_ROWS) == cli._SWEEP_TIME_POINTS == 21


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    table = {
        "hedge": {k: digests("hedge", k) for k in ("vanilla_call", "vanilla_put")},
        "ttm": {k: digests("ttm", k) for k in ("vanilla_call", "vanilla_put")},
        "price": {k: digests("price", k) for k in KINDS},
    }
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
