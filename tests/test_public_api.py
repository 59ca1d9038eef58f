"""Every exported name resolves, the README's API table names only
exported names, the README's Python examples run, and every vectorized
numeric function keeps the package's one return rule.

A name left in an ``__all__`` after its definition is deleted only fails on
``from liqshock import *`` (or ``from liqshock.<module> import *``), which
nothing else in the suite does.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import liqshock
from liqshock import (GridSpec, ModelParams, Payoff, adjusted_ttm, bs_greeks,
                      bs_price, intensity_curve, merton_factors,
                      mmm_and_expansion, single_shock_factors)

README = Path(__file__).parent.parent / "README.md"

MODULES = ["liqshock"] + [f"liqshock.{m.name}"
                          for m in pkgutil.iter_modules(liqshock.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []


def test_readme_entry_points_are_exported():
    """Every name in the first column of README's table of main entry points
    is in ``liqshock.__all__``, so the table cannot outlive a deletion."""
    readme = README.read_text(encoding="utf-8")
    table = readme.split("The main entry points:", 1)[1].split("\n\n")[1]
    rows = table.splitlines()[2:]
    assert rows and all(row.startswith("|") for row in rows)
    for row in rows:
        names = re.findall(r"`([^`]+)`", row.split("|")[1])
        assert names, row
        assert [name for name in names if name not in liqshock.__all__] == []


def test_readme_python_examples_run(capsys):
    """Every ``python`` block of README's "Python API" section runs, in
    order and in one namespace (a later block reuses an earlier one's
    names), so an example cannot outlive the API it shows."""
    readme = README.read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
    assert capsys.readouterr().out
    assert namespace["report"].indiff_delta.shape == (3,)


PARAMS = ModelParams(mu0=0.06, sigma0=0.3, nu01=1.0, nu10=12.0, gamma=1.0,
                     T=1.0)
CALL = Payoff("vanilla_call", 10.0)


@functools.cache
def coarse():
    """The MMM price and the expansion bundle on a 20-step grid."""
    return mmm_and_expansion(PARAMS, CALL, GridSpec.build(PARAMS, 10.0, 20),
                             (0,))


def return_rule_cases():
    """(id, call, x): ``call(x)`` evaluates one numeric function at x."""
    cases = [("bs_price", lambda x: bs_price(CALL, 0.5, x, 0.3), 9.0)]
    for kind in ("vanilla_call", "digital_put"):
        for name in ("price", "delta", "theta_ttm"):
            cases.append((f"bs_greeks.{name}-{kind}",
                          lambda x, k=kind, n=name: getattr(
                              bs_greeks(Payoff(k, 10.0), 0.5, x, 0.3), n),
                          9.0))
    for regime in (0, 1):
        cases.append((f"adjusted_ttm-regime{regime}",
                      lambda x, r=regime: adjusted_ttm(PARAMS, x, r), 0.7))
    for kind in liqshock.PAYOFF_KINDS:
        cases.append((f"Payoff.value-{kind}",
                      lambda x, k=kind: Payoff(k, 10.0).value(x), 11.0))
    for factory in (merton_factors, single_shock_factors):
        for name in ("F0", "F1", "F2"):
            cases.append((f"{factory.__name__}.{name}",
                          lambda x, f=factory, n=name: getattr(f(PARAMS), n)(x),
                          0.3))
    for measure in liqshock.MEASURES:
        for k, name in enumerate(("nu01", "nu10")):
            cases.append((f"IntensityCurve.rates.{name}-{measure}",
                          lambda x, m=measure, k=k: intensity_curve(
                              PARAMS, m).rates(x)[k], 0.3))
    cases += [
        ("PriceSurface.quote", lambda x: coarse()[1].p0.quote(x), 9.0),
        ("PriceSurface.delta", lambda x: coarse()[1].p0.delta(x), 9.0),
        ("LinearPriceResult.quote", lambda x: coarse()[0].quote(x), 9.0),
        ("first_order_quote",
         lambda x: coarse()[1].first_order_quote(x, 0.5), 9.0),
    ]
    return [pytest.param(call, x, id=name) for name, call, x in cases]


@pytest.mark.parametrize("call, x", return_rule_cases())
def test_a_scalar_call_is_the_one_element_call_0d(call, x):
    """numpy in, numpy out: a scalar argument gives a numpy value of shape
    (), bit for bit the one element of the call on a one-element array."""
    out = call(x)
    one = call(np.array([x]))
    assert isinstance(out, (np.ndarray, np.generic)) and out.shape == ()
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert np.asarray(out).tobytes() == one.tobytes()
