"""Every exported name resolves.

A name left in an ``__all__`` after its definition is deleted only fails on
``from liqshock import *`` (or ``from liqshock.<module> import *``), which
nothing else in the suite does.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import liqshock

MODULES = ["liqshock"] + [f"liqshock.{m.name}"
                          for m in pkgutil.iter_modules(liqshock.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []
