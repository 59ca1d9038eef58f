"""Every exported name resolves, and the README's API table names only
exported names.

A name left in an ``__all__`` after its definition is deleted only fails on
``from liqshock import *`` (or ``from liqshock.<module> import *``), which
nothing else in the suite does.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import liqshock

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
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("The main entry points:", 1)[1].split("\n\n")[1]
    rows = table.splitlines()[2:]
    assert rows and all(row.startswith("|") for row in rows)
    for row in rows:
        names = re.findall(r"`([^`]+)`", row.split("|")[1])
        assert names, row
        assert [name for name in names if name not in liqshock.__all__] == []
