"""Every exported name resolves, the README's API table names only
exported names, and the README's Python examples run.

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
