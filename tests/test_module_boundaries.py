"""``pde`` keeps its march internals to itself: no other module of the
package imports a ``_``-prefixed name from it, so only ``pde`` knows the
layout of what a march returns."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "liqshock"


def private_pde_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module, node.level) in (("pde", 1), ("liqshock.pde", 0))
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_private_pde_names():
    found = {path.name: names for path in sorted(SRC.glob("*.py"))
             if path.name != "pde.py" and (names := private_pde_imports(path))}
    assert found == {}
