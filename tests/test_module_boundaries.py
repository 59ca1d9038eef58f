"""Each module of the package keeps its internals to itself, and imports
only what it uses.

No module imports a ``_``-prefixed name from another one, or reads one
through an imported module, so a private helper's layout is known to the
one module that defines it.  Every module-level import is used,
re-exported through ``__all__``, or bound because the benchmark's span
tracer (``perfbench/spans.py``) patches it in that module by name.  The
project configures no linter, so these checks are tests."""

from __future__ import annotations

import ast
from pathlib import Path

from test_trace_targets import load_spans

SRC = Path(__file__).resolve().parents[1] / "src" / "liqshock"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def package_import_froms(tree: ast.Module):
    """The ``from ... import`` statements that import from the package."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level == 1
                 or (node.level == 0 and (node.module or "").startswith("liqshock")))]


def private_imports(path: Path) -> list[str]:
    """``_``-prefixed names a module imports from the package, and those it
    reads as ``alias._name`` through a package module bound by an import
    (``from . import bs as _bs`` binds ``_bs``)."""
    tree = parse(path)
    froms = package_import_froms(tree)
    names = [alias.name for node in froms for alias in node.names
             if alias.name.startswith("_")]
    modules = {alias.asname or alias.name for node in froms
               if node.module in (None, "liqshock") for alias in node.names}
    return names + [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")]


def test_no_module_imports_private_names_of_another():
    found = {path.name: names for path in sorted(SRC.glob("*.py"))
             if (names := private_imports(path))}
    assert found == {}


def unused_imports(path: Path, patched: set[str]) -> list[str]:
    """Names bound by the module-level imports of ``path`` that the module
    never reads, lists in ``__all__`` or has patched by the tracer."""
    tree = parse(path)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name).split(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    kept = read | exported | patched
    return [name for name in bound if name not in kept]


def test_every_module_level_import_is_used():
    targets = load_spans().TARGETS
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = f"liqshock.{path.stem}"
        patched = {attr for module_name, attr, _, _ in targets
                   if module_name == module}
        if names := unused_imports(path, patched):
            found[path.name] = names
    assert found == {}
