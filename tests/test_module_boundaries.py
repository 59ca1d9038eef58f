"""Each module of the package keeps its internals to itself, imports only
what it uses and reads every private name it defines.

No module imports a ``_``-prefixed name from another one, or reads one
through an imported module, so a private helper's layout is known to the
one module that defines it.  Every module-level import is used,
re-exported through ``__all__``, or bound because the benchmark's span
tracer (``perfbench/spans.py``) patches it in that module by name, and so
is every module-level alias of a public name (``name = other_name``).
Every module-level ``_``-prefixed function, class or constant is read by
name in the module that defines it.  No two functions or methods, nested
ones included, share a body.  The project configures no linter, so these
checks are tests."""

from __future__ import annotations

import ast
from itertools import combinations
from pathlib import Path

from conftest import load_perfbench

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


def imported_names(tree: ast.Module) -> list[str]:
    """Names bound by the module-level imports of ``tree``."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name).split(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    return bound


def aliased_names(tree: ast.Module) -> list[str]:
    """Public names that a module-level assignment binds to another name
    (``solve_x = solve_y``)."""
    return [target.id for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
            for target in node.targets
            if isinstance(target, ast.Name) and not target.id.startswith("_")]


def unused_bindings(path: Path, patched: set[str], binder) -> list[str]:
    """Names that ``binder`` finds bound at module level in ``path`` and
    that the module never reads, lists in ``__all__`` or has patched by
    the tracer."""
    tree = parse(path)
    bound = binder(tree)
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


def unused(binder) -> dict[str, list[str]]:
    """Per module file, the names ``binder`` finds that are not kept."""
    targets = load_perfbench("spans")[0].TARGETS
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = f"liqshock.{path.stem}"
        patched = {attr for module_name, attr, _, _ in targets
                   if module_name == module}
        if names := unused_bindings(path, patched, binder):
            found[path.name] = names
    return found


def test_every_module_level_import_is_used():
    assert unused(imported_names) == {}


def test_every_public_alias_is_used():
    """An alias kept only for the tracer goes once no target patches it."""
    assert unused(aliased_names) == {}


def test_an_unkept_alias_is_found(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("__all__ = ['exported']\n"
                      "def solve(): pass\n"
                      "spare = solve\n"
                      "exported = solve\n"
                      "patched = solve\n"
                      "read = solve\n"
                      "_private = solve\n"
                      "print(read)\n", encoding="utf-8")
    assert unused_bindings(module, {"patched"}, aliased_names) == ["spare"]


def dead_private_names(path: Path) -> list[str]:
    """Module-level ``_``-prefixed functions, classes and constants of
    ``path`` (dunder names aside) that the module never reads by name."""
    tree = parse(path)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, ast.Assign):
            defined += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.append(node.target.id)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__")
            and name not in read]


def test_every_private_name_is_read_in_its_module():
    found = {path.name: names for path in sorted(SRC.glob("*.py"))
             if (names := dead_private_names(path))}
    assert found == {}


def function_bodies(path: Path) -> list[tuple[str, str]]:
    """(``file::qualified.name``, ``ast.dump`` of the body) for every
    function and method of ``path``, nested ones included; a leading
    docstring is not part of the body."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    body = child.body[ast.get_docstring(child) is not None:]
                    found.append((f"{path.name}::{name}",
                                  ast.dump(ast.Module(body, []))))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(parse(path), "")
    return found


def shared_bodies(paths) -> list[tuple[str, str]]:
    """Each pair of functions under ``paths`` whose bodies match."""
    by_body: dict[str, list[str]] = {}
    for path in paths:
        for name, body in function_bodies(path):
            by_body.setdefault(body, []).append(name)
    return [pair for names in by_body.values() for pair in combinations(names, 2)]


def test_no_two_functions_share_a_body():
    assert shared_bodies(sorted(SRC.glob("*.py"))) == []


def test_a_shared_body_is_found(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("def f(x):\n"
                      "    \"Doubled.\"\n"
                      "    return 2 * x\n"
                      "class C:\n"
                      "    def g(self, y):\n"
                      "        return 2 * x\n"
                      "    def h(self, x):\n"
                      "        return 3 * x\n"
                      "def outer():\n"
                      "    def inner():\n"
                      "        \"Also doubled.\"\n"
                      "        return 2 * x\n"
                      "    return inner\n", encoding="utf-8")
    assert shared_bodies([module]) == [("mod.py::f", "mod.py::C.g"),
                                       ("mod.py::f", "mod.py::outer.inner"),
                                       ("mod.py::C.g", "mod.py::outer.inner")]
