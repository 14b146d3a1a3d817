"""Dead-code and dependency guards over ``src/stretchnet``.

Every module uses each name it imports, and every module-level private
name (``_x``) is read somewhere in ``src/``: the leftovers a deletion
leaves behind.  Only ``shapes`` imports scipy, so ``import stretchnet``
needs numpy alone.  Only ``transform`` calls the stretch planner's
parts.  The source checks read the source with ``ast`` and import
nothing; the import check runs in a fresh interpreter.
"""

import ast
import subprocess
import sys
from pathlib import Path

from conftest import child_env

SRC = Path(__file__).resolve().parent.parent / "src" / "stretchnet"
MODULES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def names_read(tree: ast.Module) -> set:
    """Names the module loads, attributes it reads and the strings of its ``__all__``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
    return read


def imported(tree: ast.Module) -> set:
    """The names the module binds by import, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def module_level_private(tree: ast.Module) -> set:
    """Functions, classes and variables the module defines at top level
    under a private name (one leading underscore, not a dunder)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_import_is_used():
    unused = {name: sorted(imported(tree) - names_read(tree)) for name, tree in MODULES.items()}
    assert {name: names for name, names in unused.items() if names} == {}


def test_every_private_name_is_read():
    read = set().union(*map(names_read, MODULES.values()))
    unread = {name: sorted(module_level_private(tree) - read) for name, tree in MODULES.items()}
    assert {name: names for name, names in unread.items() if names} == {}


def imported_packages(tree: ast.Module) -> set:
    """Top-level packages the module imports absolutely."""
    packages = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            packages.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_only_shapes_imports_scipy():
    assert {name for name, tree in MODULES.items() if "scipy" in imported_packages(tree)} == {"shapes.py"}


def test_import_stretchnet_loads_no_scipy():
    code = "import sys, stretchnet; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True)
    assert proc.stdout.strip() == "[]"


def called_names(tree: ast.Module) -> set:
    """Names the module calls, bare or as an attribute."""
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            called.add(f.id if isinstance(f, ast.Name) else getattr(f, "attr", None))
    return called


def test_only_transform_plans_a_stretch():
    # the default bound, the rotation and the lambda are chosen in one
    # place; everything else takes them from plan_stretch
    planners = {"default_theta_max", "choose_rotation", "required_lambda"}
    assert {name for name, tree in MODULES.items() if called_names(tree) & planners} == {"transform.py"}
