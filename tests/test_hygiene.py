"""Dead-code guard over ``src/stretchnet``: the leftovers a deletion leaves
behind.  Every module uses each name it imports, and every module-level
private name (``_x``) is read somewhere in ``src/``.  Only ``ast`` is
needed, so the check reads the source and imports nothing.
"""

import ast
from pathlib import Path

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
