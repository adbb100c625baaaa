"""Static checks on the package source."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sivreg").glob("*.py"))
# every Python file of the repository: a name any of them imports or reads is in use
REPO_SOURCES = sorted(path for folder in ("src", "tests", "demos", "bench")
                      for path in (ROOT / folder).rglob("*.py"))


def _unused_imports(tree):
    """Names an import binds that the module never reads; names in ``__all__`` count as read."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def _module_level_names(tree):
    """Names a module binds at its top level by assignment, def or class, with their lines."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound[name.id] = node.lineno
    return bound


def _names_read_across_the_repo():
    """What the files of the repository read from the package: the (module, name) pairs
    they import by name (``from sivreg.register import X``, ``from .register import X``)
    and every name they read as an attribute (``anything.X``)."""
    imported, attributes = set(), set()
    for path in REPO_SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module:
                package, _, module = node.module.rpartition(".")
                if node.level == 1 or package == "sivreg":
                    imported.update((module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return imported, attributes


def _unread_names(path, imported, attributes):
    """Module-level names of one module that it never loads, no file imports by name and
    no file reads as an attribute; dunder names are exempt."""
    tree = ast.parse(path.read_text(), str(path))
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in _module_level_names(tree).items()
                  if name not in loaded and (path.stem, name) not in imported
                  and name not in attributes
                  and not (name.startswith("__") and name.endswith("__")))


def test_every_module_level_name_is_read():
    imported, attributes = _names_read_across_the_repo()
    unread = {path.name: _unread_names(path, imported, attributes) for path in SOURCES}
    assert {name: found for name, found in unread.items() if found} == {}
