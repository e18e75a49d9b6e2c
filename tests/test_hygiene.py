"""Source hygiene: every name a module imports is used by that module."""

import ast
from pathlib import Path

import pytest

import fusioncalc

PACKAGE = Path(fusioncalc.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    """Names listed in a literal `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in ast.walk(node.value)
                    if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # quoted annotations such as -> "NameSet"
    used |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.isidentifier()}
    used |= _exported(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_an_unused_import():
    source = ("from typing import Optional, Iterable\n"
              "import os\n"
              "def f(x: Iterable) -> None:\n"
              "    return None\n")
    assert unused_imports(source) == ["Optional (line 1)", "os (line 2)"]
    assert unused_imports("from .x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
