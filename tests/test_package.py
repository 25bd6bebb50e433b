"""Package hygiene: no module imports a name it never uses, and every name
an `__all__` lists resolves."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tiernet

MODULES = sorted(info.name for info in pkgutil.iter_modules(tiernet.__path__))


def _unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other node of the module
    reads; `__future__` imports and names listed in `__all__` are exempt."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used and name not in exported
    ]


def test_unused_import_detector():
    source = "import math\nimport os\nfrom enum import Enum\nx = math.pi\n"
    assert _unused_imports(source) == ["line 2: os", "line 3: Enum"]
    assert _unused_imports("from . import a\n__all__ = ['a']\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_are_used(module):
    path = Path(tiernet.__path__[0]) / f"{module}.py"
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", ["tiernet"] + [f"tiernet.{m}" for m in MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mod, name)] == []
