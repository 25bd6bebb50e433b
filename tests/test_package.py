"""Package hygiene: no module imports a name it never uses or reads the
process environment, and every name an `__all__` lists resolves."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tiernet

MODULES = sorted(info.name for info in pkgutil.iter_modules(tiernet.__path__))
ENV_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


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


def _environment_reads(source: str) -> list[str]:
    """Uses of the process environment through `os`: attribute reads such as
    `os.environ` and `from os import getenv`-style imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ENV_NAMES
        ):
            found.append(f"line {node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [
                f"line {node.lineno}: from os import {alias.name}"
                for alias in node.names
                if alias.name in ENV_NAMES
            ]
    return found


def test_environment_read_detector():
    source = "import os\nfrom os import getenv\nn = os.environ.get('N')\nos.cpu_count()\n"
    assert _environment_reads(source) == ["line 2: from os import getenv", "line 3: os.environ"]


def test_no_module_reads_the_environment():
    """Behaviour is set by arguments and config documents only: an
    environment variable would be a knob that no CLI option or config key
    shows."""
    found = [
        f"{path.name} {use}"
        for path in sorted(Path(tiernet.__path__[0]).glob("*.py"))
        for use in _environment_reads(path.read_text(encoding="utf-8"))
    ]
    assert found == []


@pytest.mark.parametrize("module", ["tiernet"] + [f"tiernet.{m}" for m in MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mod, name)] == []
