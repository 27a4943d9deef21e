"""Every module-level import of the package is used in its module."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import affine_crystals

MODULES = sorted(p for p in Path(affine_crystals.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    assert _unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "line 1: os", "line 2: b"]


@pytest.mark.parametrize("module,name", [
    ("paths", "path_apply"), ("paths", "_apply_window"), ("paths", "ground_elem"),
    ("walls", "path_to_walls"), ("crystal_core", "signature"),
])
def test_counted_functions_stay_module_level(module, name):
    # perfbench's counted run reads these call counts off the profiler by
    # module file and function name: a rename, a nesting or a wrapper would
    # silently read 0
    mod = importlib.import_module(f"affine_crystals.{module}")
    fn = getattr(mod, name, None)
    assert inspect.isfunction(fn), f"{module}.{name} is not a plain function"
    assert fn.__module__ == mod.__name__
    assert fn.__qualname__ == fn.__code__.co_name == name
