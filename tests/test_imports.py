"""Every module-level import of the package is used in its module."""

import ast
import importlib
import importlib.util
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


def _load_layers():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_layers()
# counters whose functions left src/ earlier; they read 0 on every workload
EXPECTED_MISSING = [("linalg", "gm_compose"), ("linalg", "nullspace"), ("paths", "_apply_window"),
                    ("walls", "per_wall")]
COUNTED = sorted(set(LAYERS.CALLS.values()).union(*LAYERS.RATIOS.values()) - set(EXPECTED_MISSING))
HOOKED = sorted({(module, name) for module, name, _ in LAYERS.PIPELINE_HOOKS + LAYERS.BALL_HOOKS})


@pytest.mark.parametrize("module,name", COUNTED)
def test_counted_functions_stay_module_level(module, name):
    # perfbench's counted run reads these call counts off the profiler by
    # module file and function name: a rename, a nesting or a wrapper would
    # silently read 0
    mod = importlib.import_module(f"affine_crystals.{module}")
    fn = getattr(mod, name, None)
    assert inspect.isfunction(fn), f"{module}.{name} is not a plain function"
    assert fn.__module__ == mod.__name__
    assert fn.__qualname__ == fn.__code__.co_name == name


@pytest.mark.parametrize("module,name", EXPECTED_MISSING)
def test_expected_missing_counters_stay_missing(module, name):
    # a counter back in src/ belongs in COUNTED, under the check above
    assert not hasattr(importlib.import_module(f"affine_crystals.{module}"), name)


@pytest.mark.parametrize("module,name", HOOKED)
def test_hooked_names_are_callable(module, name):
    # the traced run replaces these attributes at call time and stops with
    # HookError when one is gone
    assert callable(getattr(importlib.import_module(f"affine_crystals.{module}"), name, None))


@pytest.mark.parametrize("name", ["walls.py", "quiver.py", "iso.py"])
def test_rank_and_weight_come_from_the_data(name):
    # a wall tuple carries its rank n and weight lam, and a path its lam and
    # kind: a public function that takes walls or a path reads them off it
    # instead of taking them beside it, where they could disagree
    tree = ast.parse((Path(affine_crystals.__file__).parent / name).read_text(encoding="utf-8"))
    beside = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            params = {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
            if params & {"n", "lam"} and params & {"walls", "path"}:
                beside.append(node.name)
    assert beside == []
