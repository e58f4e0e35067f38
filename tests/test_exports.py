"""Every library module's ``__all__`` names real objects that ``maenv`` re-exports,
``maenv`` imports each library module by ``*`` and its public names are
exactly the union of those lists, ``maenv.scenarios`` imports only public
names, and ``import maenv`` loads no scipy subpackage the library does not
use."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import maenv

# scenarios, cli and the private modules are not re-exported
LIBRARY_MODULES = ["errors", "torus", "radial", "obstacle", "equations", "energy", "viscosity", "fields"]


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_all_names_exist_and_are_reexported(name):
    module = importlib.import_module(f"maenv.{name}")
    missing = [x for x in module.__all__ if not hasattr(module, x)]
    assert not missing, f"maenv.{name}.__all__ lists undefined names {missing}"
    absent = [x for x in module.__all__ if getattr(maenv, x, None) is not getattr(module, x)]
    assert not absent, f"maenv does not re-export {absent} from maenv.{name}"


def _relative_imports(module):
    """(module name, imported names) of each ``from .x import ...`` in a maenv module's source."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, [alias.name for alias in node.names])
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_reexported_names_are_in_all(name):
    # a ``*`` import republishes the module's __all__ and nothing else
    imports = [names for source, names in _relative_imports(maenv) if source == name]
    assert imports == [["*"]], f"maenv/__init__.py imports {imports} from maenv.{name}, not * alone"


def test_public_names_are_the_union_of_all():
    imports = _relative_imports(maenv)
    by_name = [f"{source}.{names}" for source, names in imports if names != ["*"] or source not in LIBRARY_MODULES]
    assert not by_name, f"maenv/__init__.py imports by name: {by_name}"
    public = {
        x for x, value in vars(maenv).items()
        if not x.startswith("_") and not isinstance(value, types.ModuleType)
    }
    listed = [x for name in LIBRARY_MODULES for x in importlib.import_module(f"maenv.{name}").__all__]
    assert len(listed) == len(set(listed)), "two library modules list the same name"
    assert public == set(listed)


def test_scenarios_import_only_public_names():
    import maenv.scenarios

    # dunder metadata such as ``from . import __version__`` is public
    private = [
        f"{source}.{x}"
        for source, names in _relative_imports(maenv.scenarios)
        for x in names
        if x.startswith("_") and not x.endswith("__")
    ]
    assert not private, f"maenv.scenarios imports private names {private}"


def test_import_loads_no_unused_scipy_subpackage():
    # a fresh interpreter, so the test session's own imports do not count
    src = str(Path(maenv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, maenv; print(sorted(m for m in ('scipy.ndimage', 'scipy.optimize') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
