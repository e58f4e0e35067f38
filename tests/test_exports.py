"""Every library module's ``__all__`` names real objects that ``maenv`` re-exports."""

import importlib

import pytest

import maenv

# torus has no __all__; scenarios and the private modules are not re-exported
LIBRARY_MODULES = ["radial", "obstacle", "equations", "energy", "viscosity", "fields"]


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_all_names_exist_and_are_reexported(name):
    module = importlib.import_module(f"maenv.{name}")
    missing = [x for x in module.__all__ if not hasattr(module, x)]
    assert not missing, f"maenv.{name}.__all__ lists undefined names {missing}"
    absent = [x for x in module.__all__ if getattr(maenv, x, None) is not getattr(module, x)]
    assert not absent, f"maenv does not re-export {absent} from maenv.{name}"
