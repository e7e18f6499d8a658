"""The package's import surface: each module's ``__all__``."""

import importlib
import inspect
import pkgutil

import pytest

import fldp

_MODULES = [m.name for m in pkgutil.iter_modules(fldp.__path__) if not m.name.startswith("_")]


def _is_definition(value) -> bool:
    return inspect.isfunction(value) or inspect.isclass(value)


@pytest.mark.parametrize("name", _MODULES)
def test_all_lists_exactly_the_public_functions_and_classes(name):
    module = importlib.import_module(f"fldp.{name}")
    public = {
        attr
        for attr, value in vars(module).items()
        if not attr.startswith("_") and _is_definition(value) and value.__module__ == module.__name__
    }
    listed = module.__all__
    assert len(set(listed)) == len(listed)
    # constants may be listed beside them, but every listed name exists
    assert all(hasattr(module, attr) for attr in listed)
    assert {attr for attr in listed if _is_definition(getattr(module, attr))} == public
