import importlib
import inspect

import pytest

import hardylab

LIBRARY_MODULES = ("besselpair", "functional", "geometry", "identities",
                   "profiles", "quadrature", "reports", "scenarios",
                   "sharpness", "spectral")


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_module_exports_only_what_it_defines(name):
    # a function or class listed in a module's __all__ is defined there; the
    # package __init__ alone re-exports
    module = importlib.import_module(f"hardylab.{name}")
    for attr in module.__all__:
        obj = getattr(module, attr)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, (name, attr)


def test_package_exports_resolve():
    for attr in hardylab.__all__:
        assert hasattr(hardylab, attr), attr
