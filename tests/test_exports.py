"""Every library module exports only names it defines.

A deleted function left behind in ``__all__`` breaks ``import *``; this
walks every module of the package (``__main__`` aside: importing it runs
the CLI) and checks both.
"""

import importlib
import pkgutil

import pytest

import dyncapmoe

MODULES = sorted(m.name for m in pkgutil.iter_modules(dyncapmoe.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(f"dyncapmoe.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from dyncapmoe.{name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
