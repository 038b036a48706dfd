"""Every name a module lists in ``__all__`` must exist: a stale entry
only fails at ``from valadj... import *``, long after the name went."""

import importlib
import pkgutil

import pytest

import valadj

MODULES = ["valadj"] + [
    f"valadj.{m.name}" for m in pkgutil.iter_modules(valadj.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
