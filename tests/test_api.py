"""The public surface: every exported name exists, once."""

import importlib
import pkgutil

import pytest

import galpha

MODULES = sorted(f"galpha.{m.name}" for m in pkgutil.iter_modules(galpha.__path__))


@pytest.mark.parametrize("name", ["galpha", *MODULES])
def test_all_names_exist_once(name):
    """A stale ``__all__`` entry breaks ``from galpha import *``."""
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), sorted(n for n in set(exported) if exported.count(n) > 1)
    assert [n for n in exported if not hasattr(module, n)] == []

