"""Every public name a qscale module exports resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import qscale

MODULES = sorted(
    f"qscale.{info.name}" for info in pkgutil.iter_modules(qscale.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_submodule_not_shadowed(name):
    # the package attribute named after a submodule is that module
    module = importlib.import_module(name)
    assert getattr(qscale, name.rpartition(".")[2]) is module


def test_star_import():
    namespace: dict = {}
    exec("from qscale import *", namespace)
    assert set(qscale.__all__) <= set(namespace)
