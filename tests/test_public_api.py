"""Public-API consistency: every ``__all__`` in the package lists real names, once."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)
WITH_ALL = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_every_subpackage_is_covered():
    # The walk must reach the subpackages, or the checks below are vacuous.
    for package in ("repro.annealer", "repro.aspen", "repro.qubo", "repro.studies"):
        assert package in WITH_ALL


@pytest.mark.parametrize("module_name", WITH_ALL)
def test_all_names_resolve_once(module_name):
    module = importlib.import_module(module_name)
    exported = list(module.__all__)
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists undefined names {missing}"
    duplicates = sorted({name for name in exported if exported.count(name) > 1})
    assert not duplicates, f"{module_name}.__all__ lists {duplicates} more than once"


WITH_LAZY = [name for name in MODULES if hasattr(importlib.import_module(name), "_LAZY")]


def test_lazy_exports_are_covered():
    assert "repro.distributed" in WITH_LAZY


@pytest.mark.parametrize("module_name", WITH_LAZY)
def test_lazy_names_resolve(module_name):
    # A lazy export names a submodule attribute that is only looked up on
    # first access, so a stale entry passes every import-time check.
    module = importlib.import_module(module_name)
    for name, submodule in module._LAZY.items():
        target = importlib.import_module(f"{module_name}.{submodule}")
        assert getattr(module, name) is getattr(target, name), f"{module_name}.{name}"
