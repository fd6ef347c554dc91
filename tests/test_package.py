"""The package namespace re-exports each submodule's public names exactly once,
and every docstring example in the package runs as written."""

import doctest
import importlib
import pkgutil

import ncfrac
from ncfrac import constants, convergents, dynamics, ergodic, ulam


def test_exports_resolve_once():
    names = ncfrac.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(ncfrac, name) is not None
    assert not any("branch_cutoff" in name for name in names)


def test_docstring_examples_run():
    failed = attempted = 0
    for info in pkgutil.iter_modules(ncfrac.__path__):
        result = doctest.testmod(importlib.import_module(f"ncfrac.{info.name}"))
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 5
