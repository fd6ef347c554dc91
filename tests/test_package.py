"""The package namespace re-exports each submodule's public names exactly once."""

import ncfrac
from ncfrac import constants, convergents, dynamics, ergodic, ulam


def test_exports_resolve_once():
    names = ncfrac.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(ncfrac, name) is not None
    assert not any("branch_cutoff" in name for name in names)
