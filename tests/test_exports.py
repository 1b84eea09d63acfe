"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib

import pytest

MODULES = [
    "heavyspec",
    "heavyspec.cli",
    "heavyspec.experiment",
    "heavyspec.limit_law",
    "heavyspec.linear_filter",
    "heavyspec.rv_noise",
    "heavyspec.spectral",
]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
