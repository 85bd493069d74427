"""Every exported name exists, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import indicsum

MODULES = ["indicsum"] + [
    f"indicsum.{info.name}" for info in pkgutil.iter_modules(indicsum.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
