import importlib

import pytest


@pytest.mark.parametrize("name", ["arith", "gauss", "rotor", "sums", "vfe"])
def test_all_entries_resolve_and_star_import(name):
    # a stale __all__ entry makes the star import raise AttributeError
    module = importlib.import_module(f"polyfil.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from polyfil.{name} import *", namespace)
    assert [entry for entry in module.__all__ if entry not in namespace] == []
