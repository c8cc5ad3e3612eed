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


def test_package_namespace_is_the_modules():
    # the layers are imported per module; no flat re-export layer
    polyfil = importlib.import_module("polyfil")
    public = {name for name in vars(polyfil) if not name.startswith("_")}
    assert public == {"arith", "cli", "errors", "gauss", "rotor", "sums", "vfe"}
