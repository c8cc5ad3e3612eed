import importlib
import re
from pathlib import Path

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


# Where a public name must be used to earn its place: the package itself,
# the scripts, the benchmark and the acceptance suite.  A name that only
# unit tests call is a test oracle and belongs in tests/.
ROOT = Path(__file__).resolve().parent.parent
USAGE_SOURCES = (
    sorted((ROOT / "src" / "polyfil").glob("*.py"))
    + sorted((ROOT / "scripts").glob("*.py"))
    + sorted((ROOT / "perfbench").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)


def _unused_public_names(name: str) -> list[str]:
    module = importlib.import_module(f"polyfil.{name}")
    own = ROOT / "src" / "polyfil" / f"{name}.py"
    others = "\n".join(path.read_text() for path in USAGE_SOURCES if path != own)
    # a name's own __all__ entry and def/class line do not count as uses
    own_text = re.sub(r"^__all__ = \[.*?^\]", "", own.read_text(), flags=re.S | re.M)
    unused = []
    for entry in module.__all__:
        uses = others + re.sub(rf"^\s*(?:def|class)\s+{entry}\b.*$", "", own_text, flags=re.M)
        if not re.search(rf"\b{entry}\b", uses):
            unused.append(entry)
    return unused


@pytest.mark.parametrize("name", ["arith", "gauss", "rotor", "sums", "vfe"])
def test_every_public_name_has_a_caller_outside_the_unit_tests(name):
    assert _unused_public_names(name) == []
