import ast
import importlib
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


def _identifiers(path: Path) -> set[str]:
    """The names a file's code uses: every ast.Name, every attribute and
    every imported name.  Docstrings, comments and other strings do not
    count, nor do the names a def or class line binds."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _unused_public_names(name: str) -> list[str]:
    module = importlib.import_module(f"polyfil.{name}")
    used = set().union(*map(_identifiers, USAGE_SOURCES))
    return [entry for entry in module.__all__ if entry not in used]


@pytest.mark.parametrize("name", ["arith", "gauss", "rotor", "sums", "vfe"])
def test_every_public_name_has_a_caller_outside_the_unit_tests(name):
    assert _unused_public_names(name) == []


def test_every_error_type_is_raised_in_the_package():
    # an exception class that nothing raises is dead API; the base class
    # the others derive from is exempt
    package = ROOT / "src" / "polyfil"
    classes = [node for node in ast.parse((package / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    raised = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "attr", getattr(exc, "id", None)))
    defined = {node.name for node in classes} - bases
    assert defined and sorted(defined - raised) == []


def _private_imports(path: Path) -> list[str]:
    """The underscore names (dunders exempt) that a module imports from
    another polyfil module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").partition(".")[0] != "polyfil":
            continue
        found += [alias.name for alias in node.names
                  if alias.name.startswith("_") and not alias.name.startswith("__")]
    return found


def test_no_module_imports_a_private_name_of_another():
    # a module's underscore names are its own; a table's phase fit, for
    # one, is read as ThetaSequence.phase, not through gauss._fit_phase
    package = ROOT / "src" / "polyfil"
    found = {path.name: _private_imports(path) for path in sorted(package.glob("*.py"))}
    assert "gauss.py" in found
    assert {name: names for name, names in found.items() if names} == {}
