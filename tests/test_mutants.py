"""The verdict power of the CLI: every row of scripts/mutants.py, a wrong
or equivalent program, gets the verdict its row expects."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("command", sorted({row.command for row in mutants.MUTANTS}))
def test_the_unmutated_package_passes_every_command(tmp_path, command):
    # a rejection means something only where the package itself passes
    proc = mutants.run(command, ROOT / "src", tmp_path)
    assert mutants.verdict(proc) == "accepted", proc.stderr


def test_every_row_has_its_own_id():
    # an id is the row's own, so inserting a row renames no other test
    ids = [mutants.row_id(row) for row in mutants.MUTANTS]
    assert len(set(ids)) == len(ids)
    assert sorted(row.serial for row in mutants.MUTANTS) == list(range(len(ids)))


@pytest.mark.parametrize("row", mutants.MUTANTS, ids=mutants.row_id)
def test_mutant_gets_its_expected_verdict(tmp_path, row):
    want = "rejected" if mutants.EXPECTED_EXIT[row.expected] else "accepted"
    assert mutants.judge(row, tmp_path) == want, row.note


def test_a_row_whose_old_text_is_not_found_once_fails(tmp_path):
    (tmp_path / "m.py").write_text("x = 1\nx = 1\n")
    for old in ("x = 1", "y = 2"):
        with pytest.raises(ValueError, match="not once"):
            mutants.apply(mutants.Mutant("m.py", old, "x = 2", "", "rejected", "", 0), tmp_path)
    assert (tmp_path / "m.py").read_text() == "x = 1\nx = 1\n"
