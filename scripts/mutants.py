#!/usr/bin/env python3
"""A table of wrong programs and the verdict the CLI gives each.

Every row is a one-line edit to a copy of src/polyfil and the command
whose exit code judges it:

- "rejected": the command must exit 1, a failed check.  A check whose
  own precondition fails (an admissible Gauss sum that vanishes, a
  product off the unit sphere) is one; a crash exits 4 instead;
- "equivalent": the edit does not change what the command checks, so it
  must exit 0; the note says why;
- "survives": a wrong program that no verdict rejects yet, so it exits
  0 today; the note names the open ROADMAP item that should reject it.
  The change that does flips the row to "rejected".

The old text of a row must occur exactly once in its file, so that a
refactor cannot skip a mutant silently: it must rewrite the row.  Each
row ends with its serial, the next unused number when the row is added;
its test id is "<expected>-<serial>", so rows may sit anywhere in the
table, grouped by what they mutate.

Usage:
    python scripts/mutants.py    # run every row on a scratch copy, print its verdict
"""

import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polyfil"

VERIFY = "verify --suite all --q-max 17 --m-max 10"
SIMULATE = "simulate --M 5 --p 1 --q 3 --grid 480 --out sim"
SIMULATE_SQUARE = "simulate --M 4 --p 1 --q 3 --grid 768 --out sim"

EXPECTED_EXIT = {"rejected": 1, "equivalent": 0, "survives": 0}


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    command: str
    expected: str
    note: str
    serial: int


def row_id(mutant: Mutant) -> str:
    """The row's test id, "<expected>-<serial>".  The serial is fixed when
    the row is added and never reused, so a row inserted anywhere in the
    table renames no other row's test."""
    return f"{mutant.expected}-{mutant.serial}"


TIME = "return 2.0 * math.pi * self.p / (self.q * self.M**2)"

MUTANTS = (
    Mutant("rotor.py", "exponent = 1.0 / admissible_count(q)", "exponent = 1.0 / q",
           VERIFY, "rejected", "theorem2: the even-q exponent 2/q becomes 1/q", 0),
    Mutant("gauss.py", "np.multiply.outer(-p % q,", "np.multiply.outer(p % q,",
           VERIFY, "rejected", "lemma4: the chirp's sign", 1),
    Mutant("sums.py", "[phase.residues(n)]", "[phase.residues(n + 1)]",
           VERIFY, "rejected", "sums: E_k over the shifted indices n + 1", 2),
    Mutant("sums.py", "[phase.residues(n)]", "[3 * phase.residues(n) % phase.denominator]",
           VERIFY, "rejected", "sums: E_k with a -> 3a", 3),
    Mutant("sums.py", "flat = arguments.ravel().tolist()",
           "flat = (arguments + 0.1 * n).ravel().tolist()",
           VERIFY, "rejected", "sums: T_k from the arguments + 0.1 n", 4),
    Mutant("sums.py", "flat = arguments.ravel().tolist()",
           "flat = (arguments + 2 * np.pi * n**3 / theta.q).ravel().tolist()",
           VERIFY, "rejected", "sums: T_k with an added phase 2 pi n^3 / q", 5),
    Mutant("rotor.py", "(1.0 - DETUNING) * rhos, (1.0 + DETUNING) * rhos",
           "(1.0 - DETUNING / 10) * rhos, (1.0 + DETUNING / 10) * rhos",
           VERIFY, "rejected", "theorem2: the probe at a tenth of the detuning its floor "
           "scales with (item 14)", 6),
    Mutant("gauss.py", "ref = int(table.admissible_arguments()[0][0])",
           "ref = int(table.admissible_arguments()[0][:2][-1])",
           VERIFY, "rejected", "lemma4 and sums: the phase fit at the second admissible "
           "index, where there are two", 7),
    Mutant("rotor.py", "theta.admissible_arguments()[1][:, ::-1]",
           "theta.admissible_arguments()[1]",
           VERIFY, "equivalent", "ascending factor order conjugates the product, which "
           "keeps its rotation angle", 8),
    Mutant("cli.py", "theta_sequences([p for p in range(1, q + 1) if gcd(p, q) == 1], q)",
           "theta_sequences([p + q for p in range(1, q + 1) if gcd(p, q) == 1], q)",
           VERIFY, "equivalent", "p + q is p one period later: every table reads p mod q", 9),
    Mutant("vfe.py", TIME, TIME + " * 1.01", SIMULATE, "survives",
           "item 5: a detuned-time control; the pentagon at time x 1.01", 10),
    Mutant("vfe.py", TIME, TIME + " * 1.05", SIMULATE, "survives",
           "item 5: a detuned-time control; the pentagon at time x 1.05", 11),
    Mutant("vfe.py", TIME, TIME + " * 0.95", SIMULATE, "survives",
           "item 5: a detuned-time control; the pentagon at time x 0.95", 12),
    Mutant("vfe.py", TIME, TIME + " * 1.01", SIMULATE_SQUARE, "survives",
           "item 5: a detuned-time control; the square at time x 1.01", 16),
    Mutant("vfe.py", TIME, TIME + " * 1.05", SIMULATE_SQUARE, "survives",
           "item 5: a detuned-time control; the square at time x 1.05", 17),
    Mutant("vfe.py", TIME, TIME + " * 0.95", SIMULATE_SQUARE, "survives",
           "item 5: a detuned-time control; the square at time x 0.95", 18),
    Mutant("vfe.py", TIME, TIME.replace("self.p", "(self.q - self.p)"), SIMULATE, "survives",
           "item 16: the pentagon at the mirror p = q - p, whose rho is the same", 19),
    Mutant("gauss.py", "VANISHING_RELATIVE_TOL = 1e-9", "VANISHING_RELATIVE_TOL = 1e9",
           VERIFY, "rejected", "vanishing: every entry flagged vanishing, so no "
           "admissible one has an argument", 13),
    Mutant("rotor.py", "sin_half * s", "1.001 * sin_half * s",
           VERIFY, "rejected", "theorem2: each factor's beta scaled by 1.001, so the "
           "product leaves the unit sphere", 14),
    Mutant("gauss.py", "_argument(self.values[:, n])",
           "_argument(self.values[:, (n + 1) % self.q])",
           VERIFY, "rejected", "lemma4, sums and theorem2: each admissible argument read "
           "from the next column", 15),
)


def apply(mutant: Mutant, package: Path) -> None:
    """Edit the copy of the package at `package` in place.  Raises
    ValueError unless the old text occurs exactly once."""
    path = package / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.file}: {mutant.old!r} occurs {count} times, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(command: str, src: Path, cwd: Path) -> subprocess.CompletedProcess:
    """The CLI command run on the package under `src`, in `cwd`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "polyfil", *shlex.split(command)],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


def verdict(proc: subprocess.CompletedProcess) -> str:
    """"accepted" on exit 0, "rejected" on exit 1, "crashed" on exit 4
    (an internal error), or the exit code."""
    return {0: "accepted", 1: "rejected", 4: "crashed"}.get(proc.returncode,
                                                           f"rc={proc.returncode}")


def judge(mutant: Mutant, workdir: Path) -> str:
    """The verdict of the command on a mutated copy of the package, made
    under `workdir`."""
    src = workdir / "src"
    shutil.copytree(PACKAGE, src / "polyfil", ignore=shutil.ignore_patterns("__pycache__"))
    apply(mutant, src / "polyfil")
    return verdict(run(mutant.command, src, workdir))


def main() -> int:
    wrong = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as workdir:
            got = judge(mutant, Path(workdir))
        want = "rejected" if EXPECTED_EXIT[mutant.expected] else "accepted"
        wrong += got != want
        print(f"{got:9} {row_id(mutant):14} {mutant.file}: {mutant.note}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
