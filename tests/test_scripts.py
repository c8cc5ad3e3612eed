import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def test_pentagon_experiment_script(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "pentagon_experiment.py"),
         "--grid", "120", "--outdir", str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = {"summary.json"} | {
        f"{label}.{kind}.csv"
        for label in ("t0", "t_third", "t_two_thirds", "t_period")
        for kind in ("tangent", "curve")
    }
    assert {p.name for p in tmp_path.iterdir()} == names
    tangent = (tmp_path / "t_third.tangent.csv").read_text().splitlines()
    curve = (tmp_path / "t_third.curve.csv").read_text().splitlines()
    assert len(tangent) == 121 and len(curve) == 122


def test_output_digests_script(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SOURCE_DATE_EPOCH", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digests.py"), "--smoke"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.iterdir())
    header, *lines = proc.stdout.splitlines()
    # numpy's version and SIMD sets first, then four verify calls with one
    # stdout each, four simulate calls with stdout, two CSVs and the
    # summary each
    assert re.fullmatch(
        rf"# numpy {re.escape(np.__version__)}; baseline: [\w,]+; dispatched: [\w,]+", header)
    assert len(lines) == 4 + 4 * 4
    digests = {}
    for line in lines:
        digest, rc, rest = line.split("  ", 2)
        assert len(digest) == 64 and rc == "rc=0"
        digests[rest] = digest
    # the digest is of the bytes the command line writes, timestamp pinned
    cli = subprocess.run(
        [sys.executable, "-m", "polyfil", "verify", "--suite", "lemma4", "--q-max", "8"],
        capture_output=True, env=dict(env, SOURCE_DATE_EPOCH="0"), cwd=tmp_path, timeout=120,
    )
    assert cli.returncode == 0
    want = hashlib.sha256(cli.stdout).hexdigest()
    assert digests["verify --suite lemma4 --q-max 8 | stdout"] == want
    # the summary file holds the stdout bytes
    sim = "simulate --M 5 --p 1 --q 3 --grid 240 --out sim"
    assert digests[f"{sim} | stdout"] == digests[f"{sim} | sim.summary.json"]


def test_output_digests_records_error_paths(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "output_digests", ROOT / "scripts" / "output_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    monkeypatch.chdir(tmp_path)
    empty = hashlib.sha256(b"").hexdigest()
    # a usage error and an argparse exit: rc 2, a message on stderr only
    for invocation in ("rho --M 2 --q 3", "sums --p 1 --q 12 --k 5 --k-max 2"):
        out, err = digests.digest_lines(invocation, stderr=True)
        assert out == f"{empty}  rc=2  {invocation} | stdout"
        assert err.endswith(f"  rc=2  {invocation} | stderr")
        assert not err.startswith(empty)
    # an exception that escapes the CLI is recorded by name
    def raises(argv):
        raise OverflowError("too large")

    monkeypatch.setattr(digests.cli, "main", raises)
    assert digests.digest_lines("rho --M 5 --q 3", stderr=True) == [
        f"{empty}  rc=OverflowError  rho --M 5 --q 3 | stdout",
        f"{empty}  rc=OverflowError  rho --M 5 --q 3 | stderr",
    ]
    assert not list(tmp_path.iterdir())
