import os
import subprocess
import sys
from pathlib import Path

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
