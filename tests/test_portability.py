"""Verdicts that do not depend on the CPU's SIMD level.

numpy picks its SIMD kernels when it is imported, and the environment
variable NPY_ENABLE_CPU_FEATURES limits that choice for one process.
Output bytes may move in the last bits between levels (numpy's AVX-512
complex multiply and its dispatched transcendental functions differ
from the narrower kernels), so bytes are not compared.  What the output
says must not move: the exit code, every case id and verdict, every
count, and every float to within TOL.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# x86-64-v2 (SSE4.2, POPCNT): leaves out the AVX2 and AVX-512 kernels
RESTRICTED = "X86_V2"

# Floats of the two runs agree to TOL * max(1, |value|).  The largest
# move seen was 5.7e-14, a sums residual (numpy 2.4.6, AVX-512 against
# X86_V2); every pinned verdict tolerance is 1e-9 or larger.
TOL = 1e-12

COMMANDS = {
    "verify": ("verify", "--suite", "all", "--q-max", "8", "--m-max", "4"),
    "simulate": ("simulate", "--M", "5", "--p", "1", "--q", "3", "--grid", "240"),
}


def run(argv, directory, features):
    """One CLI run in a child process in `directory`, with numpy's SIMD
    dispatch limited to `features` (None: the native choice)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), SOURCE_DATE_EPOCH="0",
               OPENBLAS_NUM_THREADS="1")
    env.pop("NPY_ENABLE_CPU_FEATURES", None)
    if features is not None:
        env["NPY_ENABLE_CPU_FEATURES"] = features
    return subprocess.run([sys.executable, "-m", "polyfil", *argv], cwd=directory, env=env,
                          capture_output=True, text=True, timeout=120)


def assert_same_reading(native, restricted, path="$"):
    """Equal structure, keys, strings, bools and ints; floats within TOL."""
    assert type(native) is type(restricted), path
    if isinstance(native, dict):
        assert native.keys() == restricted.keys(), path
        for key in native:
            assert_same_reading(native[key], restricted[key], f"{path}.{key}")
    elif isinstance(native, list):
        assert len(native) == len(restricted), path
        for i, (a, b) in enumerate(zip(native, restricted)):
            assert_same_reading(a, b, f"{path}[{i}]")
    elif isinstance(native, float):
        assert abs(native - restricted) <= TOL * max(1.0, abs(native)), (path, native, restricted)
    else:
        assert native == restricted, (path, native, restricted)


def test_verdicts_do_not_depend_on_the_simd_level(tmp_path):
    runs = {}
    for name, argv in COMMANDS.items():
        for features in (None, RESTRICTED):
            directory = tmp_path / f"{name}-{features or 'native'}"
            directory.mkdir()
            runs[name, features] = run(argv, directory, features)
    for name in COMMANDS:
        limited = runs[name, RESTRICTED]
        if limited.returncode != 0 and "NPY_ENABLE_CPU_FEATURES" in limited.stderr:
            pytest.skip(f"numpy rejects NPY_ENABLE_CPU_FEATURES={RESTRICTED}: "
                        f"{limited.stderr.strip().splitlines()[-1]}")
    if all(runs[name, None].stdout == runs[name, RESTRICTED].stdout for name in COMMANDS):
        pytest.skip(f"NPY_ENABLE_CPU_FEATURES={RESTRICTED} changes no output byte here: "
                    "this CPU or numpy build dispatches no wider kernel")
    for name in COMMANDS:
        native, limited = runs[name, None], runs[name, RESTRICTED]
        assert native.returncode == limited.returncode == 0, (name, native.stderr, limited.stderr)
        assert_same_reading(json.loads(native.stdout), json.loads(limited.stdout), name)
    verify = json.loads(runs["verify", None].stdout)
    assert verify["total"] == len(verify["outcomes"]) > 0 and verify["failed"] == 0
    assert json.loads(runs["simulate", None].stdout)["sides"] == 15
