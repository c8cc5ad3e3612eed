#!/usr/bin/env python3
"""SHA-256 digests of the CLI's canonical outputs, one per stdout and one
per sidecar file, so that two checkouts can be shown to write the same
bytes.

Every invocation runs in-process under SOURCE_DATE_EPOCH=0, which pins
the manifest timestamp, inside a scratch directory, so that simulate's
relative --out prefix (and with it the manifest) does not depend on
where the script runs.  The invocations are the canonical list below
(every command, verify in JSON and in CSV), the benchmark workloads'
operations at their smoke sizes, and the error paths (at least one per
command), whose stderr is digested too.

Usage:
    PYTHONPATH=src python scripts/output_digests.py [--smoke] > digests.txt
    diff digests-before.txt digests-after.txt

The first line, "# numpy <version>; baseline: <sets>; dispatched: <sets>",
names the numpy build and the SIMD sets it runs on this machine: the
float digests can differ between machines whose sets differ.  Each
other line is "<sha256>  rc=<exit code>  <invocation> | <stream>", where
the stream is stdout, stderr (error paths only) or the name of a file
the invocation wrote.  An argparse exit is recorded as its code, and
any other exception that escapes the CLI as its name (rc=OverflowError),
so the script also runs against a version of the CLI that raises.
--smoke runs only the workload operations at smoke sizes.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

from polyfil import cli

try:
    from numpy._core import _multiarray_umath as simd
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as simd

CANONICAL = (
    "verify --suite all --q-max 17 --m-max 10",
    "verify --suite all --q-max 17 --m-max 10 --format csv",
    "verify --suite theorem2 --q-max 30 --m-max 10",
    "verify --suite theorem2 --q-max 60 --m-max 10",
    "verify --suite vanishing --q-max 60",
    "verify --suite lemma4 --q-max 60",
    "verify --suite sums --q-max 60",
    "verify --suite lemma3",
    "sums --p 1 --q 12",
    "sums --p 29 --q 59",
    # p beyond an int64: every table carries p as a tuple of ints
    "sums --p 100000000000000000001 --q 5",
    "rotation --M 5 --p 1 --q 3",
    "rotation --M 5 --p 1 --q 1",
    "rotation --M 7 --p 3 --q 8",
    "rotation --M 100000000000000000000 --p 1 --q 1",
    "rotation --M 5 --p 100000000000000000001 --q 3",
    "gauss --p 5 --q 12",
    "gauss --p 100000000000000000001 --q 5",
    "simulate --M 5 --p 1 --q 3 --grid 240 --out sim",
    # m = n/M = 45 is odd: the rotation-only domain, where every other
    # simulate line steps the reflected half domain
    "simulate --M 5 --p 1 --q 3 --grid 225 --out sim",
)

# verify_all, verify_wide, pentagon_evolve and sim_sweep (seed 1) at smoke sizes
SMOKE = (
    "verify --suite all --q-max 6 --m-max 4",
    "verify --suite theorem2 --q-max 6 --m-max 4",
    "verify --suite vanishing --q-max 8",
    "verify --suite lemma4 --q-max 8",
    "simulate --M 5 --p 1 --q 3 --grid 240 --out sim",
    "simulate --M 5 --p 1 --q 1 --grid 80 --out sim",
    "simulate --M 6 --p 1 --q 2 --grid 192 --out sim",
    "simulate --M 4 --p 1 --q 1 --grid 64 --out sim",
)

# usage errors of every command (exit 2), one argparse error, the two
# integer arguments too large for an index or a float, two verify ranges
# beyond cli.MAX_VERIFY_WORK, and a blow-up (exit 3); simulate's --out is
# relative, so its message holds no scratch path
ERRORS = (
    "gauss --p 2 --q 4",
    "gauss --p 2 --q 4 --n 0",
    "gauss --p 1 --q 0",
    "sums --p 2 --q 4",
    "sums --p 1 --q 1",
    "sums --p 3 --q 8 --k-max 0",
    "sums --p 1 --q 3 --k 5",
    "sums --p 1 --q 1031 --k 258",
    "sums --p 1 --q 12 --k 5 --k-max 2",
    "rho --M 2 --q 3",
    f"rho --M {10**400} --q 3",
    "rotation --M 3 --p 2 --q 4",
    f"rotation --M {10**400} --p 1 --q 3",
    "verify --suite vanishing --q-max -3",
    "verify --suite theorem2 --m-max 2",
    "verify --suite sums --q-max 1031",
    f"verify --suite theorem2 --q-max 3 --m-max {10**41}",
    f"verify --suite vanishing --q-max {10**12}",
    f"verify --suite theorem2 --q-max 3 --m-max {10**9}",
    "simulate --M 2 --p 1 --q 1 --out sim",
    "simulate --M 3 --p 2 --q 4 --out sim",
    "simulate --M 3 --p 1 --q 1 --grid 0 --out sim",
    "simulate --M 5 --p 1 --q 3 --grid 1000 --out sim",
    "simulate --M 3 --p 1 --q 1 --grid 96 --dt-factor nan --out sim",
    "simulate --M 3 --p 1 --q 1 --grid 96 --tol -0.1 --out sim",
    "simulate --M 3 --p 1 --q 1 --grid 96 --out missing/sim",
    "simulate --M 3 --p 1 --q 1 --grid 96 --dt-factor 100 --out sim",
    f"simulate --M 3 --p {10**400} --q 1 --grid 96 --out sim",
)


def machine_line() -> str:
    """numpy's version, the SIMD sets it was built to assume and those of
    its dispatch targets that this CPU runs."""
    dispatched = [name for name in simd.__cpu_dispatch__ if simd.__cpu_features__.get(name)]
    return (f"# numpy {np.__version__}; baseline: {','.join(simd.__cpu_baseline__) or 'none'}; "
            f"dispatched: {','.join(dispatched) or 'none'}")


def digest_lines(invocation: str, stderr: bool = False) -> list[str]:
    """Run one invocation in the current directory, which it must leave
    empty of files it did not write; return its digest lines, with one
    for stderr when `stderr` is set."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(invocation.split())
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:
            rc = type(exc).__name__
    streams = [("stdout", out.getvalue().encode())]
    if stderr:
        streams.append(("stderr", err.getvalue().encode()))
    for name in sorted(os.listdir(os.curdir)):
        with open(name, "rb") as handle:
            streams.append((name, handle.read()))
        os.remove(name)
    return [f"{hashlib.sha256(data).hexdigest()}  rc={rc}  {invocation} | {stream}"
            for stream, data in streams]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run only the workload operations at smoke sizes")
    args = parser.parse_args(argv)
    invocations = SMOKE if args.smoke else CANONICAL + tuple(
        line for line in SMOKE if line not in CANONICAL)
    errors = () if args.smoke else ERRORS
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    print(machine_line(), flush=True)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for invocation in invocations:
                print("\n".join(digest_lines(invocation)), flush=True)
            for invocation in errors:
                print("\n".join(digest_lines(invocation, stderr=True)), flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
