#!/usr/bin/env python3
"""Run every arithmetic / geometric verification suite and print a summary.

Equivalent to `polyfil verify --suite all` plus a per-suite breakdown.

Usage:
    python scripts/run_verification.py [--q-max 16] [--m-max 10] [--out report.json]
"""

import argparse
import json
import subprocess
import sys
from collections import Counter


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--q-max", type=int, default=16)
    parser.add_argument("--m-max", type=int, default=10)
    parser.add_argument("--out", type=str, default=None)
    args = parser.parse_args()

    cmd = [
        sys.executable, "-m", "polyfil", "verify", "--suite", "all",
        "--q-max", str(args.q_max), "--m-max", str(args.m_max),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode == 2:
        sys.stderr.write(proc.stderr)
        return 2
    payload = json.loads(proc.stdout)

    per_suite: Counter = Counter()
    failed_cases = []
    for outcome in payload["outcomes"]:
        suite = outcome["case_id"].split("/")[0]
        per_suite[suite, "total"] += 1
        if outcome["passed"]:
            per_suite[suite, "passed"] += 1
        else:
            failed_cases.append(outcome)

    print(f"{'suite':<12} {'passed':>8} {'total':>8}")
    for suite in sorted({key[0] for key in per_suite}):
        print(f"{suite:<12} {per_suite[suite, 'passed']:>8} {per_suite[suite, 'total']:>8}")
    for outcome in failed_cases:
        print(f"FAILED {outcome['case_id']}: residual {outcome['residual']}")

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(proc.stdout)
        print(f"full report written to {args.out}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
