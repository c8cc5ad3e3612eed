#!/usr/bin/env python3
"""Pentagon experiment: evolve a regular pentagon tangent field to the
three classic fractions of its time period and dump plot-ready CSV data.

At t = (1/3) and (2/3) of the period 2*pi/25 the tangent settles on 15
plateaus with inter-side angle 2*arccos(cos^(1/3)(pi/5)) ~ 0.74295;
at a full period it returns to the initial pentagon.

The stops are chained: each is evolved from the field of the one before,
so the three take the steps of one period, not of two.  A chained stop
takes its own shortened last step, so it is not bit for bit the field
that one run from t = 0 writes.

summary.json holds one object per stop: its time, every field of
polyfil.vfe.PolygonAngleReport in order (the keys of the simulate
summary), and its RMS distance from the initial field.

Usage:
    python scripts/pentagon_experiment.py [--grid 1920] [--outdir pentagon_data]
"""

import argparse
import json
import os
import sys
from dataclasses import asdict

from polyfil.vfe import (
    SimulationConfig,
    analyze_polygon,
    evolve,
    initial_tangent,
    reconstruct_curve,
    rms_distance,
)
from polyfil.cli import write_field_csvs


def dump_field(field, prefix):
    write_field_csvs(prefix, field, reconstruct_curve(field))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--grid", type=int, default=1920)
    parser.add_argument("--outdir", type=str, default="pentagon_data")
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    start = initial_tangent(5, args.grid)
    dump_field(start, os.path.join(args.outdir, "t0"))
    summary = {}

    evolved = start
    for p, q, label in [(1, 3, "third"), (2, 3, "two_thirds"), (1, 1, "period")]:
        config = SimulationConfig(M=5, p=p, q=q, grid_points=args.grid)
        evolved = evolve(evolved, config.rational_time, config)
        dump_field(evolved, os.path.join(args.outdir, f"t_{label}"))
        report = analyze_polygon(evolved, config)
        summary[label] = {
            "time": config.rational_time,
            **asdict(report),
            "rms_from_initial": rms_distance(evolved, start),
        }
        print(
            f"t = {config.rational_time:.6f} ({label}): "
            f"{report.detected_sides} plateaus detected, "
            f"angle {report.angle_median:.5f} vs predicted {report.predicted_rho:.5f}"
        )

    with open(os.path.join(args.outdir, "summary.json"), "w") as handle:
        json.dump(summary, handle, indent=2)
    print(f"data written to {args.outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
