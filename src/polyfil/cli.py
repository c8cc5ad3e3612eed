"""Command-line interface.

Commands: gauss, sums, rho, rotation, verify, simulate.  Output is
JSON on stdout (CSV available for verify), carrying a reproducibility
manifest; bulk field data from simulate goes to CSV sidecar files whose
manifest lives in the accompanying summary JSON.

verify makes one pass over q = 1..q_max (_verify_outcomes).  Each q
that a selected suite reads gets one stacked table
(gauss.theta_sequences) of every p coprime to q.  The per-q checks of
vanishing, lemma4 and sums read it, the last two through
gauss.max_phase_defects and sums.sum_arrays, which read the table's
phase fit (ThetaSequence.phase, fitted on first use and shared by both),
and the table is dropped after its q; theorem2 keeps its factor block
(rotor.factor_block) for one certificate_arrays call after the pass.
lemma3 draws all its cases first and evaluates them in one call
(rotor.trace_identity_evals).  Each suite returns its outcomes as three
columns (Outcomes) that cmd_verify merges, sorts and writes, with no
per-case object, and they equal those of a loop over single pairs or
cases bit for bit.  Both rotor checks run on one spinor walk, and the
angle is read from the half angle of the product.  The
rotation and sums commands are the one-row calls of the same checks
(rotor.certify_rotation_angle, whose matrix and axis come from the one
spinor of the product, and sums.verify_sum_identities).

Each JSON payload is encoded once, as one string, by _json_text:
json.dumps(payload, indent=2, allow_nan=False) plus a newline.  verify's
outcomes, the one long list, are appended as the payload's last key
through one row template that gives json.dumps's bytes (why: see the
JSON writer section below).  The manifest timestamp
is the current UTC time, or the time in SOURCE_DATE_EPOCH (integer
seconds) when that is set, so that two runs can give byte-identical
output.

Exit codes: a command returns 0 (all checks passed) or 1 (a check
failed); main alone turns an error into a code.  1 also when a check's
own precondition fails: UndefinedTheta (an admissible Gauss sum
vanishes, so it has no argument) or NonUnitSpinor (a product off the
unit sphere).  2, usage error: an argparse error, or any other
PolyfilError, ValueError or OverflowError (an argument out of range,
not coprime or too large for a float, a range that selects no case, a
sums bound beyond the float range, a verify range of more than
MAX_VERIFY_WORK passes, a simulate run of more than vfe.MAX_STEPS
steps, a bad SOURCE_DATE_EPOCH), an OSError (output that cannot be
written; --out is checked before the evolution starts), or a
MemoryError (an argument whose arrays do not fit in memory, such as
gauss --q 10**12).  3, numerical abort: BlowUp.  4, internal error:
any other exception, with its traceback on stderr.

verify refuses, before its pass, a range whose work estimate exceeds
MAX_VERIFY_WORK = 2e8 table-entry passes (_verify_work), as evolve
refuses more than vfe.MAX_STEPS steps.  The estimate counts the table
entries sum_{q <= q_max} phi(q)*q <= (q_max^3 - q_max)/3 + 1 once each
for vanishing and lemma4, q_max times for sums (its kernel runs every
entry to an order of up to q) and 3*(m_max - 2) times for theorem2.  The
cap also keeps verify's sums bounds TOL_SUMS_PER_TERM * C(N, 2k) finite:
it admits --suite sums up to q_max = 156, and the first bound beyond the
float range is at q = 1031.  Why 2e8: the
suites run at 2e7 to 6e7 passes per second (2-vCPU VM), so a run at the
cap takes seconds, and a theorem2 run, which keeps one factor block per
q (a peak of 4.3 bytes per pass at M = 3, q_max = 300), stays under 1 GB.
The cap is 6 times the largest range planned for the benchmark (sums to
q = 100, 3.3e7), 14 times theorem2 to q = 120 at M <= 10, and over 40
times any test, script or workload.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
import traceback
from datetime import datetime, timezone
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd

import numpy as np

from . import __version__
from .arith import admissible_count, admissible_mask
from .errors import BlowUp, NonUnitSpinor, PolyfilError, RangeError, UndefinedTheta
from .gauss import (
    GaussSumValue,
    ThetaSequence,
    VANISHING_RELATIVE_TOL,
    gauss_sum,
    max_phase_defects,
    theta_sequence,
    theta_sequences,
)
from .rotor import (
    DETUNING,
    RotationCertificate,
    certificate_arrays,
    certify_rotation_angle,
    factor_block,
    inter_side_angle,
    trace_identity_evals,
)
from .sums import SumArrays, SumReport, sum_arrays, sum_report, verify_sum_identities
from .vfe import (
    DEFAULT_DT_FACTOR,
    CurveSample,
    SimulationConfig,
    TangentField,
    analyze_polygon,
    evolve,
    initial_tangent,
    reconstruct_curve,
    rms_distance,
)

# Pinned verification tolerances (also recorded in every manifest).
TOL_SUMS_PER_TERM = 1e-8
TOL_VANISHING = VANISHING_RELATIVE_TOL
TOL_PHASE_MODEL = 1e-8
TOL_ROTATION_ANGLE = 1e-9
# The falsification margin must exceed this share of DETUNING*2*pi/M, the
# miss of a product angle that follows rho linearly; the smallest share
# over verify's admitted theorem2 range is 0.7483, at (p, q, M) = (21, 583, 3).
FALSIFICATION_RATIO_MIN = 0.5
TOL_TRACE_IDENTITY = 1e-10
DEFAULT_SIMULATE_TOL = 0.10

_LEMMA3_SEED = 24601

# The most work one verify run takes, in table-entry passes (see the
# module docstring and _verify_work).
MAX_VERIFY_WORK = 2 * 10**8

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_BLOWUP = 3
EXIT_INTERNAL = 4


def _source_date_epoch() -> int | None:
    """The integer in SOURCE_DATE_EPOCH, or None when it is unset or
    empty; any other value raises ValueError."""
    value = os.environ.get("SOURCE_DATE_EPOCH", "")
    if not value:
        return None
    try:
        seconds = int(value)
        datetime.fromtimestamp(seconds, timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise ValueError(
            f"SOURCE_DATE_EPOCH must be an integer count of seconds, got {value!r}"
        ) from None
    return seconds


def _timestamp() -> str:
    """UTC now in ISO 8601, or the SOURCE_DATE_EPOCH time when it is set,
    so that two runs give byte-identical output."""
    seconds = _source_date_epoch()
    if seconds is None:
        return datetime.now(timezone.utc).isoformat()
    return datetime.fromtimestamp(seconds, timezone.utc).isoformat()


def _manifest(command: str, parameters: dict, tolerances: dict) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "tool_version": __version__,
        "timestamp": _timestamp(),
        "tolerances": tolerances,
    }


# ------------------------------------------------------------- JSON writer
#
# json.dumps with indent runs CPython's pure-Python encoder, so verify's
# outcomes, most of its payload, go through one row template (json's C
# string encoder, float.__repr__).  json.dumps alone (same bytes) made
# perfbench's wall_s 21% worse on verify_all and 27% on verify_wide (4
# alternating pairs, 2-vCPU VM; BENCH_17.json, "json_dumps_only").  No
# value is put into encoded text, so no case id can change the layout.
# One dict per case, built and read back, cost verify_wide 14% of its
# wall_s (10 pairs, BENCH_30.json), so the rows read three columns.
# All rows are one % call over the template repeated once per row, fed
# one list that interleaves the three columns' fields: one call per row
# took 5.2 ms for verify_wide's 4,428 rows, one call for all 4.9 ms
# (in-process best of 50, 2-vCPU VM).

_OUTCOME_ROW = '    {\n      "case_id": %s,\n      "passed": %s,\n      "residual": %s\n    }'

# verify's outcomes: case ids, passed and residuals, one entry per case
Outcomes = tuple[list[str], list[bool], list[float]]


def _json_text(payload: dict, outcomes: Outcomes | None = None) -> str:
    """json.dumps(payload, indent=2, allow_nan=False) + "\\n", with the
    `outcomes` columns, when given, as the payload's last key "outcomes",
    one record {"case_id", "passed", "residual"} per case.  The suites'
    bools and floats (.tolist() of their arrays) are what the template
    encodes as json.dumps does.  NaN and infinity raise ValueError."""
    if outcomes is None:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    text = json.dumps({**payload, "outcomes": []}, indent=2, allow_nan=False) + "\n"
    case_ids, passed, residuals = outcomes
    if not case_ids:
        return text
    if not all(map(math.isfinite, residuals)):
        raise ValueError("Out of range float values are not JSON compliant")
    fields = [None] * (3 * len(case_ids))
    fields[0::3] = map(encode_basestring_ascii, case_ids)
    fields[1::3] = map({True: "true", False: "false"}.__getitem__, passed)
    fields[2::3] = map(float.__repr__, residuals)
    rows = ",\n".join([_OUTCOME_ROW] * len(case_ids)) % tuple(fields)
    # text ends with '"outcomes": []\n}\n'
    return text[:-5] + "[\n" + rows + "\n  ]\n}\n"


def _emit(payload: dict, outcomes: Outcomes | None = None) -> None:
    sys.stdout.write(_json_text(payload, outcomes))


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _entry_json(n: int, entry: GaussSumValue) -> dict:
    return {
        "n": n,
        "re": entry.value.real,
        "im": entry.value.imag,
        "modulus": entry.modulus,
        "arg": entry.argument,
        "vanishing": entry.vanishing,
    }


def _check_sums_bounds(q: int, ks) -> None:
    """Raise RangeError when the residual bound TOL_SUMS_PER_TERM *
    C(N, 2k) of a k in ks (N = arith.admissible_count(q)) exceeds the
    float range; checked before any sum is evaluated.  ks is walked
    lazily and the walk stops at the first overflowing k, so a range of
    every k up to q/2 costs a few steps at a huge q.  A k outside
    0 < 2k <= q is left to the evaluation, which rejects it."""
    for k in ks:
        if not 0 < 2 * k <= q:
            continue
        n = admissible_count(q)
        try:
            TOL_SUMS_PER_TERM * math.comb(n, 2 * k)
        except OverflowError:
            raise RangeError(
                f"the sums bound {TOL_SUMS_PER_TERM} * C({n}, {2 * k}) for q={q}, k={k} "
                "exceeds the float range"
            ) from None


def _sums_passed(sums: SumReport | SumArrays):
    """A bool for one report, a (P, K) bool array for the arrays."""
    if isinstance(sums, SumReport):
        return sums.residual <= TOL_SUMS_PER_TERM * max(1, sums.term_count)
    bounds = [TOL_SUMS_PER_TERM * max(1, count) for count in sums.term_count]
    return sums.residual <= np.array(bounds)


def _theorem2_passed(cert):
    """A bool for one certificate (RotationCertificate), a (P, k) bool
    array for the arrays (CertificateArrays): the angle error within
    TOL_ROTATION_ANGLE, and the falsification margin above
    FALSIFICATION_RATIO_MIN * DETUNING * 2*pi/M."""
    M = cert.M if isinstance(cert, RotationCertificate) else np.array(cert.M, dtype=float)
    floor = FALSIFICATION_RATIO_MIN * DETUNING * (2.0 * math.pi / M)
    return (cert.angle_error <= TOL_ROTATION_ANGLE) & (cert.falsification_margin > floor)


# ---------------------------------------------------------------- commands


def cmd_gauss(args) -> int:
    if args.n is None:
        theta = theta_sequence(args.p, args.q)
        _emit({
            "manifest": _manifest(
                "gauss", {"p": args.p, "q": args.q}, {"vanishing_rel": TOL_VANISHING}
            ),
            "p": args.p,
            "q": args.q,
            "entries": [_entry_json(n, theta.entry(n)) for n in range(args.q)],
        })
        return EXIT_OK
    entry = gauss_sum(args.p, args.q, args.n)
    payload = {
        "manifest": _manifest(
            "gauss",
            {"p": args.p, "q": args.q, "n": args.n},
            {"vanishing_rel": TOL_VANISHING},
        ),
        **_entry_json(args.n, entry),
    }
    _emit(payload)
    return EXIT_OK


def cmd_sums(args) -> int:
    top = args.q // 2 if args.k_max is None else min(args.q // 2, args.k_max)
    ks = range(1, top + 1) if args.k is None else [args.k]
    _check_sums_bounds(args.q, ks)
    if args.k is not None:
        reports = [sum_report(args.p, args.q, args.k)]
    else:
        reports = verify_sum_identities(args.p, args.q, k_max=args.k_max)
    if not reports:
        cap = "" if args.k_max is None else f" and k <= {args.k_max}"
        raise RangeError(f"no k with 0 < 2k <= {args.q}{cap}")
    payload = {
        "manifest": _manifest(
            "sums",
            {"p": args.p, "q": args.q, "k": args.k, "k_max": args.k_max},
            {"per_term": TOL_SUMS_PER_TERM},
        ),
        "reports": [
            {
                "p": r.p, "q": r.q, "k": r.k,
                "t_value": r.t_value,
                "e_value": _complex_json(r.e_value),
                "term_count": r.term_count,
                "residual": r.residual,
                "passed": _sums_passed(r),
            }
            for r in reports
        ],
    }
    _emit(payload)
    return EXIT_OK if all(map(_sums_passed, reports)) else EXIT_VERIFICATION_FAILED


def cmd_rho(args) -> int:
    rho = inter_side_angle(args.M, args.q)
    payload = {
        "manifest": _manifest("rho", {"M": args.M, "q": args.q}, {}),
        "M": args.M,
        "q": args.q,
        "rho": float(f"{rho:.12g}"),
    }
    _emit(payload)
    return EXIT_OK


def cmd_rotation(args) -> int:
    cert = certify_rotation_angle(args.M, args.p, args.q)
    passed = _theorem2_passed(cert)
    payload = {
        "manifest": _manifest(
            "rotation",
            {"M": args.M, "p": args.p, "q": args.q},
            {"angle": TOL_ROTATION_ANGLE, "detuning": DETUNING,
             "falsification_ratio_min": FALSIFICATION_RATIO_MIN},
        ),
        "M": args.M,
        "p": args.p,
        "q": args.q,
        "rho": cert.rho,
        "matrix": [list(row) for row in cert.product],
        "axis": None if cert.axis is None else list(cert.axis),
        "angle": cert.angle,
        "angle_error": cert.angle_error,
        "falsification_margin": cert.falsification_margin,
        "passed": passed,
    }
    _emit(payload)
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILED


# ------------------------------------------------------------ verify suites


def _vanishing_outcomes(table: ThetaSequence) -> Outcomes:
    q = table.q
    # Parseval's sum of |G|^2 over n, q^2, shared by the N admissible
    # entries alike: sqrt(q) for odd q, sqrt(2q) for even q
    expected_modulus = math.sqrt(q * q // admissible_count(q))
    tol = TOL_VANISHING * max(1.0, math.sqrt(q))
    should_vanish = ~admissible_mask(q)
    pattern_ok = (table.vanishing == should_vanish).all(axis=-1)
    residuals = np.maximum(
        table.moduli[:, should_vanish].max(axis=-1, initial=0.0),
        np.abs(table.moduli[:, ~should_vanish] - expected_modulus).max(axis=-1, initial=0.0),
    )
    return ([f"vanishing/p={p}/q={q}" for p in table.p],
            (pattern_ok & (residuals <= tol)).tolist(), residuals.tolist())


def _lemma4_outcomes(table: ThetaSequence) -> Outcomes:
    defects = max_phase_defects(table)
    return ([f"lemma4/p={p}/q={table.q}" for p in table.p],
            (defects <= TOL_PHASE_MODEL).tolist(), defects.tolist())


def _sums_outcomes(table: ThetaSequence) -> Outcomes:
    sums = sum_arrays(table)
    return ([f"sums/p={p}/q={table.q}/k={k}" for p in table.p for k in sums.k],
            _sums_passed(sums).ravel().tolist(), sums.residual.ravel().tolist())


# the checks that read one q's table, each with its first q
# (no k has 0 < 2k <= 1)
_PER_Q_CHECKS = {"sums": (2, _sums_outcomes), "lemma4": (1, _lemma4_outcomes),
                 "vanishing": (1, _vanishing_outcomes)}


def _theorem2_outcomes(blocks: list, Ms: range) -> Outcomes:
    checks = certificate_arrays(blocks, Ms)
    return ([f"theorem2/M={M}/p={p}/q={q}" for p, q in zip(checks.p, checks.q) for M in Ms],
            _theorem2_passed(checks).ravel().tolist(), checks.angle_error.ravel().tolist())


def _lemma3_outcomes() -> Outcomes:
    rng = random.Random(_LEMMA3_SEED)
    # sign anchor: two opposite in-plane vectors at x = 1 must give 2
    xs, phi_rows = [1.0], [[0.0, math.pi]]
    for _ in range(100):
        n = rng.randint(1, 8)
        xs.append(rng.uniform(-2.0, 2.0))
        phi_rows.append([rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)])
    anchor, *results = trace_identity_evals(xs, phi_rows)
    case_ids = ["lemma3/anchor-opposite-pair"]
    passed = [abs(anchor.lhs - 2.0) <= 1e-12 and abs(anchor.rhs - 2.0) <= 1e-12]
    residuals = [max(abs(anchor.lhs - 2.0), abs(anchor.rhs - 2.0))]
    for i, (x, phis, result) in enumerate(zip(xs[1:], phi_rows[1:], results)):
        residual = abs(result.lhs - result.rhs)
        case_ids.append(f"lemma3/random-{i:03d}")
        passed.append(residual <= TOL_TRACE_IDENTITY * (1.0 + abs(x)) ** len(phis))
        residuals.append(residual)
    return case_ids, passed, residuals


_SUITES = ("sums", "theorem2", "lemma3", "lemma4", "vanishing")


def _verify_work(selected, q_max: int, m_count: int) -> int:
    """An upper estimate of verify's work in table-entry passes: the
    entries sum_{q <= q_max} phi(q)*q <= 1 + sum_{2 <= q <= q_max} q*(q-1)
    = (q_max^3 - q_max)/3 + 1 (exact up to q_max = 3, so 1 entry at
    q_max = 1), times one pass each for vanishing and lemma4, q_max for
    sums (its kernel runs every entry to an order of up to q) and 3 per
    M for theorem2 (m_count values of M)."""
    entries = (q_max**3 - q_max) // 3 + 1 if q_max > 0 else 0
    passes = {"vanishing": 1, "lemma4": 1, "sums": q_max, "theorem2": 3 * m_count}
    return entries * sum(passes.get(name, 0) for name in selected)


def _verify_outcomes(selected, q_max: int, m_max: int) -> dict[str, Outcomes]:
    """The outcomes of each suite in `selected` (in _SUITES order), in
    order of q, then p, from one pass over q (see the module docstring).
    A work estimate over MAX_VERIFY_WORK raises RangeError before the
    pass; a suite that selects no case raises RangeError after it, in
    the order of `selected`."""
    Ms = range(3, m_max + 1) if "theorem2" in selected else range(0)
    if _verify_work(selected, q_max, len(Ms)) > MAX_VERIFY_WORK:
        m_arg = f" --m-max {m_max}" if "theorem2" in selected else ""
        raise RangeError(f"--q-max {q_max}{m_arg} asks for more than "
                         f"MAX_VERIFY_WORK={MAX_VERIFY_WORK} table-entry passes")
    per_q = [(name, first, check) for name, (first, check) in _PER_Q_CHECKS.items()
             if name in selected]
    firsts = [first for _, first, _ in per_q] + ([1] if Ms else [])
    found: dict[str, Outcomes] = {name: ([], [], []) for name in selected}
    blocks = []
    for q in range(min(firsts, default=q_max + 1), q_max + 1):
        table = theta_sequences([p for p in range(1, q + 1) if gcd(p, q) == 1], q)
        for name, first, check in per_q:
            if q >= first:
                for column, part in zip(found[name], check(table)):
                    column.extend(part)
        if Ms:
            blocks.append(factor_block(table))
    finish = {"theorem2": lambda: _theorem2_outcomes(blocks, Ms), "lemma3": _lemma3_outcomes}
    for name in selected:
        if name in finish:
            found[name] = finish[name]()
        if not found[name][0]:
            raise RangeError(
                f"suite {name} selects no case for --q-max {q_max} --m-max {m_max}"
            )
    return found


def cmd_verify(args) -> int:
    found = _verify_outcomes(
        _SUITES if args.suite == "all" else (args.suite,), args.q_max, args.m_max)
    per_suite = {name: {"total": len(case_ids), "failed": passed.count(False)}
                 for name, (case_ids, passed, _) in found.items()}
    columns = [list(chain.from_iterable(column)) for column in zip(*found.values())]
    order = sorted(range(len(columns[0])), key=columns[0].__getitem__)
    outcomes = tuple(list(map(column.__getitem__, order)) for column in columns)

    n_failed = sum(counts["failed"] for counts in per_suite.values())
    manifest = _manifest(
        "verify",
        {"suite": args.suite, "q_max": args.q_max, "m_max": args.m_max},
        {
            "sums_per_term": TOL_SUMS_PER_TERM,
            "vanishing_rel": TOL_VANISHING,
            "phase_model": TOL_PHASE_MODEL,
            "rotation_angle": TOL_ROTATION_ANGLE,
            "detuning": DETUNING,
            "falsification_ratio_min": FALSIFICATION_RATIO_MIN,
            "trace_identity": TOL_TRACE_IDENTITY,
        },
    )
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        print(f"# manifest: {json.dumps(manifest, allow_nan=False)}")
        writer.writerow(["case_id", "passed", "residual"])
        writer.writerows(zip(*outcomes))
    else:
        _emit({
            "manifest": manifest,
            "total": len(order),
            "failed": n_failed,
            "suites": per_suite,
        }, outcomes)
    return EXIT_OK if n_failed == 0 else EXIT_VERIFICATION_FAILED


# ---------------------------------------------------------------- simulate


def write_field_csvs(prefix: str, field: TangentField, curve: CurveSample) -> None:
    """Write PREFIX.tangent.csv (s, Tx, Ty, Tz; n rows) and PREFIX.curve.csv
    (s, Xx, Xy, Xz; n + 1 rows, the last one closing the period).

    Each file is one format pass: the bytes csv.writer would write (repr
    of each float, CRLF line ends), without a writerow call per row."""
    ds = 2.0 * math.pi / field.grid_points
    for name, header, rows in (
        ("tangent", "s,Tx,Ty,Tz", field.samples),
        ("curve", "s,Xx,Xy,Xz", curve.positions),
    ):
        s = [j * ds for j in range(len(rows))]
        lines = map("%r,%r,%r,%r".__mod__, zip(s, *rows.T.tolist()))
        with open(f"{prefix}.{name}.csv", "w", newline="") as handle:
            handle.write("\r\n".join([header, *lines, ""]))


def cmd_simulate(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise RangeError(f"--tol must be finite and nonnegative, got {args.tol}")
    config = SimulationConfig(
        M=args.M, p=args.p, q=args.q,
        grid_points=args.grid, dt_factor=args.dt_factor,
    )

    prefix = args.out
    if prefix is None:
        prefix = f"simulate_M{config.M}_p{config.p}_q{config.q}"
    directory, stem = os.path.split(prefix)
    if stem in ("", os.curdir, os.pardir):
        raise RangeError(f"--out {prefix!r} names a directory, not a file stem")
    directory = directory or os.curdir
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise RangeError(f"cannot write output: {directory!r} is not a writable directory")

    start = initial_tangent(config.M, config.grid_points)
    evolved = evolve(start, config.rational_time, config)

    report = analyze_polygon(evolved, config)
    curve = reconstruct_curve(evolved)
    rms_initial = rms_distance(evolved, start)

    summary = {
        "manifest": _manifest(
            "simulate",
            {"M": config.M, "p": config.p, "q": config.q,
             "grid": config.grid_points, "dt_factor": config.dt_factor,
             "out": prefix},
            {"relative_error": args.tol},
        ),
        "time": config.rational_time,
        "sides": report.sides,
        "detected_sides": report.detected_sides,
        "angle_median": report.angle_median,
        "angle_spread": report.angle_spread,
        "predicted_rho": report.predicted_rho,
        "relative_error": report.relative_error,
        "rms_from_initial": rms_initial,
        "mean_height": curve.mean_height,
        "steps": evolved.steps,
        "dt": config.dt,
        "max_norm_deviation": evolved.max_norm_deviation,
        "closure_drift": float(np.linalg.norm(config.ds * evolved.samples.sum(axis=0))),
        "files": [f"{prefix}.tangent.csv", f"{prefix}.curve.csv"],
    }
    text = _json_text(summary)
    write_field_csvs(prefix, evolved, curve)
    with open(f"{prefix}.summary.json", "w") as handle:
        handle.write(text)
    sys.stdout.write(text)
    return EXIT_OK if report.relative_error <= args.tol else EXIT_VERIFICATION_FAILED


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyfil",
        description=(
            "Gauss-sum identities, rotation products, and tangent-flow "
            "simulation for regular polygonal filament evolution"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gauss", help="evaluate one Gauss sum (or the full table)")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--n", type=int, default=None)
    g.set_defaults(func=cmd_gauss)

    s = sub.add_parser("sums", help="cosine / exponential sum reports for (p, q)")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    k_range = s.add_mutually_exclusive_group()
    k_range.add_argument("--k", type=int, default=None)
    k_range.add_argument("--k-max", dest="k_max", type=int, default=None)
    s.set_defaults(func=cmd_sums)

    r = sub.add_parser("rho", help="predicted inter-side angle for (M, q)")
    r.add_argument("--M", type=int, required=True)
    r.add_argument("--q", type=int, required=True)
    r.set_defaults(func=cmd_rho)

    rot = sub.add_parser("rotation", help="ordered corner-rotation product")
    rot.add_argument("--M", type=int, required=True)
    rot.add_argument("--p", type=int, required=True)
    rot.add_argument("--q", type=int, required=True)
    rot.set_defaults(func=cmd_rotation)

    v = sub.add_parser("verify", help="run a verification suite over coprime (p, q)")
    v.add_argument("--suite", choices=[*_SUITES, "all"], required=True)
    v.add_argument("--q-max", dest="q_max", type=int, default=16)
    v.add_argument("--m-max", dest="m_max", type=int, default=10)
    v.add_argument("--format", choices=["json", "csv"], default="json")
    v.set_defaults(func=cmd_verify)

    sim = sub.add_parser("simulate", help="evolve a polygon and measure plateaus")
    sim.add_argument("--M", type=int, required=True)
    sim.add_argument("--p", type=int, required=True)
    sim.add_argument("--q", type=int, required=True)
    sim.add_argument("--grid", type=int, default=None)
    sim.add_argument("--dt-factor", dest="dt_factor", type=float, default=DEFAULT_DT_FACTOR)
    sim.add_argument("--out", type=str, default=None)
    sim.add_argument("--tol", type=float, default=DEFAULT_SIMULATE_TOL)
    sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    """Run one command; the one place where an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        _source_date_epoch()
        return args.func(args)
    except (UndefinedTheta, NonUnitSpinor) as exc:
        message, code = str(exc), EXIT_VERIFICATION_FAILED
    except BlowUp as exc:
        message, code = str(exc), EXIT_BLOWUP
    except (PolyfilError, ValueError, OverflowError) as exc:
        message, code = str(exc), EXIT_USAGE
    except OSError as exc:
        message, code = f"cannot write output: {exc}", EXIT_USAGE
    except MemoryError as exc:
        message, code = f"out of memory: {exc}", EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
