"""The polyfil benchmark: one workload per invocation, outputs checked.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 25 --trace 0

Drives the package in-process through ``polyfil.cli.main([...])`` with
stdout captured and ``--out`` pointing into a scratch directory under
``.bench_out/``.  Calls are closed-loop and sequential: one caller, the
next call starts when the previous one returns.  A *pass* is one run of
the workload's call list; passes repeat until ``--seconds`` is used up.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (from passes with timing wrappers installed, alternated with
untraced passes to measure the tracing overhead).  Times in the JSON line
are taken at the reference speed that ``speed.py`` defines, because the
raw speed of a small shared machine drifts by tens of percent.  Everything
is printed as a readable report; the last line is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every output checked out, 1 when any did not
(after printing all metrics), and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# No more threads than cores: a 3x3 matrix product must never start a
# BLAS thread pool.  Set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

E2E_METRICS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 9
# Start another pass only if it is expected to end by this share of --seconds
# (enough for two pentagon_evolve passes when the machine runs slow).
DEADLINE_SLACK = 1.15

sys.path.insert(0, str(BENCH_DIR))
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result line)."""


@dataclass
class PassResult:
    wall_s: float  # raw seconds in cli.main, the speed probe's own time excluded
    ref_s: float  # wall_s at the reference speed (see speed.py)
    probe_s: float  # mean probe chunk time during the pass
    checks: list
    traced: bool = False
    spans: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    theta_keys: set = field(default_factory=set)


# ----------------------------------------------------------------- helpers


def load_cli():
    """Import polyfil from this checkout's src/, never from elsewhere."""
    if not (SRC / "polyfil" / "__init__.py").is_file():
        raise BenchError(f"no polyfil package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import polyfil
    import polyfil.cli

    if Path(polyfil.__file__).resolve().parent != SRC / "polyfil":
        raise BenchError(f"imported polyfil from {polyfil.__file__}, not {SRC}")
    return polyfil.cli


def clear_caches(package: str = "polyfil") -> None:
    """Empty every module-level functools cache, so each pass starts as
    cold as a fresh CLI invocation does."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == package or name.startswith(package + ".")):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def environment() -> dict:
    import numpy

    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = "unknown (git failed)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def tail_percentile(values: list[float]):
    """Highest of p99.9/p99/p95/p90/p75 (nearest rank) with at least ten
    samples beyond it, as (p, value); None when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    for per_mille in (999, 990, 950, 900, 750):
        rank = -(-n * per_mille // 1000)
        if n - rank >= 10:
            return per_mille / 10, ordered[rank - 1]
    return None


def describe(values: list[float], what: str) -> str:
    tail = tail_percentile(values)
    tail_text = (f"p{tail[0]:g} {tail[1]:.6g}" if tail
                 else "no percentile has 10 samples beyond it")
    return f"median of {len(values)} {what}; {tail_text}"


def setup_probe(name: str, seed: int, smoke: bool) -> tuple[float, float]:
    """Seconds for a fresh interpreter to import polyfil and build the
    workload's inputs, raw and at the reference speed (the child runs the
    speed probe itself, on whichever CPU it gets)."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
            "import speed; probe = speed.SpeedProbe(); probe.start(); "
            f"import polyfil.cli, workloads; workloads.build({name!r}, {seed}, {smoke}); "
            "probe.stop(); print(probe.build_s + probe.spent(), probe.mean_chunk_s())")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    spent, chunk = map(float, proc.stdout.split())
    raw = elapsed - spent
    return raw, raw * speed.REF_S / chunk


# ------------------------------------------------------------------ passes


def _call(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:  # a traceback is a failed operation, not a crash
        return f"{type(exc).__name__}: {exc}"


def run_pass(cli, ops, workdir: str, tracer=None) -> PassResult:
    clear_caches()
    if tracer is not None:
        tracer.reset()
    wall = 0.0
    checks = []
    with speed.SpeedProbe() as probe:
        for index, op in enumerate(ops):
            wall += _run_op(cli, op, index, workdir, tracer, probe, checks)
    result = PassResult(wall_s=wall, ref_s=probe.to_reference(wall),
                        probe_s=probe.mean_chunk_s(), checks=checks,
                        traced=tracer is not None)
    if tracer is not None:
        result.spans = tracer.spans
        result.counters = tracer.counters.copy()
        result.theta_keys = set(tracer.theta_keys)
    return result


def _run_op(cli, op, index, workdir, tracer, probe, checks) -> float:
    """Run and check one call; returns its seconds without probe time."""
    argv = list(op.argv)
    prefix = os.path.join(workdir, f"op{index}")
    if op.sim is not None:
        argv += ["--out", prefix]
    out, err = io.StringIO(), io.StringIO()
    span = tracer.op(index) if tracer is not None else contextlib.nullcontext()
    mark = len(probe.samples)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        start = time.perf_counter()
        rc = _call(cli, argv)
        elapsed = time.perf_counter() - start - probe.spent(mark)
    if op.sim is not None:
        check = workloads.check_simulate(op, rc, out.getvalue(), prefix)
        for suffix in (".tangent.csv", ".curve.csv", ".summary.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(prefix + suffix)
    else:
        check = workloads.check_verify(op, rc, out.getvalue())
    label = op.sim.label() if op.sim is not None else " ".join(op.argv)
    check.problems = [f"{label}: {msg}" for msg in check.problems]
    checks.append(check)
    return elapsed


def run_for(seconds: float, step, kinds: list[bool]) -> list[PassResult]:
    """Run passes (``step(traced)``) cycling through ``kinds`` until the
    next pass would end past the deadline; every kind runs at least once."""
    results, durations = [], []
    start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        results.append(step(kinds[index % len(kinds)]))
        durations.append(time.perf_counter() - t0)
        index += 1
        elapsed = time.perf_counter() - start
        if index >= len(kinds) and elapsed + statistics.median(durations) > seconds * DEADLINE_SLACK:
            return results


# ------------------------------------------------------------------ report


def work_per_pass(ops) -> tuple[str, float]:
    if all(op.sim is not None for op in ops):
        return "cell_steps_per_s", float(sum(op.sim.cell_steps for op in ops))
    return "cases_per_s", float(sum(op.expected_cases for op in ops))


def end_to_end_report(ops, passes, setup_times, attempted, failed) -> tuple[dict, list[str]]:
    walls = [p.ref_s for p in passes]
    setups = [ref for _raw, ref in setup_times]
    rate_name, work = work_per_pass(ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    probe_us = statistics.median(p.probe_s for p in passes) * 1e6
    lines = [
        f"times at the reference speed (speed probe {speed.REF_S * 1e6:g} us; "
        f"measured {probe_us:.4g} us, median over passes)",
        f"setup_s          {metrics['setup_s']:.6g} s  ({describe(setups, 'fresh interpreters')}; "
        f"raw {statistics.median(raw for raw, _ in setup_times):.6g} s)",
        f"wall_s           {metrics['wall_s']:.6g} s  ({describe(walls, 'passes')}; "
        f"raw {statistics.median(p.wall_s for p in passes):.6g} s)",
        f"                 passes: {' '.join(f'{w:.4g}' for w in walls)} s",
        f"{rate_name:<16} {statistics.median(work / w for w in walls):.6g} 1/s"
        f"  (work per pass {work:.0f})",
    ]
    checks = [c for p in passes for c in p.checks]
    lines.append(f"failed_frac      {failed / attempted:.6g}  ({failed} of {attempted})")
    sims = [c for c in checks if c.detected_ok is not None]
    if rate_name == "cell_steps_per_s":
        if sims:
            confirmed = sum(c.detected_ok for c in sims) / len(sims)
            lines.append(f"sides_confirmed_frac {confirmed:.6g}  ({len(sims)} runs)")
            worst = max(c.angle_rel_error for c in sims)
            lines.append(f"angle_rel_error  {worst:.6g}  (worst relative error of rho)")
    else:
        ratios = [c.worst_tol_ratio for c in checks if c.worst_tol_ratio is not None]
        if ratios:
            lines.append(f"worst_tol_ratio  {max(ratios):.6g}  (lemma3 not included)")
    lines.append(f"peak_rss_mb      {rss_mb:.6g} MB")
    return metrics, lines


def to_reference_speed(metrics: dict, scale: float) -> dict:
    """Layer times (s, us) and rates (1/s) of one pass at the reference
    speed, so they compare across runs like the end-to-end times."""
    units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
    power = {"s": 1, "us": 1, "1/s": -1}
    return {name: value * scale ** power[units[name]] if units.get(name) in power else value
            for name, value in metrics.items()}


def layer_report(workload, passes, tracer) -> tuple[dict, list[str], list[str]]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    per_pass = [to_reference_speed(tracing.pass_metrics(p.spans, p.counters, p.theta_keys),
                                   p.ref_s / p.wall_s) for p in traced]
    metrics = {}
    problems = []
    for name in tracing.LAYER_METRICS:
        values = [m[name] for m in per_pass if name in m]
        if not values:
            continue
        if name in tracing.EXACT_COUNTS and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
        metrics[name] = values[0] if name.endswith(".calls") or name in tracing.EXACT_COUNTS \
            else statistics.median(values)
    metrics["cli.out_bytes"] = sum(c.out_bytes for c in traced[0].checks)
    metrics["vfe.rk4_step.peak_alloc_bytes"] = tracing.rk4_peak_alloc(tracer.rk4_samples)
    traced_wall = statistics.median(p.ref_s for p in traced)
    untraced_wall = statistics.median(p.ref_s for p in untraced)
    metrics["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics = {name: metrics[name] for name in tracing.LAYER_METRICS}

    lines = [f"traced passes {len(traced)}, untraced {len(untraced)}; "
             f"wall_s at the reference speed: traced {traced_wall:.6g} s, "
             f"untraced {untraced_wall:.6g} s"]
    for name, (unit, _better) in tracing.LAYER_METRICS.items():
        lines.append(f"  {name:<40} {metrics[name]:.6g} {unit}")
    shares = tracing.layer_shares(traced[0].spans)
    lines.append("layer shares of the traced cli.main time (busy = outermost spans, self = own):")
    lines.append(f"  cli    self {shares.pop('cli')['self']:.3f}")
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]["busy"]):
        lines.append(f"  {layer:<6} self {share['self']:.3f}  busy {share['busy']:.3f}")
    if workload == "pentagon_evolve":
        spans = traced[0].spans
        own = tracing.self_times(spans)
        kernel = sum(own[s[0]] for s in spans
                     if s[1] in ("vfe.rk4_step", "vfe.flow_rhs", "vfe.evolve"))
        lines.append(f"self time of rk4_step + flow_rhs + evolve: "
                     f"{kernel / tracing.root_ns(spans):.3f} of the traced cli.main time")
    for problem in problems:
        lines.append(f"PROBLEM {problem}")
    return metrics, lines, problems


# -------------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size (for tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = load_cli()
        env = environment()
        ops = workloads.build(args.workload, args.seed, args.smoke)
        warm_ops = workloads.build(args.workload, args.seed, smoke=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    seed_note = ("ignored: this workload replays fixed CLI ranges"
                 if args.workload in workloads.SEED_IGNORED else "draws the sweep")
    print(f"== polyfil benchmark: workload {args.workload}, seed {args.seed} ({seed_note}), "
          f"trace {args.trace}, {args.seconds:g} s{' (smoke sizes)' if args.smoke else ''}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    for op in ops:
        detail = op.sim.label() if op.sim else f"{op.expected_cases} cases"
        print(f"op: polyfil {' '.join(op.argv)}  [{detail}]")

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    tracer = tracing.Tracer() if args.trace else None
    # Set-up probes (trace 0 only) run one after each pass and are topped up
    # at the end, so their median spans the whole run, not one moment of it.
    setup_times = []

    def probe() -> None:
        if not args.trace:
            setup_times.append(setup_probe(args.workload, args.seed, args.smoke))

    try:
        probe()  # untimed: fills the bytecode cache
        setup_times.clear()
        warm = run_pass(cli, warm_ops, workdir)

        def step(traced: bool) -> PassResult:
            if not traced:
                result = run_pass(cli, ops, workdir)
                probe()
                return result
            tracer.install()
            try:
                return run_pass(cli, ops, workdir, tracer)
            finally:
                tracer.uninstall()

        passes = run_for(args.seconds, step, [False, True] if args.trace else [False])
        while not args.trace and len(setup_times) < SETUP_REPEATS:
            probe()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = warm.checks + [c for p in passes for c in p.checks]
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    problems = [msg for c in checks for msg in c.problems]

    if any(op.sim for op in ops):
        first = passes[0].checks
        for op, c in zip(ops, first):
            print(f"run {op.sim.label()}: sides {op.sim.expected_sides}, "
                  f"detected {'yes' if c.detected_ok else 'no'}, "
                  f"angle relative error {c.angle_rel_error}")

    if args.trace:
        metrics, lines, trace_problems = layer_report(args.workload, passes, tracer)
        failed += len(trace_problems)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        tracing.write_spans(path, [p.spans for p in passes if p.traced])
        lines.append(f"spans written to {path.relative_to(ROOT)}")
        units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
    else:
        metrics, lines = end_to_end_report(ops, passes, setup_times, attempted, failed)
        units = E2E_METRICS
    print("\n".join(lines))
    for problem in problems[:50]:
        print(f"FAILED {problem}")

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
