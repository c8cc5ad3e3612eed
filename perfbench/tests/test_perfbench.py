"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- tracing


def test_self_time_on_synthetic_span_tree():
    # root 0..100 with children 10..30 and 25..60 (overlapping) and 90..120
    # (sticking out); child 10..30 has a grandchild 12..20.
    spans = [
        (1, "a.child", 10, 30, 0, 0),
        (2, "a.grand", 12, 20, 1, 0),
        (3, "b.child", 25, 60, 0, 0),
        (4, "b.late", 90, 120, 0, 0),
        (0, "cli.main", 0, 100, -1, 0),
    ]
    own = tracing.self_times(spans)
    assert own[0] == 100 - (60 - 10) - (100 - 90)
    assert own[1] == 20 - 8
    assert own[2] == 8
    assert own[3] == 35
    assert own[4] == 30


def test_busy_counts_nested_same_name_once():
    spans = [
        (2, "gauss.theta_sequence", 5, 8, 1, 0),
        (1, "gauss.theta_sequence", 0, 10, 0, 0),
        (3, "gauss.theta_sequence", 20, 24, 0, 0),
        (0, "cli.main", 0, 30, -1, 0),
    ]
    busy = tracing.busy_ns(spans)
    assert busy["gauss.theta_sequence"] == 14
    assert busy["cli.main"] == 30
    shares = tracing.layer_shares(spans)
    assert shares["gauss"]["busy"] == pytest.approx(14 / 30)
    assert shares["cli"]["self"] == pytest.approx(16 / 30)


def test_tracer_records_parent_links_and_restores_functions():
    from types import ModuleType

    layer = ModuleType("fakepkg.gauss")
    caller = ModuleType("fakepkg.cli")

    def theta_sequence(p, q):
        return type("T", (), {"entries": (0,) * q, "p": p, "q": q})()

    layer.theta_sequence = theta_sequence
    caller.theta_sequence = theta_sequence
    sys.modules["fakepkg"] = ModuleType("fakepkg")
    sys.modules["fakepkg.gauss"] = layer
    sys.modules["fakepkg.cli"] = caller
    try:
        tracer = tracing.Tracer()
        tracer.install("fakepkg")
        assert caller.theta_sequence is not theta_sequence
        with tracer.op(7):
            caller.theta_sequence(1, 5)
            caller.theta_sequence(1, 5)
        tracer.uninstall()
        assert caller.theta_sequence is theta_sequence
        assert layer.theta_sequence is theta_sequence
    finally:
        for name in ("fakepkg", "fakepkg.gauss", "fakepkg.cli"):
            del sys.modules[name]
    root = [s for s in tracer.spans if s[1] == tracing.ROOT][0]
    children = [s for s in tracer.spans if s[1] == "gauss.theta_sequence"]
    assert len(children) == 2 and all(s[4] == root[0] and s[5] == 7 for s in children)
    m = tracing.pass_metrics(tracer.spans, tracer.counters, tracer.theta_keys)
    assert m["gauss.evals"] == 10
    assert m["gauss.theta_sequence.calls"] == 2
    assert m["gauss.theta_sequence.distinct_ratio"] == 0.5


def test_tail_percentile_needs_ten_samples_beyond():
    assert bench.tail_percentile(list(range(10))) is None
    p, value = bench.tail_percentile(list(range(1, 101)))
    assert p == 90 and value == 90
    p, _ = bench.tail_percentile(list(range(1000)))
    assert p == 99


def test_speed_probe_scales_to_the_reference_speed():
    probe = speed.SpeedProbe()
    probe.samples = [2 * speed.REF_S, 2 * speed.REF_S, 4 * speed.REF_S]
    assert probe.spent(1) == pytest.approx(6 * speed.REF_S)
    # the machine ran at 3/8 of the reference speed: 6 s measured is 2.25 s
    assert probe.to_reference(6.0) == pytest.approx(6.0 * 3 / 8)


def test_speed_probe_samples_and_restores_the_signal_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            sum(range(100))
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) >= 3
    assert probe.to_reference(1.0) > 0


# -------------------------------------------------------------- workloads


def test_case_totals_match_the_cli_ranges():
    assert workloads.expected_case_total("all", 17, 10) == 1596
    ops = workloads.build("verify_wide", 0)
    assert sum(op.expected_cases for op in ops) == 4428


def test_sweep_is_seeded_and_has_fixed_cost():
    seen = set()
    for seed in range(20):
        configs = workloads.draw_sweep(seed)
        assert configs == workloads.draw_sweep(seed)
        assert len(configs) == workloads.SWEEP_RUNS
        assert sum(c.p * c.q for c in configs) == workloads.SWEEP_PQ_TOTAL
        lo, hi = workloads.SWEEP_CELL_BAND
        assert lo <= sum(c.p * c.q * c.M * c.q for c in configs) <= hi
        for c in configs:
            assert 3 <= c.M <= 8 and 1 <= c.q <= 5 and math.gcd(c.p, c.q) == 1
            assert c.grid == 64 * c.M * c.q
        seen.add(tuple(configs))
    assert len(seen) > 10


def test_nominal_steps_match_the_documented_scheme():
    # acceptance criterion 8: 19,557 RK4 steps at n = 1920
    assert workloads.SimConfig(5, 1, 3, 1920).nominal_steps == 19557


def test_strict_json_rejects_non_finite_numbers():
    assert workloads.strict_json('{"a": 1.5}') == {"a": 1.5}
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError):
            workloads.strict_json(f'{{"a": {token}}}')


def _verify_output(total, outcomes):
    return json.dumps({
        "manifest": {"tolerances": {"phase_model": 1e-8}},
        "total": total, "failed": 0, "skipped": 0, "outcomes": outcomes,
    })


def test_check_verify_counts_every_miss():
    op = workloads.Op(argv=("verify",), expected_cases=2)
    good = [{"case_id": "lemma4/p=1/q=3", "passed": True, "residual": 1e-9,
             "budget_skipped": False}] * 2
    check = workloads.check_verify(op, 0, _verify_output(2, good))
    assert check.failed == 0 and check.worst_tol_ratio == pytest.approx(0.1)

    skipped = good[:1] + [{"case_id": "lemma4/p=2/q=3", "passed": False,
                           "residual": None, "budget_skipped": True}]
    assert workloads.check_verify(op, 0, _verify_output(2, skipped)).failed == 1
    assert workloads.check_verify(op, 0, _verify_output(1, good[:1])).failed == 2
    assert workloads.check_verify(op, 1, _verify_output(2, good)).failed == 2
    nan = _verify_output(2, good).replace("1e-09", "NaN")
    assert workloads.check_verify(op, 0, nan).failed == 2


def test_check_simulate_rejects_wrong_side_count(tmp_path):
    cfg = workloads.SimConfig(3, 1, 1, 6)
    op = workloads.Op(argv=("simulate",), sim=cfg)
    prefix = str(tmp_path / "run")
    payload = {"sides": 3, "detected_sides": 0, "relative_error": 0.01}
    rows = "s,Tx,Ty,Tz\n" + "0,1.0,0.0,0.0\n" * 6
    Path(prefix + ".tangent.csv").write_text(rows)
    Path(prefix + ".curve.csv").write_text(rows + "0,0,0,0\n")
    Path(prefix + ".summary.json").write_text(json.dumps(payload))
    check = workloads.check_simulate(op, 0, json.dumps(payload), prefix)
    assert check.failed == 0 and check.detected_ok is False
    wrong = dict(payload, sides=4)
    Path(prefix + ".summary.json").write_text(json.dumps(wrong))
    assert workloads.check_simulate(op, 0, json.dumps(wrong), prefix).failed == 1


# ------------------------------------------------------------ BENCHMARK.json


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == bench.E2E_METRICS
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == tracing.LAYER_METRICS
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


# ------------------------------------------------------------- smoke runs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric_and_repeats_counts(workload):
    plain = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                         "--trace", "0", "--smoke"))
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == set(bench.E2E_METRICS)
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = [_result(_run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                           "--trace", "1", "--smoke")) for _ in range(2)]
    for result in traced:
        assert set(result["metrics"]) == set(tracing.LAYER_METRICS)
    for name in tracing.EXACT_COUNTS:
        assert traced[0]["metrics"][name]["value"] == traced[1]["metrics"][name]["value"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "verify_all", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
