import ast
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from polyfil import cli, gauss, rotor, sums, vfe
from polyfil.cli import main
from polyfil.errors import NonUnitSpinor, UndefinedTheta
from polyfil.vfe import (
    CurveSample, SimulationConfig, TangentField, evolve, initial_tangent,
)

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_gauss_single_value(capsys):
    code, payload = run_json(capsys, "gauss", "--p", "1", "--q", "3", "--n", "0")
    assert code == 0
    assert abs(payload["re"]) < 1e-14
    assert abs(payload["im"] + math.sqrt(3)) < 1e-13
    assert abs(payload["arg"] + math.pi / 2) < 1e-13
    assert payload["vanishing"] is False
    assert payload["manifest"]["command"] == "gauss"
    assert payload["manifest"]["tool_version"]


def test_gauss_vanishing_has_null_arg(capsys):
    code, payload = run_json(capsys, "gauss", "--p", "1", "--q", "2", "--n", "0")
    assert code == 0
    assert payload["vanishing"] is True
    assert payload["arg"] is None


def test_gauss_trivial_modulus_one(capsys):
    code, payload = run_json(capsys, "gauss", "--p", "1", "--q", "1", "--n", "0")
    assert code == 0
    assert payload["re"] == 1.0 and payload["im"] == 0.0


def test_gauss_without_n_gives_table(capsys):
    code, payload = run_json(capsys, "gauss", "--p", "1", "--q", "4")
    assert code == 0
    assert [e["vanishing"] for e in payload["entries"]] == [False, True, False, True]


def test_usage_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "gauss", "--p", "2", "--q", "4", "--n", "0")
    assert code == 2
    assert "coprime" in err


def test_theta_table(capsys):
    code, payload = run_json(capsys, "gauss", "--p", "1", "--q", "3")
    assert code == 0
    args = [e["arg"] for e in payload["entries"]]
    assert abs(args[0] + math.pi / 2) < 1e-13
    assert abs(args[1] - math.pi / 6) < 1e-13


def test_rho_twelve_digits(capsys):
    code, payload = run_json(capsys, "rho", "--M", "5", "--q", "3")
    assert code == 0
    assert abs(payload["rho"] - 0.74295) < 5e-5
    code, payload = run_json(capsys, "rho", "--M", "5", "--q", "1")
    assert abs(payload["rho"] - 2 * math.pi / 5) < 1e-11
    code, payload = run_json(capsys, "rho", "--M", "4", "--q", "2")
    assert abs(payload["rho"] - math.pi / 2) < 1e-11


def test_sums_command(capsys):
    code, payload = run_json(capsys, "sums", "--p", "1", "--q", "5")
    assert code == 0
    assert len(payload["reports"]) == 2
    for report in payload["reports"]:
        assert report["passed"]
        assert report["residual"] <= 1e-10


def test_sums_rejects_bad_k(capsys):
    code, _, err = run_cli(capsys, "sums", "--p", "1", "--q", "3", "--k", "5")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("--p", "1", "--q", "1"),
    ("--p", "3", "--q", "8", "--k-max", "0"),
    ("--p", "3", "--q", "8", "--k-max", "-2"),
])
def test_sums_empty_k_range_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "sums", *argv)
    assert code == 2
    assert err.startswith("error: ") and "no k" in err
    assert out == ""


def test_sums_k_with_k_max_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sums", "--p", "1", "--q", "12", "--k", "5", "--k-max", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument --k" in captured.err


@pytest.mark.parametrize("argv, message", [
    (("sums", "--p", "1", "--q", "1031", "--k", "258"), "exceeds the float range"),
    (("sums", "--p", "1", "--q", "1031"), "exceeds the float range"),
    (("verify", "--suite", "sums", "--q-max", "1031"), "MAX_VERIFY_WORK"),
    (("verify", "--suite", "all", "--q-max", "1031"), "MAX_VERIFY_WORK"),
], ids=["sums-one-k", "sums-every-k", "verify-sums", "verify-all"])
def test_sums_bound_beyond_the_float_range_is_usage_error(capsys, monkeypatch, argv, message):
    # C(1031, 2k) * 1e-8 exceeds the float range from k = 246 on; sums
    # checks the bound before any sum is evaluated, and verify's work cap
    # refuses the range before any table is built
    calls = count_calls(monkeypatch, ("alternating_products", "_gauss_table"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert calls == {"alternating_products": 0, "_gauss_table": 0, "rho_sizes": []}


def test_sums_bound_inside_the_float_range_is_evaluated(capsys):
    # k = 245 is the last k at q = 1031 whose bound is a float
    code, payload = run_json(capsys, "sums", "--p", "1", "--q", "1031", "--k", "245")
    [report] = payload["reports"]
    assert report["k"] == 245 and report["term_count"] == math.comb(1031, 490)
    assert code == (0 if report["passed"] else 1)


def test_sums_bound_of_a_huge_q_stops_at_the_first_overflow():
    # every k up to q/2 = 5e29 is in range; the bound walks them lazily and
    # overflows at k = 6, before any list or table as long as q exists.
    # Run in a child with its address space capped at 1.5 GB, so that a
    # q-long list ends in a MemoryError there instead of filling the machine.
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, 1536 * 2**20))\n"
        "from polyfil import cli\n"
        "sys.exit(cli.main(['sums', '--p', '1', '--q', str(10**30)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("error: the sums bound ") and proc.stderr.count("\n") == 1
    assert "k=6 exceeds the float range" in proc.stderr


def test_verify_work_cap_keeps_every_sums_bound_in_the_float_range():
    # verify checks no sums bound of its own: the largest --q-max the cap
    # admits for --suite sums has every bound of q_max and q_max - 1 (the
    # odd one has the most admissible indices) in the float range
    q_max = 1
    while cli._verify_work(("sums",), q_max + 1, 0) <= cli.MAX_VERIFY_WORK:
        q_max += 1
    assert q_max == 156
    for q in (q_max, q_max - 1):
        cli._check_sums_bounds(q, range(1, q // 2 + 1))


@pytest.mark.parametrize("argv", [
    ["gauss", "--p", "1", "--q", str(10**12)],
    ["sums", "--p", "1", "--q", str(10**12), "--k", "1"],
], ids=["gauss", "sums"])
def test_arrays_beyond_memory_are_usage_errors(argv):
    # q = 10**12 passes every range check, and its q-long arrays cannot
    # be allocated under the child's 1.5 GB address-space cap
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, 1536 * 2**20))\n"
        "from polyfil import cli\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("error: out of memory: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "vanishing", "--q-max", str(10**12)],
    ["verify", "--suite", "theorem2", "--q-max", "3", "--m-max", str(10**9)],
    # one table entry, which an estimate rounded down to 0 lets through
    ["verify", "--suite", "theorem2", "--q-max", "1", "--m-max", str(10**9)],
], ids=["q-max", "m-max", "m-max-at-q-max-1"])
def test_verify_beyond_the_work_cap_is_refused_before_the_pass(argv):
    # every range passes every other check; the child has a timeout and
    # an address space capped at 1.5 GB, so a lost refusal fails, not hangs
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, 1536 * 2**20))\n"
        "from polyfil import cli\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=10)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert f"MAX_VERIFY_WORK={cli.MAX_VERIFY_WORK} " in proc.stderr


@pytest.mark.parametrize("argv, named", [
    (("--suite", "sums", "--q-max", "1031"), "--q-max 1031 "),
    (("--suite", "vanishing", "--q-max", "1000", "--m-max", "5"), "--q-max 1000 "),
    (("--suite", "all", "--q-max", "1031"), "--q-max 1031 --m-max 10 "),
    (("--suite", "theorem2", "--q-max", "3", "--m-max", str(10**9)),
     f"--q-max 3 --m-max {10**9} "),
], ids=["sums", "vanishing-given-m-max", "all", "theorem2"])
def test_verify_work_cap_names_only_the_arguments_of_the_selected_suites(capsys, argv, named):
    # --m-max counts only for theorem2, so the refusal names it only there
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == (f"error: {named}asks for more than MAX_VERIFY_WORK={cli.MAX_VERIFY_WORK} "
                   "table-entry passes\n")


def test_verify_work_counts_the_suites_that_read_tables():
    # table entries (q_max^3 - q_max)/3 + 1 bound sum_{q <= q_max} phi(q)*q
    assert cli._verify_work(("vanishing",), 400, 0) == 21_333_201
    assert cli._verify_work(("vanishing", "lemma4"), 200, 0) == 2 * 2_666_601
    assert cli._verify_work(("sums",), 100, 0) == 100 * 333_301
    assert cli._verify_work(("theorem2",), 120, 8) == 24 * 575_961
    assert cli._verify_work(("theorem2",), 1, 10**9) == 3 * (10**9)
    # exact up to q_max = 3: 1, 1 + 2 and 1 + 2 + 6 entries
    assert [cli._verify_work(("vanishing",), q, 0) for q in (1, 2, 3)] == [1, 3, 9]
    assert cli._verify_work(("lemma3",), 10**12, 0) == 0
    assert cli._verify_work(("vanishing",), -3, 0) == 0
    assert cli._verify_work(("vanishing",), 0, 0) == 0
    # the largest planned benchmark ranges lie well under the cap
    assert 6 * cli._verify_work(("sums",), 100, 0) <= cli.MAX_VERIFY_WORK
    assert 14 * cli._verify_work(("theorem2",), 120, 8) <= cli.MAX_VERIFY_WORK


@pytest.mark.parametrize("q", ["0", "-3"])
def test_sums_non_positive_q_is_usage_error(capsys, q):
    code, out, err = run_cli(capsys, "sums", "--p", "1", "--q", q)
    assert code == 2
    assert err.startswith("error: ") and "q must be positive" in err
    assert out == ""


def test_rotation_command(capsys):
    code, payload = run_json(capsys, "rotation", "--M", "5", "--p", "1", "--q", "1")
    assert code == 0
    assert abs(payload["angle"] - 2 * math.pi / 5) < 1e-12
    assert payload["angle_error"] < 1e-12
    assert payload["axis"] == pytest.approx([1.0, 0.0, 0.0])
    assert len(payload["matrix"]) == 3 and len(payload["matrix"][0]) == 3

    code, payload = run_json(capsys, "rotation", "--M", "5", "--p", "1", "--q", "2")
    assert abs(payload["angle"] - 2 * math.pi / 5) < 1e-12

    code, payload = run_json(capsys, "rotation", "--M", "5", "--p", "1", "--q", "3")
    assert abs(payload["angle"] - 2 * math.pi / 5) < 1e-9


@pytest.mark.parametrize("argv, code, passed", [
    (("--M", "5", "--p", "1", "--q", "3"), 0, True),
    # at M = 10000 a +-5% detuning moves the angle by only ~3e-5, which
    # is the whole miss DETUNING*2*pi/M of a single factor
    (("--M", "10000", "--p", "1", "--q", "1"), 0, True),
    # rho = 2*pi/1e20 is tiny but positive, so the check runs
    (("--M", "100000000000000000000", "--p", "1", "--q", "1"), 0, True),
])
def test_rotation_exit_code_follows_check(capsys, argv, code, passed):
    got, payload = run_json(capsys, "rotation", *argv)
    assert (got, payload["passed"]) == (code, passed)
    assert type(payload["passed"]) is bool
    assert payload["manifest"]["tolerances"] == {
        "angle": 1e-9, "detuning": 0.05, "falsification_ratio_min": 0.5,
    }


@pytest.mark.parametrize("q", ["1", "2", "3", "7"])
def test_rotation_passes_past_M_3141_with_a_floor_that_scales_with_the_angle(capsys, q):
    # a +-5% detuning misses 2*pi/M by about DETUNING*2*pi/M, and the
    # floor is half of that, so no M is too large: an absolute floor of
    # 1e-4 failed every case from M = 3142 on, with an angle_error of 4e-19
    for M in (3141, 3142, 10**5, 10**20):
        got, payload = run_json(capsys, "rotation", "--M", str(M), "--p", "1", "--q", q)
        assert (got, payload["passed"]) == (0, True)
        assert payload["angle_error"] <= 1e-17
        ratio = payload["falsification_margin"] / (rotor.DETUNING * 2 * math.pi / M)
        assert ratio >= cli.FALSIFICATION_RATIO_MIN
        assert ratio == pytest.approx(1.0, rel=1e-6)


def test_verify_theorem2_passes_past_M_3141(capsys):
    # an absolute margin floor of 1e-4 failed the four M = 3142 cases
    code, payload = run_json(
        capsys, "verify", "--suite", "theorem2", "--q-max", "3", "--m-max", "3142")
    assert (code, payload["total"], payload["failed"]) == (0, 4 * 3140, 0)
    assert payload["manifest"]["tolerances"]["detuning"] == rotor.DETUNING
    assert payload["manifest"]["tolerances"]["falsification_ratio_min"] == 0.5


def probe_at(factor):
    """A _detuned_angles that probes rho * (1 -+ factor) in place of
    rho * (1 -+ DETUNING), which it leaves as it is."""
    def detuned(q, Ms):
        rhos = np.array([rotor.inter_side_angle(M, q) for M in Ms])
        return np.concatenate([rhos, (1.0 - factor) * rhos, (1.0 + factor) * rhos])
    return detuned


@pytest.mark.parametrize("factor", [0.005, 0.0], ids=["half-percent", "no-detuning"])
def test_verify_theorem2_rejects_a_probe_weaker_than_its_detuning(capsys, monkeypatch,
                                                                 factor):
    # a probe at 0.5% misses 2*pi/M by more than 1e-4 at M <= 10, so an
    # absolute floor passed it; the floor that scales with DETUNING fails
    # every case.  With no detuning every margin is an angle error, below
    # either floor.
    blocks = [rotor.factor_block(gauss.theta_sequences(
        [p for p in range(1, q + 1) if math.gcd(p, q) == 1], q)) for q in range(1, 18)]
    monkeypatch.setattr(rotor, "_detuned_angles", probe_at(factor))
    margins = rotor.certificate_arrays(blocks, range(3, 11)).falsification_margin
    if factor:
        assert margins.min() > 1e-4
    else:
        assert margins.max() <= cli.TOL_ROTATION_ANGLE
    assert rotor.DETUNING == 0.05
    code, payload = run_json(
        capsys, "verify", "--suite", "theorem2", "--q-max", "17", "--m-max", "10")
    assert (code, payload["total"]) == (1, margins.size)
    assert payload["failed"] == payload["total"]


@pytest.mark.parametrize("argv, message", [
    (("rho", "--M", "1" + "0" * 400, "--q", "3"), "float"),
    (("rho", "--M", "5", "--q", "1" + "0" * 400), "float"),
    (("rotation", "--M", "1" + "0" * 400, "--p", "1", "--q", "3"), "float"),
    # len(range(3, m_max + 1)) does not fit an index
    (("verify", "--suite", "theorem2", "--q-max", "3", "--m-max", "1" + "0" * 41),
     "too large"),
    # the rational time 2*pi*p/(q*M^2) does not fit a float
    (("simulate", "--M", "3", "--p", "1" + "0" * 400, "--q", "1", "--grid", "96"),
     "float"),
], ids=["rho-M", "rho-q", "rotation-M", "verify-m-max", "simulate-p"])
def test_values_beyond_float_or_index_are_usage_errors(tmp_path, monkeypatch, capsys,
                                                       argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (("--M", "2", "--p", "2", "--q", "4"), "M must be at least 3"),
    # M is in range, so the pair's coprimality is checked next
    (("--M", "3", "--p", "2", "--q", "4"), "p=2 and q=4 must be coprime"),
    (("--M", "5", "--p", "1", "--q", "-3"), "q must be positive"),
], ids=["M-below-3", "not-coprime", "q-negative"])
def test_rotation_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, "rotation", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def count_calls(monkeypatch, names):
    """Wrap `names` wherever cli, rotor, gauss or sums binds them; return a dict
    with the call count of each and the number of rho values passed per
    call of the product kernel _ordered_products."""
    calls = {name: 0 for name in names}
    calls["rho_sizes"] = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "_ordered_products":
                calls["rho_sizes"].append(np.size(args[1]))
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module in (cli, rotor, gauss, sums):
        for name in names:
            if hasattr(module, name):
                counted(module, name)
    return calls


def test_rotation_builds_one_table_and_three_products(capsys, monkeypatch):
    # the three products (rho, 0.95 rho, 1.05 rho) are one batched call
    calls = count_calls(monkeypatch, ("theta_sequence", "_ordered_products"))
    code, _ = run_json(capsys, "rotation", "--M", "5", "--p", "1", "--q", "3")
    assert code == 0
    assert calls == {"theta_sequence": 1, "_ordered_products": 1, "rho_sizes": [3]}


def test_verify_theorem2_one_table_and_one_product_per_range(capsys, monkeypatch):
    # one stacked table per q, and one ragged kernel call over every
    # (p, q) row of the range at 24 angles each; the per-pair functions
    # are not called at all
    names = ("theta_sequence", "theta_sequences", "_gauss_table", "_ordered_products")
    calls = count_calls(monkeypatch, names)
    code, payload = run_json(
        capsys, "verify", "--suite", "theorem2", "--q-max", "8", "--m-max", "10"
    )
    pairs = sum(1 for q in range(1, 9) for p in range(1, q + 1) if math.gcd(p, q) == 1)
    assert code == 0 and pairs == 22
    assert payload["total"] == 8 * pairs
    assert calls == {
        "theta_sequence": 0, "theta_sequences": 8, "_gauss_table": 8,
        "_ordered_products": 1, "rho_sizes": [pairs * 24],
    }


def test_verify_all_builds_one_table_per_q_for_every_suite(capsys, monkeypatch):
    # vanishing, lemma4, sums and theorem2 share each q's table (and
    # lemma4 and sums its phase fit): 8 tables, not 8 + 8 + 7 + 8 = 31
    calls = count_calls(monkeypatch, ("_gauss_table", "_fit_phase", "theta_sequence"))
    code, payload = run_json(capsys, "verify", "--suite", "all", "--q-max", "8")
    assert code == 0 and set(payload["suites"]) == {
        "sums", "theorem2", "lemma3", "lemma4", "vanishing"}
    assert calls == {"_gauss_table": 8, "_fit_phase": 8, "theta_sequence": 0,
                     "rho_sizes": []}


def test_verify_all_finds_each_admissible_set_once(capsys, monkeypatch):
    # the phase fit, sums and theorem2 read each q's admissible indices
    # from its table, which finds them once: 8 tables, 8 calls
    found = []
    original = gauss.admissible_mask
    monkeypatch.setattr(gauss, "admissible_mask", lambda q: found.append(q) or original(q))
    code, _ = run_json(capsys, "verify", "--suite", "all", "--q-max", "8", "--m-max", "4")
    assert code == 0
    assert found == list(range(1, 9))


def test_verify_vanishing_fits_no_phase(capsys, monkeypatch):
    # vanishing reads the moduli and flags alone, so no table is fitted
    calls = count_calls(monkeypatch, ("_gauss_table", "_fit_phase"))
    code, payload = run_json(capsys, "verify", "--suite", "vanishing", "--q-max", "8")
    assert code == 0 and payload["total"] == 22
    assert calls == {"_gauss_table": 8, "_fit_phase": 0, "rho_sizes": []}


def test_verify_sums_one_table_and_one_kernel_call_per_q(capsys, monkeypatch):
    # one stacked table and one alternating-sum kernel call serve every p
    # of a q (both sequences of every p); no per-pair table is built
    names = ("theta_sequence", "theta_sequences", "alternating_products")
    calls = count_calls(monkeypatch, names)
    code, payload = run_json(capsys, "verify", "--suite", "sums", "--q-max", "8")
    assert code == 0
    assert payload["total"] == sum(q // 2 for q in range(2, 9) for p in range(1, q + 1)
                                   if math.gcd(p, q) == 1)
    assert calls == {"theta_sequence": 0, "theta_sequences": 7,
                     "alternating_products": 7, "rho_sizes": []}


def test_verify_lemma3_evaluates_every_case_in_one_kernel_call(capsys, monkeypatch):
    calls = count_calls(monkeypatch, ("alternating_products",))
    code, payload = run_json(capsys, "verify", "--suite", "lemma3")
    assert code == 0 and payload["total"] == 101
    assert calls == {"alternating_products": 1, "rho_sizes": []}


def test_verify_lemma4_one_table_per_q(capsys, monkeypatch):
    # the phase fit and the comparison read the same stacked table
    calls = count_calls(monkeypatch, ("_gauss_table", "theta_sequence"))
    code, payload = run_json(capsys, "verify", "--suite", "lemma4", "--q-max", "8")
    assert code == 0 and payload["total"] == 22
    assert calls == {"_gauss_table": 8, "theta_sequence": 0, "rho_sizes": []}


@pytest.mark.parametrize("suite, q_max, m_max, total, bound", [
    # lemma4 to q = 60, 1102 rows: the run, output text included, peaks
    # under 1 MB.  A cache that kept every table peaked at 2.3 MB.
    ("lemma4", 60, 10, 1102, 1_000_000),
    # theorem2 to q = 100 at M = 3, 3044 rows, keeps one factor block per
    # q: 5.5 MB.  Keeping every table for the rotation check took 12.3 MB.
    ("theorem2", 100, 3, 3044, 8_000_000),
], ids=["lemma4", "theorem2"])
def test_verify_keeps_one_table_at_a_time(capsys, suite, q_max, m_max, total, bound):
    # the one pass drops each q's table after its checks
    argv = ["verify", "--suite", suite, "--q-max", str(q_max), "--m-max", str(m_max)]
    main(argv)  # warm numpy's caches
    capsys.readouterr()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["total"] == total
    assert peak <= bound, peak


@pytest.mark.parametrize("argv", [
    ("--suite", "theorem2", "--m-max", "2"),
    ("--suite", "sums", "--q-max", "1"),
], ids=["theorem2-no-M", "sums-no-k"])
def test_verify_builds_no_table_that_no_suite_reads(capsys, monkeypatch, argv):
    calls = count_calls(monkeypatch, ("_gauss_table", "_fit_phase"))
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == "" and "selects no case" in err
    assert calls == {"_gauss_table": 0, "_fit_phase": 0, "rho_sizes": []}


def test_verify_check_precondition_error_is_a_failed_check(capsys, monkeypatch):
    # a product off the unit sphere, or an admissible sum with no argument,
    # fails the check it stops
    for error in (NonUnitSpinor("spinor norm drifted"),
                  UndefinedTheta("G(-1,0,1) vanishes; no argument")):
        def failed(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "certificate_arrays", failed)
        code, out, err = run_cli(capsys, "verify", "--suite", "theorem2", "--q-max", "4")
        assert code == 1 and out == ""
        assert err == f"error: {error}\n"


def test_internal_error_exits_4_with_its_traceback(capsys, monkeypatch):
    def broken(table):
        raise IndexError("index 7 is out of bounds")

    monkeypatch.setitem(cli._PER_Q_CHECKS, "lemma4", (1, broken))
    code, out, err = run_cli(capsys, "verify", "--suite", "lemma4", "--q-max", "4")
    assert code == 4 and out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("IndexError: index 7 is out of bounds\n")


def test_exit_codes_are_decided_in_main_alone():
    # no command catches an error, only main reads the codes 2, 3 and 4,
    # and main also turns an error into the code 1
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    commands = [name for name in functions if name.startswith("cmd_")]
    assert len(commands) == 6
    for name in commands:
        assert not any(isinstance(node, ast.Try) for node in ast.walk(functions[name])), name

    def reads(node):
        return sorted(name.id for name in ast.walk(node) if isinstance(name, ast.Name)
                      and name.id in ("EXIT_USAGE", "EXIT_BLOWUP", "EXIT_INTERNAL")
                      and isinstance(name.ctx, ast.Load))

    assert set(reads(functions["main"])) == {"EXIT_USAGE", "EXIT_BLOWUP", "EXIT_INTERNAL"}
    assert reads(tree) == reads(functions["main"])
    assert any(isinstance(name, ast.Name) and name.id == "EXIT_VERIFICATION_FAILED"
               for name in ast.walk(functions["main"]))


def test_verify_sums_suite(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "sums", "--q-max", "8")
    assert code == 0
    assert payload["failed"] == 0
    assert payload["total"] == len(payload["outcomes"])
    ids = [o["case_id"] for o in payload["outcomes"]]
    assert ids == sorted(ids)


def test_verify_sums_checks_every_case(capsys):
    # every case in range, q = 25 and 26 included, is evaluated and passes
    code, payload = run_json(capsys, "verify", "--suite", "sums", "--q-max", "26")
    assert code == 0
    assert payload["total"] == len(payload["outcomes"]) == 1795
    assert payload["failed"] == 0
    assert all(o["passed"] for o in payload["outcomes"])
    assert all(set(o) == {"case_id", "passed", "residual"} for o in payload["outcomes"])


@pytest.mark.parametrize("argv", [
    ("--suite", "vanishing", "--q-max", "-3"),
    ("--suite", "theorem2", "--m-max", "2"),
    ("--suite", "sums", "--q-max", "1"),
])
def test_verify_empty_range_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert err.startswith("error: ") and "no case" in err
    assert out == ""


def test_verify_vanishing_suite(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "vanishing", "--q-max", "12")
    assert code == 0 and payload["failed"] == 0


def test_verify_vanishing_residuals_match_per_entry_loop(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "vanishing", "--q-max", "30")
    assert code == 0
    for outcome in payload["outcomes"]:
        p, q = (int(part.split("=")[1]) for part in outcome["case_id"].split("/")[1:])
        expected = math.sqrt(q) if q % 2 else math.sqrt(2 * q)
        residual = max(
            entry.modulus if (2 * n + 2 - q) % 4 == 0 else abs(entry.modulus - expected)
            for n, entry in enumerate(gauss.theta_sequence(p, q).entries)
        )
        assert outcome["residual"] == residual, outcome["case_id"]


def test_verify_vanishing_fails_on_a_wrong_flag(capsys, monkeypatch):
    # clear the flag of G(-1, 3, 4), which vanishes; its modulus stays 0,
    # so only the pattern check can catch it
    def flipped(ps, q):
        theta = gauss.theta_sequences(ps, q)
        if q != 4:
            return theta
        vanishing = theta.vanishing.copy()
        vanishing[list(ps).index(1)] = [False, True, False, False]
        return dataclasses.replace(theta, vanishing=vanishing)

    monkeypatch.setattr(cli, "theta_sequences", flipped)
    code, payload = run_json(capsys, "verify", "--suite", "vanishing", "--q-max", "4")
    assert code == 1
    assert [o["case_id"] for o in payload["outcomes"] if not o["passed"]] == [
        "vanishing/p=1/q=4"
    ]


def test_verify_lemma4_suite(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "lemma4", "--q-max", "10")
    assert code == 0 and payload["failed"] == 0


def test_verify_lemma3_suite(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "lemma3")
    assert code == 0 and payload["failed"] == 0
    assert payload["total"] == 101  # anchor + 100 random draws


def test_verify_theorem2_suite_small(capsys):
    code, payload = run_json(
        capsys, "verify", "--suite", "theorem2", "--q-max", "6", "--m-max", "6"
    )
    assert code == 0 and payload["failed"] == 0


def test_verify_all_reports_each_suite(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "all", "--q-max", "4")
    assert code == 0
    suites = payload["suites"]
    assert list(suites) == ["sums", "theorem2", "lemma3", "lemma4", "vanishing"]
    assert sum(s["total"] for s in suites.values()) == payload["total"]
    for name, counts in suites.items():
        ids = [o for o in payload["outcomes"] if o["case_id"].startswith(name + "/")]
        assert counts == {"total": len(ids), "failed": 0}


def test_verify_determinism_up_to_timestamp(capsys):
    _, first = run_json(capsys, "verify", "--suite", "lemma3")
    _, second = run_json(capsys, "verify", "--suite", "lemma3")
    first["manifest"].pop("timestamp")
    second["manifest"].pop("timestamp")
    assert first == second


def test_source_date_epoch_makes_runs_byte_identical(capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    argv = ("verify", "--suite", "theorem2", "--q-max", "5", "--m-max", "4")
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second and first[0] == 0
    manifest = json.loads(first[1])["manifest"]
    assert manifest["timestamp"] == "2023-11-14T22:13:20+00:00"
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    code, payload = run_json(capsys, "rho", "--M", "5", "--q", "3")
    assert code == 0 and payload["manifest"]["timestamp"] == "1970-01-01T00:00:00+00:00"


def reject_constant(name):
    raise ValueError(f"{name} in JSON output")


def test_every_command_writes_json_dumps_indent_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in (
        "gauss --p 5 --q 12", "gauss --p 1 --q 3 --n 1", "sums --p 1 --q 12",
        "sums --p 2 --q 9 --k 2", "rho --M 5 --q 3", "rotation --M 5 --p 1 --q 3",
        "verify --suite sums --q-max 6", "verify --suite theorem2 --q-max 4 --m-max 4",
        "verify --suite lemma3", "verify --suite lemma4 --q-max 6",
        "verify --suite vanishing --q-max 6", "verify --suite all --q-max 4 --m-max 4",
        "simulate --M 3 --p 1 --q 1 --grid 96 --out tri",
    ):
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0, argv
        payload = json.loads(out, parse_constant=reject_constant)
        assert out == json.dumps(payload, indent=2) + "\n", argv


def test_unset_or_empty_source_date_epoch_gives_the_current_time(capsys, monkeypatch):
    for value in (None, ""):
        if value is None:
            monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        else:
            monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
        _, payload = run_json(capsys, "rho", "--M", "5", "--q", "3")
        assert not payload["manifest"]["timestamp"].startswith("1970")


@pytest.mark.parametrize("value", ["yesterday", "1.5", "0x10", "1" + "0" * 30])
def test_bad_source_date_epoch_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
    code, out, err = run_cli(capsys, "rho", "--M", "5", "--q", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: SOURCE_DATE_EPOCH") and "Traceback" not in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    # force a failure by making the phase-model tolerance unattainable
    monkeypatch.setattr("polyfil.cli.TOL_PHASE_MODEL", -1.0)
    code, payload = run_json(capsys, "verify", "--suite", "lemma4", "--q-max", "4")
    assert code == 1
    assert payload["failed"] == payload["total"]


def test_verify_csv_format(capsys):
    argv = ("verify", "--suite", "all", "--q-max", "6", "--m-max", "4")
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    manifest, table = out.split("\n", 1)
    assert manifest.startswith("# manifest: ")
    header, *rows = csv.reader(io.StringIO(table))
    assert header == ["case_id", "passed", "residual"]
    # the rows are the JSON outcomes of the range, in the same order
    _, payload = run_json(capsys, *argv)
    assert rows == [[o["case_id"], str(o["passed"]), repr(o["residual"])]
                    for o in payload["outcomes"]]
    assert len(rows) == payload["total"] > 0


def test_simulate_writes_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, payload = run_json(
        capsys, "simulate", "--M", "3", "--p", "1", "--q", "1",
        "--grid", "96", "--out", "tri",
    )
    assert code == 0
    assert payload["sides"] == 3
    assert payload["relative_error"] <= 0.10
    for name in ("tri.tangent.csv", "tri.curve.csv", "tri.summary.json"):
        assert (tmp_path / name).exists()
    tangent_lines = (tmp_path / "tri.tangent.csv").read_text().splitlines()
    assert tangent_lines[0] == "s,Tx,Ty,Tz"
    assert len(tangent_lines) == 97
    curve_lines = (tmp_path / "tri.curve.csv").read_text().splitlines()
    assert curve_lines[0] == "s,Xx,Xy,Xz"
    assert len(curve_lines) == 98
    summary = json.loads((tmp_path / "tri.summary.json").read_text())
    assert summary["manifest"]["command"] == "simulate"
    assert summary["angle_median"] == payload["angle_median"]


def test_simulate_summary_reports_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, payload = run_json(
        capsys, "simulate", "--M", "3", "--p", "1", "--q", "1",
        "--grid", "96", "--out", "tri",
    )
    assert code == 0
    cfg = SimulationConfig(M=3, p=1, q=1, grid_points=96)
    evolved = evolve(initial_tangent(3, 96), cfg.rational_time, cfg)
    assert payload["steps"] == evolved.steps > 0
    assert payload["max_norm_deviation"] == evolved.max_norm_deviation > 0
    # the configured step; the last step is shortened to land on the time
    assert payload["dt"] == cfg.dt == 0.4 * (2.0 * math.pi / 96) ** 2
    assert payload["steps"] == math.ceil(cfg.rational_time / cfg.dt)
    # |ds * sum T|: the polygon closes, and the flow keeps it closed
    drift = float(np.linalg.norm(cfg.ds * evolved.samples.sum(axis=0)))
    assert payload["closure_drift"] == drift <= 1e-12
    assert list(payload).index("dt") == list(payload).index("steps") + 1


def test_simulate_summary_has_exactly_its_keys_in_order(tmp_path, monkeypatch, capsys):
    # a summary key is added, dropped or moved only on purpose
    monkeypatch.chdir(tmp_path)
    code, payload = run_json(
        capsys, "simulate", "--M", "3", "--p", "1", "--q", "1",
        "--grid", "96", "--out", "tri",
    )
    assert code == 0
    assert list(payload) == [
        "manifest", "time", "sides", "detected_sides", "angle_median",
        "angle_spread", "predicted_rho", "relative_error", "rms_from_initial",
        "mean_height", "steps", "dt", "max_norm_deviation", "closure_drift", "files",
    ]


def reference_field_csvs(prefix, field, curve):
    """The CSVs as one csv.writer.writerow call per row writes them."""
    ds = 2.0 * math.pi / field.grid_points
    for name, header, rows in (
        ("tangent", ["s", "Tx", "Ty", "Tz"], field.samples),
        ("curve", ["s", "Xx", "Xy", "Xz"], curve.positions),
    ):
        with open(f"{prefix}.{name}.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for j, row in enumerate(rows):
                writer.writerow([j * ds, *row])


def test_field_csvs_match_csv_writer_bytes(tmp_path):
    # exact zeros, negative zero, values near 1e-17 and above 1e16, where
    # repr switches between fixed and exponent notation
    samples = np.array([
        [1.0, 0.0, -0.0],
        [-0.0, 1.0, 1.3e-17],
        [0.6, -0.8, -7.0e-18],
        [1.0 / 3.0, 2.0 / 3.0, -2.0 / 3.0],
    ])
    field = TangentField(0.0, samples)
    positions = np.array([
        [0.0, -0.0, 1e-17],
        [1e16, -1.5e16, 3.0e17],
        [123456789.125, -2.5e-5, 1e-4],
        [-0.0, 9.999999999999999e15, 1.0000000000000002],
        [math.pi, -math.e, 0.1],
    ])
    curve = CurveSample(positions=positions, mean_height=0.0)
    cli.write_field_csvs(str(tmp_path / "new"), field, curve)
    reference_field_csvs(str(tmp_path / "old"), field, curve)
    for name in ("tangent", "curve"):
        written = (tmp_path / f"new.{name}.csv").read_bytes()
        assert written == (tmp_path / f"old.{name}.csv").read_bytes()
        assert written.endswith(b"\r\n")


def test_simulate_does_not_import_numpy_ma(tmp_path):
    # np.median would import numpy.ma on its first call, a cost every
    # one-shot simulate run would pay
    code = (
        "import sys\n"
        "from polyfil import cli\n"
        "rc = cli.main(['simulate', '--M', '4', '--p', '1', '--q', '1', '--grid', '64',"
        " '--out', 'sim'])\n"
        "print(rc, 'numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0 and proc.stderr.split() == ["0", "False"], proc.stderr


def test_simulate_summary_file_is_the_stdout_bytes(tmp_path, monkeypatch, capsys):
    # one encoding of the summary serves both the file and stdout
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "simulate", "--M", "3", "--p", "1", "--q", "1",
        "--grid", "96", "--out", "tri",
    )
    assert code == 0
    assert (tmp_path / "tri.summary.json").read_bytes() == out.encode()
    assert out.endswith("}\n") and not out.endswith("\n\n")


def test_simulate_even_q_side_count(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, payload = run_json(
        capsys, "simulate", "--M", "3", "--p", "1", "--q", "2",
        "--grid", "192", "--out", "half",
    )
    assert code == 0
    assert payload["sides"] == 3  # M*q/2 for even q
    assert payload["relative_error"] <= 0.10


def test_simulate_verification_miss_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, payload = run_json(
        capsys, "simulate", "--M", "5", "--p", "1", "--q", "3",
        "--grid", "480", "--out", "coarse", "--tol", "0.005",
    )
    assert code == 1
    assert payload["relative_error"] > 0.005  # still reported honestly


def test_simulate_blowup_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys, "simulate", "--M", "3", "--p", "1", "--q", "1",
        "--grid", "96", "--dt-factor", "100", "--out", "bad",
    )
    assert code == 3
    assert "dt_factor" in err


def test_simulate_blowup_mid_run_names_its_step(tmp_path, monkeypatch, capsys):
    # dt_factor 1 on grid 384 first leaves [0.5, 2] at step 5, inside the
    # first block of the blow-up guard
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys, "simulate", "--M", "3", "--p", "1", "--q", "1",
        "--grid", "384", "--dt-factor", "1", "--out", "sim",
    )
    assert code == 3
    assert out == ""
    assert err == ("error: sample norm left [0.5, 2] at t ~ 0.00133865; "
                   "reduce dt_factor\n")
    assert not os.listdir(tmp_path)


def test_simulate_overflowing_step_prints_its_error_line_alone(tmp_path):
    # the first step overflows to inf and NaN; in a process of its own, so
    # that numpy's RuntimeWarnings would reach stderr rather than pytest
    argv = ["simulate", "--M", "3", "--p", str(10**90 + 1), "--q", "1",
            "--grid", "96", "--dt-factor", "3e84", "--out", "sim"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "polyfil", *argv], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: sample norm left [0.5, 2] at t ~ 0; reduce dt_factor\n"
    assert not os.listdir(tmp_path)


def test_simulate_non_finite_dt_factor_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for bad in ("inf", "nan"):
        code, out, err = run_cli(
            capsys, "simulate", "--M", "3", "--p", "1", "--q", "1",
            "--grid", "96", "--dt-factor", bad, "--out", "bad",
        )
        assert code == 2
        assert "dt_factor" in err
    assert not list(tmp_path.iterdir())


def test_simulate_unwritable_out_is_usage_error(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--M", "3", "--p", "1", "--q", "1",
        "--grid", "96", "--out", str(tmp_path / "missing" / "x"),
    )
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("out", ["./", ".", "sub/", ""])
def test_simulate_out_without_a_file_stem_is_usage_error(tmp_path, monkeypatch, capsys, out):
    # such a prefix would write hidden files such as .tangent.csv; an
    # empty one (an unset shell variable) is not the default prefix
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code, stdout, err = run_cli(
        capsys, "simulate", "--M", "3", "--p", "1", "--q", "1", "--grid", "96", "--out", out,
    )
    assert code == 2 and stdout == ""
    assert err == f"error: --out {out!r} names a directory, not a file stem\n"
    assert [path.name for path in tmp_path.rglob("*")] == ["sub"]


def test_simulate_checks_out_before_evolving(tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("evolve ran although --out cannot be written")

    monkeypatch.setattr(cli, "evolve", must_not_run)
    code, out, err = run_cli(
        capsys, "simulate", "--M", "3", "--p", "1", "--q", "1",
        "--grid", "96", "--out", str(tmp_path / "missing" / "x"),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write output")
    assert not list(tmp_path.iterdir())


def test_simulate_write_failure_is_usage_error(tmp_path, monkeypatch, capsys):
    # an OSError while the sidecar files are written, after the run
    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "write_field_csvs", full_disk)
    code, out, err = run_cli(
        capsys, "simulate", "--M", "3", "--p", "1", "--q", "1", "--grid", "96",
    )
    assert code == 2 and out == ""
    assert err == "error: cannot write output: [Errno 28] No space left on device\n"


def test_simulate_beyond_the_step_cap_is_usage_error(tmp_path, monkeypatch, capsys):
    # t = 2*pi*10**10/9 asks for ~4e12 steps; evolve refuses before the
    # first one.  (p = 10**300 would not test the cap: there every step is
    # below evolve's negligible step 1e-16 * t, so without the cap the loop
    # spins without ever calling rk4_step.)
    def must_not_run(*args, **kwargs):
        raise AssertionError("an RK4 step ran beyond MAX_STEPS")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(vfe, "rk4_step", must_not_run)
    code, out, err = run_cli(
        capsys, "simulate", "--M", "3", "--p", "1" + "0" * 10, "--q", "1",
        "--grid", "96", "--out", "far",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"more than MAX_STEPS={vfe.MAX_STEPS}" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag", [
    ("--grid", "0"), ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-0.1"),
])
def test_simulate_bad_grid_or_tol_is_usage_error(tmp_path, monkeypatch, capsys, flag):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys, "simulate", "--M", "3", "--p", "1", "--q", "1", "--grid", "96",
        "--out", "bad", *flag,
    )
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""
    assert not list(tmp_path.iterdir())


def test_simulate_grid_validation(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        capsys, "simulate", "--M", "5", "--p", "1", "--q", "3", "--grid", "1000",
    )
    assert code == 2
