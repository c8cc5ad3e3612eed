"""Stacked (per-q) tables, phase fits, rotation certificates and sums
against the per-pair functions, and the verify suites against a per-pair
loop kept here.  The range-wide kernels (one ragged rotation product for
every (p, q) of a range, and Lemma 3's stacked 2x2 product over cases)
are checked against the per-q product kernel and the per-case 2x2 loop
they replaced, both kept here.  Every row of a batch must equal the
one-pair result under np.array_equal, not within a tolerance: the batch
runs the same arithmetic, so any difference is a bug (a row mix-up, a
shared coefficient, a wrong factor order, a wrong un-sort, a prefix one
row short).  The mutation tests check that each oracle catches such a
bug."""

import dataclasses
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from polyfil import arith, cli, gauss, rotor, sums
from polyfil.errors import NotCoprime, UndefinedTheta

MS = list(range(3, 11))


def coprime(q):
    return [p for p in range(1, q + 1) if math.gcd(p, q) == 1]


# ----------------------------------------------------------------- oracles


def table_rows_match(q):
    ps = coprime(q)
    stacked = gauss.theta_sequences(ps, q)
    if stacked.p.tolist() != ps or stacked.values.shape != (len(ps), q):
        return False
    for i, p in enumerate(ps):
        one = gauss.theta_sequence(p, q)
        for name in ("values", "moduli", "arguments", "vanishing"):
            if not np.array_equal(getattr(stacked, name)[i], getattr(one, name),
                                  equal_nan=True):
                return False
    return True


def defect_rows_match(q):
    ps = coprime(q)
    stacked = gauss.theta_sequences(ps, q)
    defects = gauss.max_phase_defects(stacked)
    phase = gauss._fit_phase(stacked)
    for i, p in enumerate(ps):
        one = gauss.quadratic_phase(p, q)
        if (phase.a[i], phase.b[i]) != (one.a, one.b):
            return False
        if defects[i] != gauss.max_phase_defect(p, q):
            return False
    return defects.shape == (len(ps),)


def per_pair_certificates(q):
    """certify_rotation_angle of every (M, p) at this q, row i for the
    i-th p coprime to q."""
    return [[rotor.certify_rotation_angle(M, p, q) for M in MS] for p in coprime(q)]


def certificate_rows_match(q):
    ps = coprime(q)
    arrays = rotor.certificate_arrays([gauss.theta_sequences(ps, q)], MS)
    if arrays.p != tuple(ps) or arrays.q != (q,) * len(ps) or arrays.M != tuple(MS):
        return False
    for i, row in enumerate(per_pair_certificates(q)):
        for j, one in enumerate(row):
            fields = (one.rho, one.angle, one.angle_error, one.falsification_margin)
            batched = (arrays.rho[i, j], arrays.angle[i, j], arrays.angle_error[i, j],
                       arrays.falsification_margin[i, j])
            if fields != batched or not np.array_equal(one.product, arrays.product[i, j]):
                return False
    return True


def sum_rows_match(q):
    ps = coprime(q)
    stacked = gauss.theta_sequences(ps, q)
    arrays = sums.sum_arrays(stacked, gauss._fit_phase(stacked))
    ks = tuple(range(1, q // 2 + 1))
    if arrays.p != tuple(ps) or arrays.k != ks or arrays.residual.shape != (len(ps), len(ks)):
        return False
    for i, p in enumerate(ps):
        batched = [
            sums.SumReport(p=p, q=q, k=k, t_value=arrays.t_values[i, j].item(),
                           e_value=arrays.e_values[i, j].item(),
                           term_count=arrays.term_count[j],
                           residual=arrays.residual[i, j].item())
            for j, k in enumerate(arrays.k)
        ]
        if batched != sums.verify_sum_identities(p, q):
            return False
    return True


def test_certificate_arrays_equal_the_certificate_objects():
    # every coprime pair with q <= 30: the arrays the theorem2 suite
    # reads have the certificates' shape, labels and pass/fail verdicts
    for q in range(1, 31):
        ps = coprime(q)
        arrays = rotor.certificate_arrays([gauss.theta_sequences(ps, q)], MS)
        rows = per_pair_certificates(q)
        assert arrays.p == tuple(ps) and arrays.M == tuple(MS) and arrays.q == (q,) * len(ps)
        assert arrays.rho.shape == (len(ps), len(MS))
        assert arrays.angle_error.shape == (len(ps), len(MS))
        assert arrays.product.shape == (len(ps), len(MS), 3, 3)
        assert [[(c.M, c.p, c.q) for c in row] for row in rows] == [
            [(M, p, q) for M in MS] for p in ps]
        passed = cli._theorem2_passed(arrays)
        assert passed.tolist() == [[cli._theorem2_passed(c) for c in row] for row in rows]


def test_table_rows_equal_the_per_pair_tables():
    # every coprime pair with q <= 60
    for q in range(1, 61):
        assert table_rows_match(q), q


def test_phase_fit_and_defect_rows_equal_the_per_pair_values():
    for q in range(1, 61):
        assert defect_rows_match(q), q


def test_certificate_rows_equal_the_per_pair_certificates():
    # products, angles, errors and margins, q <= 30 and M 3..10
    for q in range(1, 31):
        assert certificate_rows_match(q), q


def test_sum_array_rows_equal_the_per_pair_reports():
    for q in range(2, 61):
        assert sum_rows_match(q), q


def test_one_row_table_is_the_p_equals_one_call():
    stacked = gauss.theta_sequences([3], 7)
    one = gauss.theta_sequence(3, 7)
    assert stacked.values.shape == (1, 7) and one.values.shape == (7,)
    assert np.array_equal(stacked.values[0], one.values)
    assert np.ndim(gauss.max_phase_defects(one)) == 0
    with pytest.raises(ValueError, match="one-row"):
        stacked.entry(0)


def test_a_phase_fit_of_other_rows_is_rejected():
    # the verify command passes each table's fit along with it; a fit of
    # other p or another q must not be read as the table's own
    table = gauss.theta_sequences([1, 3], 8)
    for other in (gauss.theta_sequences([1, 5], 8), gauss.theta_sequences([1, 3], 10),
                  gauss.theta_sequence(1, 8)):
        fit = gauss._fit_phase(other)
        with pytest.raises(ValueError, match="phase is the fit of"):
            sums.sum_arrays(table, fit)
        with pytest.raises(ValueError, match="phase is the fit of"):
            gauss.max_phase_defects(table, fit)
    own = gauss._fit_phase(table)
    assert np.array_equal(gauss.max_phase_defects(table, own), gauss.max_phase_defects(table))


def test_stacked_table_rejects_a_pair_that_is_not_coprime():
    with pytest.raises(NotCoprime):
        gauss.theta_sequences([1, 2], 4)


def test_stacked_admissible_arguments_name_the_row_that_vanishes():
    stacked = gauss.theta_sequences([1, 2, 4], 5)
    n, arguments = stacked.admissible_arguments()
    assert n.tolist() == [0, 1, 2, 3, 4] and arguments.shape == (3, 5)
    vanishing = stacked.vanishing.copy()
    vanishing[2, 3] = True
    doctored = dataclasses.replace(stacked, vanishing=vanishing)
    with pytest.raises(UndefinedTheta, match=r"G\(-4,3,5\)"):
        doctored.admissible_arguments()


def test_stacked_residues_keep_the_p_axis():
    phase = gauss._fit_phase(gauss.theta_sequences([1, 3, 5, 7], 8))
    n = np.arange(8)
    residues = phase.residues(n)
    assert residues.shape == (4, 8)
    for i, p in enumerate([1, 3, 5, 7]):
        assert np.array_equal(residues[i], gauss.quadratic_phase(p, 8).residues(n))


# ------------------------------------------------------ suites against loops


def outcome(case_id, passed, residual):
    return {"case_id": case_id, "passed": bool(passed), "residual": residual}


def vanishing_per_pair(q_max):
    outcomes = []
    for q in range(1, q_max + 1):
        for p in coprime(q):
            theta = gauss.theta_sequence(p, q)
            expected = math.sqrt(q) if q % 2 else math.sqrt(2 * q)
            should_vanish = ~arith.admissible_mask(q)
            residual = max(
                theta.moduli[should_vanish].max(initial=0.0),
                np.abs(theta.moduli[~should_vanish] - expected).max(initial=0.0),
            )
            passed = (np.array_equal(theta.vanishing, should_vanish)
                      and residual <= cli.TOL_VANISHING * max(1.0, math.sqrt(q)))
            outcomes.append(outcome(f"vanishing/p={p}/q={q}", passed, float(residual)))
    return outcomes


def lemma4_per_pair(q_max):
    return [
        outcome(f"lemma4/p={p}/q={q}", d <= cli.TOL_PHASE_MODEL, d)
        for q in range(1, q_max + 1) for p in coprime(q)
        for d in [gauss.max_phase_defect(p, q)]
    ]


def theorem2_per_pair(q_max, m_max):
    return [
        outcome(f"theorem2/M={M}/p={p}/q={q}", cli._theorem2_passed(c), c.angle_error)
        for q in range(1, q_max + 1) for p in coprime(q) for M in range(3, m_max + 1)
        for c in [rotor.certify_rotation_angle(M, p, q)]
    ]


def sums_per_pair(q_max):
    return [
        outcome(f"sums/p={p}/q={q}/k={r.k}", cli._sums_passed(r), r.residual)
        for q in range(2, q_max + 1) for p in coprime(q)
        for r in sums.verify_sum_identities(p, q)
    ]


def test_batched_suites_equal_the_per_pair_loops():
    assert cli._suite_sums(30) == sums_per_pair(30)
    assert cli._suite_vanishing(60) == vanishing_per_pair(60)
    assert cli._suite_lemma4(60) == lemma4_per_pair(60)
    assert cli._suite_theorem2(16, 10) == theorem2_per_pair(16, 10)


# ---------------------------------------- range kernels against the loops


def per_q_products(args, rhos):
    """The per-q rotation product that the ragged kernel replaced (its
    matrix route): argument rows (P, F) of one q and k angles shared by
    every row, each row multiplied through all F factors in order."""
    c, s = np.cos(args), np.sin(args)
    k = rotor._cross_matrices(np.stack([c, s, np.zeros_like(c)], -1))[:, :, None]
    kk = k @ k
    sin_rho = np.sin(rhos)[:, None, None]
    versin_rho = (1.0 - np.cos(rhos))[:, None, None]
    total = None
    for f in range(args.shape[1]):
        factor = np.eye(3) + sin_rho * k[:, f] + versin_rho * kk[:, f]
        total = factor if total is None else total @ factor
    return total


def range_inputs(q_max):
    """The argument block of every q <= q_max (all p coprime to q) and
    the detuned angles of each q, as certificate_arrays passes them."""
    blocks, angles = [], []
    for q in range(1, q_max + 1):
        blocks.append(np.atleast_2d(rotor._product_factors(gauss.theta_sequences(coprime(q), q))))
        angles.append(rotor._detuned_angles(q, MS)[1])
    return blocks, angles


def range_products_match(q_max):
    """One ragged kernel call over every (p, q) with q <= q_max equals
    the per-q kernel, block by block, under np.array_equal."""
    blocks, angles = range_inputs(q_max)
    got = rotor._ordered_products(
        blocks, np.concatenate([np.tile(a, (len(b), 1)) for b, a in zip(blocks, angles)]))
    want = np.concatenate([per_q_products(b, a) for b, a in zip(blocks, angles)])
    return got.shape == want.shape and np.array_equal(got, want)


def theorem2_per_q(q_max, m_max):
    """The theorem2 outcomes from one per-q kernel call per q."""
    Ms = list(range(3, m_max + 1))
    target = np.array([2.0 * math.pi / M for M in Ms])
    outcomes = []
    for q in range(1, q_max + 1):
        ps = coprime(q)
        args = np.atleast_2d(rotor._product_factors(gauss.theta_sequences(ps, q)))
        products = per_q_products(args, rotor._detuned_angles(q, Ms)[1])
        angles = rotor.rotation_angle(products).reshape(len(ps), 3, len(Ms))
        errors = np.abs(angles[:, 0] - target)
        margins = np.minimum(np.abs(angles[:, 1] - target), np.abs(angles[:, 2] - target))
        passed = (errors <= cli.TOL_ROTATION_ANGLE) & (margins > cli.MIN_FALSIFICATION_MARGIN)
        for p, row_ok, row_errors in zip(ps, passed.tolist(), errors.tolist()):
            outcomes.extend(outcome(f"theorem2/M={M}/p={p}/q={q}", ok, error)
                            for M, ok, error in zip(Ms, row_ok, row_errors))
    return outcomes


def half_traces_per_case(xs, phi_rows):
    """Lemma 3's lhs, one 2x2 product per factor per case."""
    lhs = []
    for x, phis in zip(xs, phi_rows):
        prod = np.eye(2, dtype=complex)
        for phi in phis:
            prod = prod @ np.array([
                [x, 1j * complex(math.cos(phi), -math.sin(phi))],
                [1j * complex(math.cos(phi), math.sin(phi)), x],
            ])
        lhs.append(0.5 * float(prod.trace().real))
    return lhs


def lemma3_inputs():
    """Ragged cases of 1 to 12 factors, in no order of length."""
    rng = random.Random(5)
    xs = [rng.uniform(-2.0, 2.0) for _ in range(60)]
    phi_rows = [[rng.uniform(0.0, 2.0 * math.pi) for _ in range(rng.randint(1, 12))]
                for _ in xs]
    return xs, phi_rows


def half_traces_match():
    xs, phi_rows = lemma3_inputs()
    got = [r.lhs for r in rotor.trace_identity_evals(xs, phi_rows)]
    return got == half_traces_per_case(xs, phi_rows)


def test_range_products_equal_the_per_q_kernel():
    # every coprime pair with q <= 60, 1102 rows of 1 to 59 factors
    assert range_products_match(60)


def test_theorem2_suite_equals_the_per_q_loop():
    assert cli._suite_theorem2(30, 10) == theorem2_per_q(30, 10)


def test_certificate_rows_follow_the_tables_in_order():
    # tables of several q, one of them one-row, in no order of q
    tables = [gauss.theta_sequences([1, 3, 5, 7], 8), gauss.theta_sequence(2, 5),
              gauss.theta_sequences([1, 2], 3)]
    arrays = rotor.certificate_arrays(tables, MS)
    assert arrays.p == (1, 3, 5, 7, 2, 1, 2) and arrays.q == (8, 8, 8, 8, 5, 3, 3)
    for i, (p, q) in enumerate(zip(arrays.p, arrays.q)):
        one = rotor.certificate_arrays([gauss.theta_sequence(p, q)], MS)
        for name in ("rho", "angle", "angle_error", "falsification_margin", "product"):
            assert np.array_equal(getattr(arrays, name)[i], getattr(one, name)[0]), (p, q, name)
    empty = rotor.certificate_arrays([], MS)
    assert empty.p == () and empty.angle.shape == (0, len(MS))


def test_stacked_half_traces_equal_the_per_case_loop():
    assert half_traces_match()
    xs, phi_rows = lemma3_inputs()
    assert len(set(map(len, phi_rows))) == 12


def test_verify_all_equals_the_five_single_suite_runs(capsys):
    def run(suite):
        code = cli.main(["verify", "--suite", suite, "--q-max", "17", "--m-max", "10"])
        return code, json.loads(capsys.readouterr().out)

    code, together = run("all")
    singles = {name: run(name) for name in ("sums", "theorem2", "lemma3", "lemma4", "vanishing")}
    assert code == 0 and all(single == 0 for single, _ in singles.values())
    assert together["outcomes"] == sorted(
        (o for _, payload in singles.values() for o in payload["outcomes"]),
        key=lambda o: o["case_id"])
    assert together["suites"] == {name: payload["suites"][name]
                                  for name, (_, payload) in singles.items()}


# ---------------------------------------------------------------- mutations


def test_oracles_catch_permuted_rows(monkeypatch):
    original = gauss._gauss_table

    def permuted(p, q):
        # each row built for the next row's p
        return original(np.roll(p, 1), q)

    monkeypatch.setattr(gauss, "_gauss_table", permuted)
    assert not table_rows_match(7)
    assert not defect_rows_match(7)
    assert not certificate_rows_match(7)
    assert not sum_rows_match(7)
    assert cli._suite_sums(12) != sums_per_pair(12)
    assert cli._suite_vanishing(12) != vanishing_per_pair(12)
    assert cli._suite_lemma4(12) != lemma4_per_pair(12)
    assert cli._suite_theorem2(8, 10) != theorem2_per_pair(8, 10)


def test_oracles_catch_a_shared_phase_coefficient(monkeypatch):
    original = gauss._fit_phase

    def shared(table):
        phase = original(table)
        if np.ndim(phase.a) == 0:
            return phase
        return dataclasses.replace(phase, a=np.full_like(phase.a, phase.a[0]))

    monkeypatch.setattr(gauss, "_fit_phase", shared)
    monkeypatch.setattr(sums, "_fit_phase", shared)
    monkeypatch.setattr(cli, "_fit_phase", shared)
    assert not defect_rows_match(7)
    assert not sum_rows_match(7)
    assert cli._suite_lemma4(7) != lemma4_per_pair(7)


def test_oracles_catch_reversed_factor_order(monkeypatch):
    original = rotor._product_factors

    def reversed_rows(theta):
        args = original(theta)
        return args[..., ::-1].copy() if args.ndim == 2 else args

    monkeypatch.setattr(rotor, "_product_factors", reversed_rows)
    # the reversed product is a mirror image with the same angle, so the
    # angle errors differ from the per-pair ones only by roundoff
    assert not certificate_rows_match(5)
    assert cli._suite_theorem2(8, 10) != theorem2_per_pair(8, 10)


@pytest.mark.parametrize("mutation", ["wrong-unsort", "prefix-one-row-short"])
def test_oracles_catch_a_broken_ragged_layout(monkeypatch, mutation):
    original = rotor._ragged_layout

    def broken(counts):
        order, unsort, live = original(counts)
        if mutation == "wrong-unsort":
            return order, np.roll(unsort, 1), live
        return order, unsort, live[:-1] + [live[-1] - 1]

    monkeypatch.setattr(rotor, "_ragged_layout", broken)
    assert not range_products_match(8)
    assert cli._suite_theorem2(8, 10) != theorem2_per_q(8, 10)
    assert not half_traces_match()


# -------------------------------------------------------------------- memory


def test_batched_theorem2_product_memory_stays_linear_in_p_times_k():
    # q = 29: 28 rows of 29 factors at 24 angles.  Building all factors
    # up front would hold 28*29*24 matrices per route (6.3 MB); one
    # factor at a time keeps the peak under 1 MB.
    q = 29
    args = rotor._product_factors(gauss.theta_sequences(coprime(q), q))
    _, angles = rotor._detuned_angles(q, MS)
    assert args.shape == (28, 29) and angles.shape == (24,)
    rows = np.tile(angles, (28, 1))
    rotor._ordered_products([args], rows)  # warm numpy's caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rotor._ordered_products([args], rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000, peak


def test_range_theorem2_suite_memory_stays_linear_in_rows():
    # q <= 30: 278 rows of up to 29 factors (4640 in all) at 24 angles.
    # Building every factor up front would hold 4640*24 matrices per
    # route (8 MB); one factor at a time, the whole suite, outcomes
    # included, stays under 3 MB.
    cli._suite_theorem2(30, 10)  # warm numpy's caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cli._suite_theorem2(30, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000, peak
