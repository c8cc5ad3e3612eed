"""Stacked (per-q) tables, phase fits, rotation certificates and sums
against the per-pair functions, and the verify suites against a per-pair
loop kept here.  The range-wide spinor walk (one ragged rotation
product for every (p, q) of a range, and Lemma 3's product over every
case) is checked against a per-row spinor loop kept here.  Every row of
a batch must equal the one-pair or one-row result under np.array_equal,
not within a tolerance: the batch runs the same arithmetic, so any
difference is a bug (a row mix-up, a shared coefficient, a wrong factor
order, a wrong un-sort, a prefix one row short).  The mutation tests
check that each oracle catches such a bug.  The matrix routes the walk
replaced, the per-q Rodrigues kernel and the per-case 2x2 product, are
the independent oracles here, at stated tolerances."""

import dataclasses
import inspect
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from polyfil import arith, cli, gauss, rotor, sums
from polyfil.errors import NotCoprime, UndefinedTheta
from test_sums import row_reports

MS = list(range(3, 11))


def coprime(q):
    return [p for p in range(1, q + 1) if math.gcd(p, q) == 1]


# ----------------------------------------------------------------- oracles


def table_rows_match(q):
    ps = coprime(q)
    stacked = gauss.theta_sequences(ps, q)
    if stacked.p != tuple(ps) or stacked.values.shape != (len(ps), q):
        return False
    for i, p in enumerate(ps):
        one = gauss.theta_sequence(p, q)
        for name in ("values", "moduli", "arguments", "vanishing"):
            if not np.array_equal(getattr(stacked, name)[i], getattr(one, name)[0],
                                  equal_nan=True):
                return False
    return True


def defect_rows_match(q):
    ps = coprime(q)
    stacked = gauss.theta_sequences(ps, q)
    defects = gauss.max_phase_defects(stacked)
    phase = stacked.phase
    for i, p in enumerate(ps):
        one = gauss.quadratic_phase(p, q)
        if (phase.a[i], phase.b[i]) != (one.a[0], one.b[0]):
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
    arrays = rotor.certificate_arrays([rotor.factor_block(gauss.theta_sequences(ps, q))], MS)
    if arrays.p != tuple(ps) or arrays.q != (q,) * len(ps) or arrays.M != tuple(MS):
        return False
    for i, row in enumerate(per_pair_certificates(q)):
        for j, one in enumerate(row):
            fields = (one.rho, one.angle, one.angle_error, one.falsification_margin)
            batched = (rotor.inter_side_angle(MS[j], q), arrays.angle[i, j],
                       arrays.angle_error[i, j], arrays.falsification_margin[i, j])
            spin = (arrays.alpha[i, j].real, arrays.alpha[i, j].imag,
                    arrays.beta[i, j].real, arrays.beta[i, j].imag)
            if fields != batched or not np.array_equal(one.product, rotor._spinor_matrix(spin)):
                return False
    return True


def sum_rows_match(q):
    ps = coprime(q)
    stacked = gauss.theta_sequences(ps, q)
    arrays = sums.sum_arrays(stacked, sums.k_range(q))
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
        if batched != row_reports(p, q):
            return False
    return True


def test_certificate_arrays_equal_the_certificate_objects():
    # every coprime pair with q <= 30: the arrays the theorem2 suite
    # reads have the certificates' shape, labels and pass/fail verdicts
    for q in range(1, 31):
        ps = coprime(q)
        arrays = rotor.certificate_arrays([rotor.factor_block(gauss.theta_sequences(ps, q))], MS)
        rows = per_pair_certificates(q)
        assert arrays.p == tuple(ps) and arrays.M == tuple(MS) and arrays.q == (q,) * len(ps)
        assert arrays.angle.shape == arrays.angle_error.shape == (len(ps), len(MS))
        assert arrays.falsification_margin.shape == (len(ps), len(MS))
        assert arrays.alpha.shape == arrays.beta.shape == (len(ps), len(MS))
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
    assert stacked.values.shape == one.values.shape == (1, 7) and one.p == (3,)
    assert np.array_equal(stacked.values, one.values)
    assert gauss.max_phase_defects(one).shape == (1,)
    assert stacked.entry(0) == one.entry(0)
    with pytest.raises(ValueError, match="one-row"):
        gauss.theta_sequences([3, 5], 7).entry(0)


def test_every_table_and_fit_has_one_shape():
    # p is a tuple of ints and every array has len(p) rows, for one-row
    # and stacked tables alike
    huge = 10**20 + 1
    tables = [gauss.theta_sequence(3, 7), gauss.theta_sequence(huge, 3),
              gauss.theta_sequences([1, 3, 5, 7], 8), gauss.theta_sequences([huge, 2], 3),
              gauss.theta_sequences([], 5)]
    fits = [gauss.quadratic_phase(3, 7), gauss.quadratic_phase(huge, 3)]
    fits += [table.phase for table in tables]
    for table in tables:
        assert type(table.p) is tuple and all(type(p) is int for p in table.p)
        for name in ("values", "moduli", "arguments", "vanishing"):
            assert getattr(table, name).shape == (len(table.p), table.q), name
    for fit in fits:
        assert type(fit.p) is tuple and all(type(p) is int for p in fit.p)
        assert fit.a.shape == fit.b.shape == (len(fit.p),)
        assert fit.a.dtype == np.int64 and fit.b.dtype == float
    # p beyond an int64: the stacked rows equal the one-row tables
    stacked = gauss.theta_sequences([huge, 2], 3)
    assert stacked.p == (huge, 2)
    for i, p in enumerate(stacked.p):
        one = gauss.theta_sequence(p, 3)
        for name in ("values", "moduli", "arguments", "vanishing"):
            assert np.array_equal(getattr(stacked, name)[i], getattr(one, name)[0]), (p, name)


def test_a_phase_fit_of_other_rows_is_rejected():
    # the table checks read the fit of their own table (table.phase) and
    # take no other; sum_report, the one call that still takes a fit,
    # rejects one of other p or another q
    assert list(inspect.signature(sums.sum_arrays).parameters) == ["theta", "ks"]
    assert list(inspect.signature(gauss.max_phase_defects).parameters) == ["theta"]
    table = gauss.theta_sequence(1, 8)
    for other in (gauss.theta_sequences([1, 5], 8), gauss.theta_sequence(3, 8),
                  gauss.theta_sequence(1, 10)):
        with pytest.raises(ValueError, match="phase is the fit of"):
            sums.sum_report(1, 8, 1, theta=table, phase=other.phase)


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


def eager_arguments(table):
    """The (P, q) arguments as every table once computed them when built."""
    angles = np.arctan2(table.values.imag, table.values.real)
    angles = np.where(angles <= -math.pi, angles + 2.0 * math.pi, angles)
    return np.where(table.vanishing, np.nan, angles)


def test_arguments_are_computed_only_where_a_check_reads_them():
    # the vanishing check reads no argument, and admissible_arguments()
    # reads its own columns, bit for bit those of the (P, q) arguments
    for q in range(1, 61):
        table = gauss.theta_sequences(coprime(q), q)
        cli._vanishing_outcomes(table)
        assert "arguments" not in vars(table), q
        n, arguments = table.admissible_arguments()
        assert "arguments" not in vars(table), q
        assert arguments.tobytes() == table.arguments[:, n].tobytes(), q
        assert arguments.tobytes() == eager_arguments(table)[:, n].tobytes(), q
        assert table.arguments.tobytes() == eager_arguments(table).tobytes(), q
        assert not table.arguments.flags.writeable


def test_stacked_residues_keep_the_p_axis():
    phase = gauss.theta_sequences([1, 3, 5, 7], 8).phase
    n = np.arange(8)
    residues = phase.residues(n)
    assert residues.shape == (4, 8)
    for i, p in enumerate([1, 3, 5, 7]):
        assert np.array_equal(residues[i], gauss.quadratic_phase(p, 8).residues(n)[0])


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
                theta.moduli[0, should_vanish].max(initial=0.0),
                np.abs(theta.moduli[0, ~should_vanish] - expected).max(initial=0.0),
            )
            passed = (np.array_equal(theta.vanishing[0], should_vanish)
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
        outcome(f"sums/p={p}/q={q}/k={r.k}", r.residual <= bound, r.residual)
        for q in range(2, q_max + 1) for p in coprime(q)
        for r, bound in zip(row_reports(p, q), cli._sums_bounds(q, sums.k_range(q)))
    ]


def suite(name, q_max, m_max=10):
    """One suite's outcomes, in order of q and p, from verify's one pass
    over q, its three columns zipped back into outcome records."""
    return [outcome(*case) for case in zip(*cli._verify_outcomes((name,), q_max, m_max)[name])]


def test_batched_suites_equal_the_per_pair_loops():
    assert suite("sums", 30) == sums_per_pair(30)
    assert suite("vanishing", 60) == vanishing_per_pair(60)
    assert suite("lemma4", 60) == lemma4_per_pair(60)
    assert suite("theorem2", 16, 10) == theorem2_per_pair(16, 10)


# ---------------------------------------- range kernels against the loops


def per_q_products(args, rhos):
    """The per-q rotation product by Rodrigues matrices, the matrix route
    the spinor walk replaced: argument rows (P, F) of one q and k angles
    shared by every row, each row multiplied through all F factors in
    order."""
    c, s = np.cos(args), np.sin(args)
    zero = np.zeros_like(c)
    # the cross-product matrix [[0, -z, y], [z, 0, -x], [-y, x, 0]] of each
    # axis (x, y, z) = (c, s, 0), (P, F, 1, 3, 3)
    k = np.stack([zero, zero, s, zero, zero, -c, -s, c, zero], -1).reshape(
        args.shape + (1, 3, 3))
    kk = k @ k
    sin_rho = np.sin(rhos)[:, None, None]
    versin_rho = (1.0 - np.cos(rhos))[:, None, None]
    total = None
    for f in range(args.shape[1]):
        factor = np.eye(3) + sin_rho * k[:, f] + versin_rho * kk[:, f]
        total = factor if total is None else total @ factor
    return total


def trace_angles(products):
    """Rotation angles of a stack of 3x3 matrices, read from the trace."""
    cosine = (np.trace(products, axis1=-2, axis2=-1) - 1.0) / 2.0
    return np.arccos(np.clip(cosine, -1.0, 1.0))


def per_row_spinors(args, rhos):
    """The ordered product of one argument row (F,) at angles (k,), as
    the spinor pair (alpha, beta) of alpha + beta j, factor by factor:
    the pair cos(rho/2) + i sin(rho/2) cos(a), sin(rho/2) sin(a) of each
    factor multiplied on the right.  Kept in numpy arrays, whose complex
    multiply rounds like the library's at any length (numpy's complex
    scalars round differently)."""
    cos_half, sin_half = np.cos(0.5 * rhos), np.sin(0.5 * rhos)
    alpha = beta = None
    for a in args:
        alpha_f, beta_f = cos_half + 1j * (sin_half * np.cos(a)), sin_half * np.sin(a)
        if alpha is None:
            alpha, beta = alpha_f, beta_f.astype(complex)
        else:
            alpha, beta = alpha * alpha_f - beta * beta_f, alpha * beta_f + beta * alpha_f.conj()
    return alpha, beta


def half_angles(alpha, beta):
    return 2.0 * np.arctan2(np.hypot(alpha.imag, np.abs(beta)), np.abs(alpha.real))


def range_inputs(q_max):
    """The argument block of every q <= q_max (all p coprime to q) and
    the detuned angles of each q, as certificate_arrays passes them."""
    blocks, angles = [], []
    for q in range(1, q_max + 1):
        blocks.append(rotor.factor_block(gauss.theta_sequences(coprime(q), q))[2])
        angles.append(rotor._detuned_angles(q, MS))
    return blocks, angles


def range_walk(q_max):
    """One ragged kernel call over every (p, q) with q <= q_max."""
    blocks, angles = range_inputs(q_max)
    return rotor._ordered_products(
        blocks, np.concatenate([np.tile(a, (len(b), 1)) for b, a in zip(blocks, angles)]))


def range_products_match(q_max):
    """The ragged kernel equals the per-row spinor loop, row by row,
    under np.array_equal."""
    blocks, angles = range_inputs(q_max)
    want = [per_row_spinors(row, a) for b, a in zip(blocks, angles) for row in b]
    alpha, beta = range_walk(q_max)
    return (alpha.shape == beta.shape == (len(want), len(MS) * 3)
            and np.array_equal(alpha, [w[0] for w in want])
            and np.array_equal(beta, [w[1] for w in want]))


def theorem2_outcomes(q, angles, Ms):
    """The theorem2 outcomes of one q from its (P, 3*len(Ms)) angles."""
    target = np.array([2.0 * math.pi / M for M in Ms])
    angles = angles.reshape(len(angles), 3, len(Ms))
    errors = np.abs(angles[:, 0] - target)
    margins = np.minimum(np.abs(angles[:, 1] - target), np.abs(angles[:, 2] - target))
    floors = cli.FALSIFICATION_RATIO_MIN * rotor.DETUNING * target
    passed = (errors <= cli.TOL_ROTATION_ANGLE) & (margins > floors)
    return [outcome(f"theorem2/M={M}/p={p}/q={q}", ok, error)
            for p, row_ok, row_errors in zip(coprime(q), passed.tolist(), errors.tolist())
            for M, ok, error in zip(Ms, row_ok, row_errors)]


def theorem2_per_row(q_max, m_max):
    """The theorem2 outcomes from the per-row spinor loop."""
    Ms = list(range(3, m_max + 1))
    outcomes = []
    for q in range(1, q_max + 1):
        args = rotor.factor_block(gauss.theta_sequences(coprime(q), q))[2]
        rhos = rotor._detuned_angles(q, Ms)
        angles = np.array([half_angles(*per_row_spinors(row, rhos)) for row in args])
        outcomes += theorem2_outcomes(q, angles, Ms)
    return outcomes


def theorem2_per_q(q_max, m_max):
    """The theorem2 outcomes from one per-q matrix kernel call per q."""
    Ms = list(range(3, m_max + 1))
    outcomes = []
    for q in range(1, q_max + 1):
        args = rotor.factor_block(gauss.theta_sequences(coprime(q), q))[2]
        outcomes += theorem2_outcomes(
            q, trace_angles(per_q_products(args, rotor._detuned_angles(q, Ms))), Ms)
    return outcomes


def outcomes_close(got, want, tol):
    """Same cases and verdicts, residuals within tol."""
    return (len(got) == len(want)
            and all((g["case_id"], g["passed"]) == (w["case_id"], w["passed"])
                    and abs(g["residual"] - w["residual"]) <= tol
                    for g, w in zip(got, want)))


def half_traces_per_case(xs, phi_rows):
    """Lemma 3's lhs, one spinor pair product per factor per case: the
    factor [[x, i conj(z)], [i z, x]] is the pair (x, i conj(z)), and
    the half-trace is Re alpha.  Each case is a one-element array."""
    lhs = []
    for x, phis in zip(xs, phi_rows):
        x = np.array([x])
        alpha = beta = None
        for phi in phis:
            beta_f = 1j * np.array([complex(math.cos(phi), math.sin(phi))]).conj()
            if alpha is None:
                alpha, beta = x.astype(complex), beta_f
            else:
                alpha, beta = alpha * x - beta * beta_f.conj(), alpha * beta_f + beta * x
        lhs.append(float(alpha.real[0]))
    return lhs


def half_traces_by_matrices(xs, phi_rows):
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
    # every coprime pair with q <= 60, 1102 rows of 1 to 59 factors, at
    # all 24 angles: the walk's angles against the matrix route's
    blocks, angles = range_inputs(60)
    got = half_angles(*range_walk(60))
    want = np.concatenate([trace_angles(per_q_products(b, a)) for b, a in zip(blocks, angles)])
    assert got.shape == want.shape == (1102, 24)
    assert np.abs(got - want).max() <= 1e-13


def test_range_products_equal_the_per_row_walk():
    assert range_products_match(60)


def test_theorem2_suite_equals_the_per_q_loop():
    assert outcomes_close(suite("theorem2", 30, 10), theorem2_per_q(30, 10), 1e-13)


def test_theorem2_suite_equals_the_per_row_walk():
    assert suite("theorem2", 30, 10) == theorem2_per_row(30, 10)


def test_certificate_rows_follow_the_tables_in_order():
    # tables of several q, one of them one-row, in no order of q
    tables = [gauss.theta_sequences([1, 3, 5, 7], 8), gauss.theta_sequence(2, 5),
              gauss.theta_sequences([1, 2], 3)]
    arrays = rotor.certificate_arrays(map(rotor.factor_block, tables), MS)
    assert arrays.p == (1, 3, 5, 7, 2, 1, 2) and arrays.q == (8, 8, 8, 8, 5, 3, 3)
    for i, (p, q) in enumerate(zip(arrays.p, arrays.q)):
        one = rotor.certificate_arrays([rotor.factor_block(gauss.theta_sequence(p, q))], MS)
        for name in ("angle", "angle_error", "falsification_margin", "alpha", "beta"):
            assert np.array_equal(getattr(arrays, name)[i], getattr(one, name)[0]), (p, q, name)
    empty = rotor.certificate_arrays([], MS)
    assert empty.p == () and empty.angle.shape == (0, len(MS))


def test_stacked_half_traces_equal_the_per_case_loop():
    assert half_traces_match()
    xs, phi_rows = lemma3_inputs()
    assert len(set(map(len, phi_rows))) == 12
    got = [r.lhs for r in rotor.trace_identity_evals(xs, phi_rows)]
    want = half_traces_by_matrices(xs, phi_rows)
    assert all(abs(g - w) <= 1e-13 * (1.0 + abs(x)) ** len(phis)
               for g, w, x, phis in zip(got, want, xs, phi_rows))


def test_no_cases_give_no_half_traces():
    assert rotor.trace_identity_evals([], []) == []


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
    assert suite("sums", 12) != sums_per_pair(12)
    assert suite("vanishing", 12) != vanishing_per_pair(12)
    assert suite("lemma4", 12) != lemma4_per_pair(12)
    assert suite("theorem2", 8, 10) != theorem2_per_pair(8, 10)


def test_oracles_catch_a_shared_phase_coefficient(monkeypatch):
    original = gauss._fit_phase

    def shared(table):
        phase = original(table)
        return dataclasses.replace(phase, a=np.full_like(phase.a, phase.a[0]))

    # every fit comes from ThetaSequence.phase, so one patch reaches all
    monkeypatch.setattr(gauss, "_fit_phase", shared)
    assert not defect_rows_match(7)
    assert not sum_rows_match(7)
    assert suite("lemma4", 7) != lemma4_per_pair(7)


def test_oracles_catch_reversed_factor_order(monkeypatch):
    original = rotor.factor_block

    def reversed_rows(theta):
        # stacked tables only: the per-pair certificates keep the order
        ps, q, args = original(theta)
        return ps, q, args[:, ::-1].copy() if len(ps) > 1 else args

    # the verify pass calls the name cli imported from rotor
    for module in (rotor, cli):
        monkeypatch.setattr(module, "factor_block", reversed_rows)
    # the reversed product is a mirror image with the same angle, so the
    # angle errors differ from the per-pair ones only by roundoff
    assert not certificate_rows_match(5)
    assert suite("theorem2", 8, 10) != theorem2_per_pair(8, 10)


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
    assert suite("theorem2", 8, 10) != theorem2_per_row(8, 10)
    assert not outcomes_close(suite("theorem2", 8, 10), theorem2_per_q(8, 10), 1e-13)


# -------------------------------------------------------------------- memory


def test_batched_theorem2_product_memory_stays_linear_in_p_times_k():
    # q = 29: 28 rows of 29 factors at 24 angles.  Building all factors
    # up front as rotation matrices held 28*29*24 of them (6.3 MB); one
    # factor at a time keeps the peak under 1 MB.
    q = 29
    args = rotor.factor_block(gauss.theta_sequences(coprime(q), q))[2]
    angles = rotor._detuned_angles(q, MS)
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
    # Building every factor up front as rotation matrices held 4640*24
    # of them (8 MB); one factor at a time, the whole suite, outcomes
    # included, stays under 3 MB.
    suite("theorem2", 30, 10)  # warm numpy's caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        suite("theorem2", 30, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000, peak


def test_range_theorem2_suite_memory_holds_no_matrix_or_full_factor_arrays():
    # q <= 60: 1102 rows of up to 59 factors at 24 angles.  With a
    # (R, k, 3, 3) matrix product per row and the cosines and sines of
    # every factor held at once, the suite peaked at 12.1 MB; as spinor
    # pairs, with one factor's cosines and sines at a time, it stays
    # under 8 MB, outcomes included.
    suite("theorem2", 60, 10)  # warm numpy's caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        suite("theorem2", 60, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8_000_000, peak
