import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfil import arith, gauss
from polyfil.errors import NotCoprime, UndefinedTheta

SQRT3 = math.sqrt(3.0)


def model_theta(phase, n):
    """Model phase for index n of a one-row fit, with the quadratic part
    reduced modulo 2*pi in exact integer arithmetic; the reference for
    max_phase_defect."""
    d = (2 - phase.delta) ** 2 * phase.q
    m = (int(phase.a[0]) * n * n) % d
    return 2.0 * math.pi * m / d + float(phase.b[0])


def brute_force_sum(p, q, n):
    """Independent oracle: no exponent reduction, cmath accumulation."""
    return sum(cmath.exp(2j * math.pi * (-p * k * k + n * k) / q) for k in range(q))


def test_single_term_sum():
    g = gauss.gauss_sum(1, 1, 0)
    assert g.value == 1
    assert g.argument == 0.0
    assert not g.vanishing


def test_three_term_sum_is_negative_imaginary():
    g = gauss.gauss_sum(1, 3, 0)
    assert abs(g.value - (-1j * SQRT3)) < 1e-14
    assert abs(g.argument + math.pi / 2) < 1e-14
    assert abs(g.modulus - SQRT3) < 1e-14


def test_vanishing_cases():
    assert gauss.gauss_sum(1, 2, 0).vanishing
    assert gauss.gauss_sum(1, 4, 1).vanishing
    assert gauss.gauss_sum(1, 2, 0).argument is None


def test_not_coprime_rejected():
    with pytest.raises(NotCoprime):
        gauss.gauss_sum(2, 4, 0)
    with pytest.raises(NotCoprime):
        gauss.theta_sequence(3, 9)


@given(st.integers(min_value=1, max_value=25), st.integers(min_value=-7, max_value=7),
       st.integers(min_value=0, max_value=24))
@settings(max_examples=150)
def test_matches_brute_force(q, p, n):
    if math.gcd(p, q) != 1 or n >= q:
        return
    g = gauss.gauss_sum(p, q, n)
    assert abs(g.value - brute_force_sum(p, q, n)) < 1e-10 * q


def test_theta_sequence_q3():
    theta = gauss.theta_sequence(1, 3)
    expected = [-math.pi / 2, math.pi / 6, math.pi / 6]
    for n, want in enumerate(expected):
        assert abs(theta.arguments[0, n] - want) < 1e-13


def test_theta_sequence_q2():
    theta = gauss.theta_sequence(1, 2)
    assert theta.entries[0].vanishing
    assert math.isnan(theta.arguments[0, 0])
    assert abs(theta.arguments[0, 1]) < 1e-14
    assert abs(theta.entries[1].value - 2) < 1e-14


def test_theta_sequence_q4():
    theta = gauss.theta_sequence(1, 4)
    assert abs(theta.entries[0].value - (2 - 2j)) < 1e-13
    assert abs(theta.entries[2].value - (2 + 2j)) < 1e-13
    assert abs(theta.arguments[0, 0] + math.pi / 4) < 1e-13
    assert abs(theta.arguments[0, 2] - math.pi / 4) < 1e-13
    assert theta.entries[1].vanishing and theta.entries[3].vanishing
    assert theta.admissible_arguments()[0].tolist() == [0, 2]


def test_vanishing_pattern_matches_admissibility():
    for q in range(1, 31):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            pattern = tuple(e.vanishing for e in gauss.theta_sequence(p, q).entries)
            assert pattern == tuple((~arith.admissible_mask(q)).tolist())


def test_odd_q_never_vanishes_at_boundary():
    for p in (1, 2, 60):
        assert not any(e.vanishing for e in gauss.theta_sequence(p, 61).entries)


def test_modulus_dichotomy():
    # every non-vanishing sum has modulus sqrt(q) (odd q) or sqrt(2q) (even q)
    for q in range(1, 31):
        expected = math.sqrt(q) if q % 2 else math.sqrt(2 * q)
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            for entry in gauss.theta_sequence(p, q).entries:
                if not entry.vanishing:
                    assert abs(entry.modulus - expected) <= 1e-9 * math.sqrt(q)


def test_argument_branch_is_principal():
    for q in (3, 4, 5, 7, 8, 12):
        for entry in gauss.theta_sequence(1, q).entries:
            if entry.argument is not None:
                assert -math.pi < entry.argument <= math.pi


def test_quadratic_phase_q3():
    qp = gauss.quadratic_phase(1, 3)
    assert qp.a[0] == 1 and qp.delta == 1 and qp.epsilon is None
    assert abs(qp.b[0] + math.pi / 2) < 1e-13
    # model reproduces theta_1 = 2*pi/3 - pi/2 = pi/6
    assert abs(model_theta(qp, 1) - math.pi / 6) < 1e-13


def test_quadratic_phase_q2():
    qp = gauss.quadratic_phase(1, 2)
    assert qp.a[0] == 1 and qp.delta == 0 and qp.epsilon == 1
    assert abs(qp.b[0] + math.pi / 4) < 1e-13
    # (2*pi/2)(1/2)^2 - pi/4 = 0 = theta_1
    defect = (model_theta(qp, 1) - gauss.theta_sequence(1, 2).arguments[0, 1]) % (2 * math.pi)
    assert min(defect, 2 * math.pi - defect) < 1e-13


def test_quadratic_phase_q4():
    qp = gauss.quadratic_phase(1, 4)
    assert qp.a[0] == 1 and qp.delta == 0 and qp.epsilon == 0
    assert abs(qp.b[0] + math.pi / 4) < 1e-13
    theta = gauss.theta_sequence(1, 4)
    for n in (0, 2):
        defect = (model_theta(qp, n) - theta.arguments[0, n]) % (2 * math.pi)
        assert min(defect, 2 * math.pi - defect) < 1e-13


def test_phase_model_on_admissible_indices():
    for q in range(1, 21):
        for p in range(1, q + 1):
            if math.gcd(p, q) == 1:
                assert gauss.max_phase_defect(p, q) <= 1e-8


def test_max_phase_defect_rejects_a_vanishing_admissible_index(monkeypatch):
    table = gauss.theta_sequence(1, 3)
    doctored = dataclasses.replace(
        table,
        values=np.array([[table.values[0, 0], 0j, table.values[0, 2]]]),
        vanishing=np.array([[False, True, False]]),
    )
    monkeypatch.setattr(gauss, "theta_sequence", lambda p, q: doctored)
    with pytest.raises(UndefinedTheta, match=r"G\(-1,1,3\)"):
        gauss.max_phase_defect(1, 3)


def test_phase_fit_folds_a_minus_pi_reference_onto_pi():
    # atan2(-0.0, -1.0) is -pi, the one angle outside (-pi, pi]; odd q
    # fits b to the n = 0 sum itself, so a doctored value reaches it as is
    one = gauss.theta_sequence(1, 3)
    values = one.values.copy()
    values[0, 0] = complex(-1.0, -0.0)
    phase = gauss._fit_phase(dataclasses.replace(one, values=values))
    assert phase.b.shape == (1,) and phase.b[0] == math.pi

    stacked = gauss.theta_sequences(np.array([1, 2, 4]), 5)
    values = stacked.values.copy()
    values[1, 0] = complex(-1.0, -0.0)
    phase = gauss._fit_phase(dataclasses.replace(stacked, values=values))
    assert phase.b[1] == math.pi
    assert np.array_equal(np.delete(phase.b, 1), np.delete(gauss._fit_phase(stacked).b, 1))


def test_a_table_fits_its_phase_once(monkeypatch):
    # the fit is computed on the first read of table.phase and kept with
    # the table; a replaced table is another table and fits afresh
    fitted = []
    original = gauss._fit_phase
    monkeypatch.setattr(gauss, "_fit_phase", lambda table: fitted.append(table) or original(table))
    stacked = gauss.theta_sequences([1, 3, 5, 7], 8)
    assert fitted == []
    assert stacked.phase is stacked.phase
    gauss.max_phase_defects(stacked)
    assert fitted == [stacked]
    assert (stacked.phase.p, stacked.phase.q) == (stacked.p, stacked.q)

    one = gauss.theta_sequence(1, 3)
    b = one.phase.b[0]
    values = one.values.copy()
    values[0, 0] = complex(-1.0, -0.0)
    doctored = dataclasses.replace(one, values=values)
    assert doctored.phase.b[0] == math.pi != b
    assert fitted[1:] == [one, doctored]
    assert doctored.phase is not one.phase


def test_a_table_keeps_its_admissible_set():
    # found on the first call, kept with the table and read-only, like
    # its phase fit
    stacked = gauss.theta_sequences([1, 3, 5, 7], 8)
    n, arguments = stacked.admissible_arguments()
    again = stacked.admissible_arguments()
    assert again[0] is n and again[1] is arguments
    assert n.tolist() == [0, 2, 4, 6] and arguments.shape == (4, 4)
    assert not n.flags.writeable and not arguments.flags.writeable
    with pytest.raises(ValueError):
        arguments[0, 0] = 0.0


@pytest.mark.parametrize("q, ref", [(6, 1), (5, 0)])
def test_phase_fit_rejects_a_vanishing_reference(q, ref):
    # the fit reads its reference, the smallest admissible index, from the
    # table's admissible set, whose one check names the vanishing sum
    table = gauss.theta_sequence(1, q)
    assert int(table.admissible_arguments()[0][0]) == ref
    vanishing = table.vanishing.copy()
    vanishing[0, ref] = True
    doctored = dataclasses.replace(table, vanishing=vanishing)
    with pytest.raises(UndefinedTheta, match=rf"G\(-1,{ref},{q}\)"):
        doctored.phase


def test_max_phase_defect_matches_per_index_loop():
    # the array form repeats model_theta's arithmetic exactly
    for q in range(1, 41):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            theta = gauss.theta_sequence(p, q)
            phase = gauss.quadratic_phase(p, q)
            admissible = arith.admissible_mask(q)
            worst = 0.0
            for n in range(q):
                if admissible[n]:
                    d = (model_theta(phase, n) - theta.arguments[0, n]) % (2 * math.pi)
                    worst = max(worst, min(d, 2 * math.pi - d))
            assert gauss.max_phase_defect(p, q) == worst, (p, q)


def test_phase_model_coefficient_is_coprime():
    for q in range(1, 41):
        for p in range(1, q + 1):
            if math.gcd(p, q) == 1:
                assert math.gcd(int(gauss.quadratic_phase(p, q).a[0]), q) == 1


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=-9, max_value=9),
       st.integers(min_value=0, max_value=29))
@settings(max_examples=150)
def test_conjugation_symmetry(q, p, n):
    # termwise conjugation in the same order: conj G(-p,n,q) = G(p,q-n,q)
    if math.gcd(p, q) != 1 or n >= q:
        return
    forward = gauss.gauss_sum(p, q, n).value
    mirrored = gauss.gauss_sum(-p, q, (q - n) % q).value
    assert abs(forward.conjugate() - mirrored) < 1e-12 * q
