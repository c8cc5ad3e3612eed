import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest

from polyfil import arith, gauss, sums
from polyfil.errors import RangeError
from test_gauss import model_theta

SQRT3 = math.sqrt(3.0)


def test_trig_sum_q3_hand_value():
    theta = gauss.theta_sequence(1, 3)
    # cos(-2pi/3) + cos(-2pi/3) + cos(0) = -1/2 - 1/2 + 1
    assert abs(sums.sum_report(1, 3, 1, theta=theta).t_value) < 1e-14


def test_trig_sum_q4_single_pair():
    theta = gauss.theta_sequence(1, 4)
    # only (0, 2) is admissible: cos(theta_0 - theta_2) = cos(-pi/2)
    assert abs(sums.sum_report(1, 4, 1, theta=theta).t_value) < 1e-14


def test_trig_sum_empty_enumeration():
    theta = gauss.theta_sequence(1, 2)
    assert sums.sum_report(1, 2, 1, theta=theta).t_value == 0.0


def test_trig_sum_range_errors():
    theta = gauss.theta_sequence(1, 3)
    with pytest.raises(RangeError):
        sums.sum_report(1, 3, 2, theta=theta)
    with pytest.raises(RangeError):
        sums.sum_report(1, 3, 0, theta=theta)


def test_quad_exp_sum_hand_values():
    assert abs(sums.sum_report(1, 3, 1).e_value - (-1j * SQRT3)) < 1e-13
    assert abs(sums.sum_report(1, 4, 1).e_value - (-1j)) < 1e-14
    assert sums.sum_report(1, 2, 1).e_value == 0


def test_sum_report_fields():
    report = sums.sum_report(1, 5, 2)
    assert report.term_count == math.comb(5, 4)
    assert report.residual <= 1e-12
    assert report.residual == max(
        abs(report.t_value), abs(report.e_value.real),
        abs(report.t_value - report.e_value.real),
    )


def test_verify_sum_identities_odd_q():
    for report in sums.verify_sum_identities(1, 5):
        assert report.residual <= 1e-10


def test_verify_sum_identities_even_q():
    for report in sums.verify_sum_identities(3, 8):
        assert report.residual <= 1e-10


def test_identities_sweep_small():
    # the acceptance suite extends this to q <= 16
    for q in range(2, 13):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            for report in sums.verify_sum_identities(p, q):
                bound = 1e-8 * max(1, math.comb(q, 2 * report.k))
                assert report.residual <= bound, (p, q, report.k)


def test_phase_substitution_consistency():
    # replacing each argument by its quadratic model leaves the cosine sum
    # unchanged (the model differs by multiples of 2*pi)
    for p, q in [(1, 5), (2, 7), (3, 8), (1, 12)]:
        theta = gauss.theta_sequence(p, q)
        phase = gauss.quadratic_phase(p, q)
        model_arguments = np.array([[
            math.nan if vanishing else model_theta(phase, n)
            for n, vanishing in enumerate(theta.vanishing[0])
        ]])
        model_table = dataclasses.replace(
            theta, values=theta.moduli * np.exp(1j * model_arguments))
        for k in range(1, q // 2 + 1):
            direct = sums.sum_report(p, q, k, theta=theta).t_value
            modeled = sums.sum_report(p, q, k, theta=model_table).t_value
            assert abs(direct - modeled) <= 1e-8


def test_global_shift_leaves_real_part_invariant():
    # for odd q, summing over v + h*1 instead of v changes each phase by
    # -2*h*L(v), which by the root-of-unity cancellation cannot move the
    # real part; check the sum agrees with the reduced-representative sum
    for p, q in [(1, 5), (2, 5), (1, 7), (3, 7), (2, 9)]:
        phase = gauss.quadratic_phase(p, q)
        for k in range(1, q // 2 + 1):
            reference = sums.sum_report(p, q, k, phase=phase).e_value.real
            count = math.comb(q, 2 * k)
            for h in range(q):
                total = 0.0
                for v in combinations(range(q), 2 * k):
                    shifted = tuple(c + h for c in v)
                    quad = arith.alternating_square_sum(shifted)
                    total += math.cos(2.0 * math.pi * ((phase.a[0] * quad) % q) / q)
                assert abs(total - reference) <= 1e-10 * max(1, count)


def test_even_q_reduces_to_half_modulus_form():
    # substituting n_j = 2 m_j + eps maps the admissible enumeration onto
    # all increasing tuples over [0, q/2), with phase (Q(m) - eps L(m)) / q
    for p, q in [(1, 4), (3, 4), (1, 8), (3, 8), (1, 6), (5, 6), (1, 10)]:
        phase = gauss.quadratic_phase(p, q)
        eps = phase.epsilon
        half = q // 2
        for k in range(1, q // 2 + 1):
            direct = sums.sum_report(p, q, k, phase=phase).e_value
            total_re = 0.0
            total_im = 0.0
            for m in combinations(range(half), 2 * k):
                quad = arith.alternating_square_sum(m)
                lin = arith.alternating_sum(m)
                angle = 2.0 * math.pi * ((phase.a[0] * (quad - eps * lin)) % q) / q
                total_re += math.cos(angle)
                total_im += math.sin(angle)
            assert abs(complex(total_re, total_im) - direct) <= 1e-10


def test_verify_sum_identities_matches_sum_report_exactly():
    # one recurrence pass per (p, q) gives every k bit for bit
    for q in range(1, 31):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            reports = [sums.sum_report(p, q, k) for k in range(1, q // 2 + 1)]
            assert sums.verify_sum_identities(p, q) == reports, (p, q)
            assert sums.verify_sum_identities(p, q, k_max=2) == reports[:2], (p, q)


def test_sum_report_rejects_a_table_or_fit_of_another_pair():
    # a q = 3 table must not come back labelled q = 7
    with pytest.raises(ValueError, match=r"p=\(1,\), q=3, not of \(1, 7\)"):
        sums.sum_report(1, 7, 1, theta=gauss.theta_sequence(1, 3))
    with pytest.raises(ValueError, match=r"p=\(2,\), q=7, not of \(1, 7\)"):
        sums.sum_report(1, 7, 1, phase=gauss.quadratic_phase(2, 7))
    with pytest.raises(ValueError, match="table of p="):
        sums.sum_report(1, 7, 1, theta=gauss.theta_sequences([1, 2], 7))
    # the table and fit of the pair itself give the default report
    own = sums.sum_report(2, 7, 1, theta=gauss.theta_sequence(2, 7),
                          phase=gauss.quadratic_phase(2, 7))
    assert own == sums.sum_report(2, 7, 1)
