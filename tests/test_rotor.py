import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfil import gauss, rotor
from polyfil.errors import UndefinedTheta
from test_rotor_oracle import kernel_product, quaternion_product, rodrigues, trace_angle

X_AXIS = (1.0, 0.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)


def test_rotation_identity_at_zero_angle():
    assert np.allclose(rodrigues(X_AXIS, 0.0), np.eye(3))


def test_rotation_quarter_turn_about_z():
    r = rodrigues(Z_AXIS, math.pi / 2)
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)


def test_rotation_trace_formula():
    r = rodrigues(X_AXIS, 2 * math.pi / 5)
    assert abs(np.trace(r) - (1 + 2 * math.cos(2 * math.pi / 5))) < 1e-14


def test_full_turn_is_minus_identity_spinor():
    s = np.array([math.cos(math.pi), 0.0, 0.0, math.sin(math.pi)])
    assert abs(s[0] + 1) < 1e-15 and abs(s[3]) < 1e-15
    # ... but the same rotation as the identity
    assert np.allclose(rotor._spinor_matrix(s), np.eye(3), atol=1e-15)


def test_spinor_to_rotation_basics():
    assert np.allclose(rotor._spinor_matrix(np.array([1.0, 0.0, 0.0, 0.0])), np.eye(3))
    r = rotor._spinor_matrix(np.array([0.0, 0.0, 0.0, 1.0]))
    assert np.allclose(r, rodrigues(Z_AXIS, math.pi), atol=1e-15)


def test_double_cover_sign_is_exact():
    rng = random.Random(7)
    for _ in range(100):
        raw = [rng.uniform(-1, 1) for _ in range(4)]
        norm = math.sqrt(sum(c * c for c in raw))
        s = np.array([c / norm for c in raw])
        assert np.array_equal(rotor._spinor_matrix(s), rotor._spinor_matrix(-s))


def test_homomorphism_on_random_pairs():
    rng = random.Random(13)
    for _ in range(1000):
        spinors = []
        for _ in range(2):
            raw = [rng.uniform(-1, 1) for _ in range(4)]
            norm = math.sqrt(sum(c * c for c in raw))
            spinors.append(np.array([c / norm for c in raw]))
        s1, s2 = spinors
        product = quaternion_product(s1, s2)
        # renormalize the product against roundoff before mapping
        product = product / np.linalg.norm(product)
        lhs = rotor._spinor_matrix(product)
        rhs = rotor._spinor_matrix(s1) @ rotor._spinor_matrix(s2)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_inter_side_angle_values():
    for m in range(3, 12):
        assert abs(rotor.inter_side_angle(m, 1) - 2 * math.pi / m) < 1e-15
        assert abs(rotor.inter_side_angle(m, 2) - 2 * math.pi / m) < 1e-15
    assert abs(rotor.inter_side_angle(5, 3) - 0.74295) < 5e-5
    # no cancellation at large M, where rho = 2*pi/M is tiny
    for m in (10**3, 10**5, 10**8, 10**12):
        for q in (1, 2):
            target = 2 * math.pi / m
            assert abs(rotor.inter_side_angle(m, q) - target) <= 4e-16 * target
    assert 0 < rotor.inter_side_angle(10**10, 3) < 2 * math.pi / 10**10


def test_inter_side_angle_defining_equation():
    for m in range(3, 9):
        for q in range(1, 12):
            rho = rotor.inter_side_angle(m, q)
            assert 0 < rho < math.pi
            power = math.cos(rho / 2) ** q
            target = math.cos(math.pi / m) if q % 2 else math.cos(math.pi / m) ** 2
            assert abs(power - target) < 1e-13


def test_rotation_angle_basics():
    # the half-angle read 2*atan2(|vector part|, |scalar part|)
    def angle(alpha, beta):
        return rotor._half_angle(np.array([alpha]), np.array([beta]))[0]

    assert angle(1 + 0j, 0j) == 0.0
    assert angle(-1 + 0j, 0j) == 0.0  # -s is the same rotation as s
    third = complex(math.cos(math.pi / 3), 0.0), 1j * math.sin(math.pi / 3)
    assert abs(angle(*third) - 2 * math.pi / 3) < 1e-15
    assert np.allclose(rotor._spinor_matrix(np.array([third[0].real, 0.0, 0.0, third[1].imag])),
                       rodrigues(Z_AXIS, 2 * math.pi / 3), atol=1e-15)
    # a half turn reads pi with no clamp
    assert angle(1j, 0j) == math.pi


def test_product_single_factor_cases():
    # q = 1: single factor about theta_0 = 0
    theta = gauss.theta_sequence(1, 1)
    r = kernel_product(theta, 2 * math.pi / 5)
    assert np.allclose(r, rodrigues(X_AXIS, 2 * math.pi / 5))
    # q = 2: the only admissible index has theta_1 = 0
    theta2 = gauss.theta_sequence(1, 2)
    r2 = kernel_product(theta2, 2 * math.pi / 5)
    assert np.allclose(r2, rodrigues(X_AXIS, 2 * math.pi / 5))


def test_product_pentagon_angle():
    theta = gauss.theta_sequence(1, 3)
    rho = rotor.inter_side_angle(5, 3)
    angle = trace_angle(kernel_product(theta, rho))
    assert abs(angle - 2 * math.pi / 5) < 1e-9


def test_product_rejects_vanishing_factor():
    theta = gauss.theta_sequence(1, 2)
    # doctor the sequence so the required entry is marked vanishing
    broken = dataclasses.replace(
        theta,
        values=np.array([[theta.values[0, 0], 0j]]),
        moduli=np.array([[theta.moduli[0, 0], 0.0]]),
        vanishing=np.array([[theta.vanishing[0, 0], True]]),
    )
    with pytest.raises(UndefinedTheta):
        kernel_product(broken, 1.0)
    with pytest.raises(UndefinedTheta):
        rotor.factor_block(broken)


def test_certificates_small_cases():
    cert = rotor.certify_rotation_angle(5, 1, 3)
    assert cert.angle_error <= 1e-9
    assert cert.falsification_margin > 1e-4

    cert = rotor.certify_rotation_angle(3, 1, 1)
    assert cert.angle_error <= 1e-12

    cert = rotor.certify_rotation_angle(5, 1, 2)
    assert cert.angle_error <= 1e-12
    # single factor: the product angle is rho itself, so the probe misses
    # the target by exactly 5% of 2*pi/5
    assert abs(cert.falsification_margin - 0.05 * 2 * math.pi / 5) < 1e-12


def test_certificate_angle_keeps_relative_accuracy_at_small_angles():
    # the half-angle read keeps full relative precision as 2*pi/M
    # shrinks, where an arccos of the trace loses it (3.8e-9, 6% of
    # 2*pi/M, at M = 1e8 and (p, q) = (1, 3))
    for M in (10**3, 10**6, 10**8, 10**12):
        for p, q in ((1, 1), (1, 3), (3, 8), (2, 7)):
            cert = rotor.certify_rotation_angle(M, p, q)
            assert cert.angle_error <= 1e-15 * (2 * math.pi / M), (M, p, q)


def test_certificates_sweep_modest():
    # the acceptance suite extends this to M <= 10, q <= 16
    for q in range(1, 9):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            for m in (3, 5, 8):
                cert = rotor.certify_rotation_angle(m, p, q)
                assert cert.angle_error <= 1e-9, (m, p, q)
                assert cert.falsification_margin > 1e-4, (m, p, q)


def test_equal_angle_consistency_q1():
    # a single corner rotation at the planar polygon's exterior angle
    for m in range(3, 11):
        theta = gauss.theta_sequence(1, 1)
        angle = trace_angle(kernel_product(theta, 2 * math.pi / m))
        assert abs(angle - 2 * math.pi / m) < 1e-14


def test_product_factor_count():
    # the product takes one factor per admissible index: q for odd q,
    # q/2 for even q
    from polyfil.rotor import factor_block

    for q in range(1, 20):
        theta = gauss.theta_sequence(1, q)
        expected = q if q % 2 else q // 2
        assert len(factor_block(theta)[2][0]) == expected


def test_half_trace_bridge():
    # |scalar part of the spinor product| = cos(rho/2)^count for any rho,
    # and equals cos(pi/M) exactly at the predicted inter-side angle.  As
    # a 2x2 unitary, a factor is sin(rho/2) (x I - i v.sigma) with
    # x = cot(rho/2); the half-trace of the product is even in the v_n, so
    # it is the Lemma-3 left-hand side for the same angles.
    def scalar_part(theta, rho):
        factors = rotor.factor_block(theta)[2][0]
        lhs = rotor.trace_identity_eval(1 / math.tan(rho / 2), factors).lhs
        return abs(lhs) * math.sin(rho / 2) ** len(factors)

    for m, p, q in [(5, 1, 3), (3, 1, 4), (7, 2, 5), (4, 3, 8), (6, 1, 6)]:
        theta = gauss.theta_sequence(p, q)
        count = len(theta.admissible_arguments()[0])
        for rho in (0.3, 0.9, rotor.inter_side_angle(m, q)):
            w = scalar_part(theta, rho)
            assert abs(abs(w) - abs(math.cos(rho / 2)) ** count) < 1e-10
        w_star = scalar_part(theta, rotor.inter_side_angle(m, q))
        assert abs(abs(w_star) - math.cos(math.pi / m)) < 1e-10


def test_trace_identity_single_factor():
    for x in (-1.5, 0.0, 2.0):
        result = rotor.trace_identity_eval(x, [1.2345])
        assert abs(result.lhs - x) < 1e-14
        assert abs(result.rhs - x) < 1e-14


def test_trace_identity_sign_anchor():
    # opposite in-plane vectors at x = 1: the product is 2*I, so both
    # sides must equal 2; the sign-free expansion would give 0 instead
    result = rotor.trace_identity_eval(1.0, [0.0, math.pi])
    assert abs(result.lhs - 2.0) < 1e-14
    assert abs(result.rhs - 2.0) < 1e-14
    sign_free = 1.0 + math.cos(0.0 - math.pi)
    assert abs(sign_free) < 1e-14  # the rejected variant collapses to zero


def test_trace_identity_perpendicular_pair():
    result = rotor.trace_identity_eval(1.0, [0.0, math.pi / 2])
    assert abs(result.lhs - 1.0) < 1e-14
    assert abs(result.rhs - 1.0) < 1e-14


@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=-2.0, max_value=2.0),
    st.randoms(use_true_random=False),
)
@settings(max_examples=120, deadline=None)
def test_trace_identity_random(n, x, rng):
    phis = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)]
    result = rotor.trace_identity_eval(x, phis)
    assert abs(result.lhs - result.rhs) <= 1e-10 * (1.0 + abs(x)) ** n


def test_axis_angle_extraction():
    # the certificate's axis is the product's: fixed by its matrix, and
    # turned so that the rotation about it by `angle` is the product
    cert = rotor.certify_rotation_angle(5, 1, 1)
    assert np.allclose(cert.axis, X_AXIS, atol=1e-15)
    assert abs(cert.angle - 2 * math.pi / 5) < 1e-15
    for M, p, q in ((5, 1, 3), (7, 3, 8), (3, 2, 7)):
        cert = rotor.certify_rotation_angle(M, p, q)
        axis = np.array(cert.axis)
        assert abs(np.linalg.norm(axis) - 1.0) < 1e-15
        assert np.abs(cert.product @ axis - axis).max() < 1e-14
        assert np.abs(rodrigues(axis, cert.angle) - cert.product).max() < 1e-14
    # no axis below an angle of 1e-6
    tiny = rotor.certify_rotation_angle(10**8, 1, 1)
    assert tiny.axis is None and tiny.angle > 0.0
