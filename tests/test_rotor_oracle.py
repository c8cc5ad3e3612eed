"""Batched rotation products and certificates against the per-factor
loop: one Rodrigues matrix and one quaternion per factor, multiplied in
order, with the angle read from the trace.  The loop is plain numpy and
restates the factor order and the admissibility rule, so it shares no
code with the library's product."""

import math

import numpy as np
import pytest

from polyfil import gauss, rotor
from polyfil.errors import CrossCheckFailure, NotARotation


def rodrigues(axis, angle):
    """Rotation by angle about a unit axis: I + sin(angle) K + (1 - cos(angle)) K^2."""
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def quaternion_product(s, t):
    """Hamilton product of scalar-first quaternions (w, x, y, z)."""
    w1, x1, y1, z1 = s
    w2, x2, y2, z2 = t
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def quaternion_rotation(s):
    """The rotation v -> s v s^-1 of a unit quaternion, entry by entry."""
    w, x, y, z = s
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def product_per_factor(theta, rho):
    # factors run over the admissible indices (4 does not divide
    # 2n + 2 - q), highest index leftmost
    q = theta.q
    args = [theta.arguments[n] for n in range(q - 1, -1, -1) if (2 * n + 2 - q) % 4 != 0]
    total = np.eye(3)
    spin = np.array([1.0, 0.0, 0.0, 0.0])
    for arg in args:
        axis = (math.cos(arg), math.sin(arg), 0.0)
        total = total @ rodrigues(axis, rho)
        half = 0.5 * rho
        factor = np.array([math.cos(half), *(math.sin(half) * np.array(axis))])
        spin = quaternion_product(spin, factor)
    assert np.abs(quaternion_rotation(spin) - total).max() <= 1e-10
    return total


def kernel_product(theta, rho):
    """The library's ordered product of a one-row table at one angle:
    the one-row, one-angle call of the kernel."""
    return rotor._ordered_products([rotor._product_factors(theta)[None]], np.array([[rho]]))[0, 0]


def trace_angle(r):
    return math.acos(min(1.0, max(-1.0, (float(np.trace(r)) - 1.0) / 2.0)))


def certificate_per_factor(M, p, q):
    theta = gauss.theta_sequence(p, q)
    rho = rotor.inter_side_angle(M, q)
    target = 2.0 * math.pi / M
    product = product_per_factor(theta, rho)
    margin = min(
        abs(trace_angle(product_per_factor(theta, f * rho)) - target) for f in (0.95, 1.05)
    )
    return product, abs(trace_angle(product) - target), margin


def test_certificates_match_per_factor_loop():
    Ms = range(3, 11)
    for q in range(1, 17):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            for M in Ms:
                cert = rotor.certify_rotation_angle(M, p, q)
                assert (cert.M, cert.p, cert.q) == (M, p, q)
                assert cert.rho == rotor.inter_side_angle(M, q)
                product, angle_error, margin = certificate_per_factor(M, p, q)
                assert np.abs(cert.product - product).max() <= 1e-12, (M, p, q)
                assert abs(cert.angle_error - angle_error) <= 1e-12, (M, p, q)
                assert abs(cert.falsification_margin - margin) <= 1e-12, (M, p, q)


def test_certify_rotation_angle_is_one_entry_of_the_batch():
    one = rotor.certify_rotation_angle(7, 2, 5)
    arrays = rotor.certificate_arrays([gauss.theta_sequence(2, 5)], [3, 7, 9])
    assert arrays.p == (2,) and arrays.q == (5,) and arrays.M == (3, 7, 9)
    assert (one.rho, one.angle, one.angle_error, one.falsification_margin) == (
        arrays.rho[0, 1], arrays.angle[0, 1], arrays.angle_error[0, 1],
        arrays.falsification_margin[0, 1])
    assert np.array_equal(one.product, arrays.product[0, 1])


def test_product_shape_follows_rho():
    theta = gauss.theta_sequences([1, 3, 5], 7)
    rhos = np.array([0.2, 1.0, 3.0, 0.5])
    stack = rotor._ordered_products([rotor._product_factors(theta)], np.tile(rhos, (3, 1)))
    assert stack.shape == (3, 4, 3, 3)
    for i, p in enumerate([1, 3, 5]):
        one = gauss.theta_sequence(p, 7)
        for j, rho in enumerate(rhos):
            assert np.array_equal(stack[i, j], kernel_product(one, rho))
            assert np.abs(stack[i, j] - product_per_factor(one, rho)).max() <= 1e-12
    args = rotor._product_factors(gauss.theta_sequence(3, 7))[None]
    assert rotor._ordered_products([args], np.empty((1, 0))).shape == (1, 0, 3, 3)


@pytest.mark.parametrize("rho", [
    0.0, math.pi, -0.5, float("nan"), [0.5, 3.2], [0.5, float("nan")],
])
def test_product_rejects_rho_outside_open_interval(rho):
    args = rotor._product_factors(gauss.theta_sequence(1, 3))[None]
    with pytest.raises(ValueError, match="rho must lie in"):
        rotor._ordered_products([args], np.atleast_2d(np.asarray(rho, dtype=float)))


def test_rotation_angle_of_a_stack():
    angles = np.array([[0.1, 1.0], [2.0, 3.0]])
    stack = np.array([[rodrigues((0.0, 0.6, 0.8), a) for a in row] for row in angles])
    got = rotor.rotation_angle(stack)
    assert got.shape == (2, 2)
    assert np.abs(got - angles).max() <= 1e-14
    bad = stack.copy()
    bad[1, 0] *= 1.001  # one scaled matrix spoils the whole stack
    with pytest.raises(NotARotation):
        rotor.rotation_angle(bad)
    with pytest.raises(NotARotation):
        rotor.rotation_angle(np.full((3, 3), np.nan))


def test_cross_check_fires_when_the_quaternion_route_is_wrong(monkeypatch):
    theta = gauss.theta_sequence(1, 3)
    rho = rotor.inter_side_angle(5, 3)
    kernel_product(theta, rho)  # both routes agree

    correct = rotor._spinor_matrices

    def conjugated(spin):
        # the quaternion route composed in the wrong order: s -> s^-1
        return correct(spin * np.array([1.0, -1.0, -1.0, -1.0]))

    monkeypatch.setattr(rotor, "_spinor_matrices", conjugated)
    with pytest.raises(CrossCheckFailure):
        kernel_product(theta, rho)
    with pytest.raises(CrossCheckFailure):
        rotor.certify_rotation_angle(5, 1, 3)


def test_cross_check_fires_when_a_spinor_factor_is_conjugated(monkeypatch):
    # conjugating alpha_f mirrors the factor's axis to (-cos a, sin a, 0),
    # which the matrix route does not do
    theta = gauss.theta_sequence(2, 5)
    rho = rotor.inter_side_angle(7, 5)
    kernel_product(theta, rho)
    correct = rotor._spinor_factor

    def conjugated(*args):
        alpha, beta = correct(*args)
        return alpha.conj(), beta

    monkeypatch.setattr(rotor, "_spinor_factor", conjugated)
    with pytest.raises(CrossCheckFailure):
        rotor.certify_rotation_angle(7, 2, 5)
    with pytest.raises(CrossCheckFailure):
        rotor.certificate_arrays([gauss.theta_sequences([1, 2, 3, 4], 5)], [7])


def test_complex_pair_route_matches_the_per_factor_quaternions():
    # the spinor pair the kernel ends with, rebuilt from the Hamilton
    # product of the oracle, for a product of several factors
    theta = gauss.theta_sequence(3, 8)
    rho = 0.7
    args = rotor._product_factors(theta)
    cos_half, sin_half = np.cos(np.array([0.5 * rho])), np.sin(np.array([0.5 * rho]))
    alpha, beta = None, None
    spin = np.array([1.0, 0.0, 0.0, 0.0])
    for arg in args:
        alpha_f, beta_f = rotor._spinor_factor(
            cos_half, sin_half, np.array([[math.cos(arg)]]), np.array([[math.sin(arg)]]))
        if alpha is None:
            alpha, beta = alpha_f, beta_f + 0j
        else:
            alpha, beta = rotor._spinor_product(alpha, beta, alpha_f, beta_f)
        half = 0.5 * rho
        spin = quaternion_product(
            spin, np.array([math.cos(half), math.sin(half) * math.cos(arg),
                            math.sin(half) * math.sin(arg), 0.0]))
    got = np.array([alpha.real[0, 0], alpha.imag[0, 0], beta.real[0, 0], beta.imag[0, 0]])
    assert np.abs(got - spin).max() <= 1e-14
    assert np.abs(quaternion_rotation(spin) - kernel_product(theta, rho)).max() <= 1e-12
