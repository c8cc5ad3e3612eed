"""The library's spinor products and certificates against the per-factor
loop: one Rodrigues matrix and one quaternion per factor, multiplied in
order, with the angle read from the trace.  The loop is plain numpy and
restates the factor order and the admissibility rule, so it shares no
code with the library's product.  It is the matrix route that the
library no longer runs; the mutation tests check that it catches a
wrong spinor route."""

import math

import numpy as np
import pytest

from polyfil import gauss, rotor
from polyfil.errors import NonUnitSpinor


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
    args = [theta.arguments[0, n] for n in range(q - 1, -1, -1) if (2 * n + 2 - q) % 4 != 0]
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


def kernel_pair(theta, rho):
    """The library's ordered product of a one-row table at one angle, as
    its spinor pair (alpha, beta): the one-row, one-angle kernel call."""
    alpha, beta = rotor._ordered_products([rotor.factor_block(theta)[2]], np.array([[rho]]))
    return alpha[0, 0], beta[0, 0]


def pair_matrix(alpha, beta):
    """The rotation matrix of the spinor alpha + beta j, entry by entry
    (quaternion_rotation), to be compared within a tolerance."""
    return quaternion_rotation((alpha.real, alpha.imag, beta.real, beta.imag))


def kernel_product(theta, rho):
    """The rotation matrix of the kernel's product (kernel_pair)."""
    return pair_matrix(*kernel_pair(theta, rho))


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


def matches_per_factor(M, p, q):
    """Whether certify_rotation_angle(M, p, q) agrees with the per-factor
    loop: its rho exactly, and its product, angle error and margin to
    1e-12."""
    cert = rotor.certify_rotation_angle(M, p, q)
    product, angle_error, margin = certificate_per_factor(M, p, q)
    return ((cert.M, cert.p, cert.q, cert.rho) == (M, p, q, rotor.inter_side_angle(M, q))
            and np.abs(cert.product - product).max() <= 1e-12
            and abs(cert.angle_error - angle_error) <= 1e-12
            and abs(cert.falsification_margin - margin) <= 1e-12)


def test_certificates_match_per_factor_loop():
    Ms = range(3, 11)
    for q in range(1, 17):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            for M in Ms:
                assert matches_per_factor(M, p, q), (M, p, q)


def test_certify_rotation_angle_is_one_entry_of_the_batch():
    one = rotor.certify_rotation_angle(7, 2, 5)
    arrays = rotor.certificate_arrays([rotor.factor_block(gauss.theta_sequence(2, 5))], [3, 7, 9])
    assert arrays.p == (2,) and arrays.q == (5,) and arrays.M == (3, 7, 9)
    assert (one.rho, one.angle, one.angle_error, one.falsification_margin) == (
        rotor.inter_side_angle(7, 5), arrays.angle[0, 1], arrays.angle_error[0, 1],
        arrays.falsification_margin[0, 1])
    alpha, beta = arrays.alpha[0, 1], arrays.beta[0, 1]
    assert np.array_equal(one.product,
                          rotor._spinor_matrix((alpha.real, alpha.imag, beta.real, beta.imag)))


def test_product_shape_follows_rho():
    theta = gauss.theta_sequences([1, 3, 5], 7)
    rhos = np.array([0.2, 1.0, 3.0, 0.5])
    alpha, beta = rotor._ordered_products([rotor.factor_block(theta)[2]],
                                          np.tile(rhos, (3, 1)))
    assert alpha.shape == beta.shape == (3, 4)
    for i, p in enumerate([1, 3, 5]):
        one = gauss.theta_sequence(p, 7)
        for j, rho in enumerate(rhos):
            assert (alpha[i, j], beta[i, j]) == kernel_pair(one, rho)
            assert np.abs(pair_matrix(alpha[i, j], beta[i, j])
                          - product_per_factor(one, rho)).max() <= 1e-12
    args = rotor.factor_block(gauss.theta_sequence(3, 7))[2]
    alpha, beta = rotor._ordered_products([args], np.empty((1, 0)))
    assert alpha.shape == beta.shape == (1, 0)


@pytest.mark.parametrize("rho", [
    0.0, math.pi, -0.5, float("nan"), [0.5, 3.2], [0.5, float("nan")],
])
def test_product_rejects_rho_outside_open_interval(rho):
    args = rotor.factor_block(gauss.theta_sequence(1, 3))[2]
    with pytest.raises(ValueError, match="rho must lie in"):
        rotor._ordered_products([args], np.atleast_2d(np.asarray(rho, dtype=float)))


def test_rotation_angle_of_a_stack():
    # the half-angle read of a stack of spinors, and the unit-norm check
    # that every product of the kernel passes
    angles = np.array([[0.1, 1.0], [2.0, 3.0]])
    axis = np.array([0.0, 0.6, 0.8])
    alpha = np.cos(0.5 * angles) + 0j
    beta = np.sin(0.5 * angles) * complex(axis[1], axis[2])
    got = rotor._half_angle(alpha, beta)
    assert got.shape == (2, 2)
    assert np.abs(got - angles).max() <= 1e-15
    for a, b, angle in zip(alpha.ravel(), beta.ravel(), angles.ravel()):
        assert np.abs(pair_matrix(a, b) - rodrigues(axis, angle)).max() <= 1e-15
    args = rotor.factor_block(gauss.theta_sequences([1, 2], 3))[2]
    with pytest.raises(NonUnitSpinor):
        rotor._ordered_products([np.where(args == args[1, 2], np.nan, args)],
                                np.full((2, 3), 0.5))


def test_kernel_rejects_a_product_off_the_unit_sphere(monkeypatch):
    correct = rotor._spinor_factor

    def scaled(*args):
        # one factor scaled by 1 + 1e-8 is off the sphere by 2e-8
        alpha, beta = correct(*args)
        return alpha * (1.0 + 1e-8), beta

    monkeypatch.setattr(rotor, "_spinor_factor", scaled)
    with pytest.raises(NonUnitSpinor):
        rotor.certify_rotation_angle(5, 1, 1)


def test_per_factor_loop_catches_the_quaternion_route_composed_as_inverse(monkeypatch):
    assert matches_per_factor(5, 1, 3)
    correct = rotor._spinor_matrix

    def conjugated(spin):
        # the rotation v -> s^-1 v s in place of s v s^-1: the same angle
        # about the same axis, turned the other way
        w, x, y, z = spin
        return correct((w, -x, -y, -z))

    monkeypatch.setattr(rotor, "_spinor_matrix", conjugated)
    assert not matches_per_factor(5, 1, 3)
    assert not matches_per_factor(7, 3, 8)


def test_per_factor_loop_catches_a_conjugated_spinor_factor(monkeypatch):
    # conjugating alpha_f mirrors the factor's axis to (-cos a, sin a, 0),
    # which the per-factor loop does not do; the mirrored product has the
    # same angle, so only the matrices tell them apart
    theta = gauss.theta_sequences([1, 2, 3, 4], 5)
    rho = rotor.inter_side_angle(7, 5)
    assert matches_per_factor(7, 2, 5)
    correct = rotor._spinor_factor

    def conjugated(*args):
        alpha, beta = correct(*args)
        return alpha.conj(), beta

    monkeypatch.setattr(rotor, "_spinor_factor", conjugated)
    assert not matches_per_factor(7, 2, 5)
    arrays = rotor.certificate_arrays([rotor.factor_block(theta)], [7])
    for i, p in enumerate(range(1, 5)):
        got = pair_matrix(arrays.alpha[i, 0], arrays.beta[i, 0])
        assert np.abs(got - product_per_factor(gauss.theta_sequence(p, 5), rho)).max() > 1e-12


def test_complex_pair_route_matches_the_per_factor_quaternions():
    # the spinor pair the kernel ends with, rebuilt from the Hamilton
    # product of the oracle, for a product of several factors
    theta = gauss.theta_sequence(3, 8)
    rho = 0.7
    args = rotor.factor_block(theta)[2][0]
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
