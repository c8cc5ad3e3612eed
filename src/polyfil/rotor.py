"""Axis-angle rotations, unit-quaternion spinors, the double cover, the
ordered corner-rotation product, and the inter-side angle formula.

Conventions, fixed once: quaternions are scalar-first (w, x, y, z),
right-handed, acting on vectors by v -> s v s^-1, so the quaternion
product composes in the same left-to-right order as the matrix product.
Angles are extracted from the trace (well defined up to the pi edge);
axes are best effort and flagged near the 0 and pi edge cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import admissible, alternating_products
from .errors import (
    CrossCheckFailure,
    NonUnitAxis,
    NonUnitSpinor,
    NotARotation,
    UndefinedTheta,
)
from .gauss import ThetaSequence, theta_sequence

__all__ = [
    "Spinor",
    "AxisAngle",
    "RotationCertificate",
    "TraceIdentityResult",
    "rotation_from_axis_angle",
    "spinor_from_axis_angle",
    "spinor_to_rotation",
    "rotation_angle",
    "axis_angle_of",
    "inter_side_angle",
    "rotation_product",
    "certify_rotation_angle",
    "trace_identity_eval",
]

_UNIT_TOL = 1e-9
_ORTHO_TOL = 1e-10
_CLAMP_TOL = 1e-9
_CROSS_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class Spinor:
    """A unit quaternion; covers a rotation twice (s and -s agree)."""

    w: float
    x: float
    y: float
    z: float

    def __mul__(self, other: "Spinor") -> "Spinor":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Spinor(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def __neg__(self) -> "Spinor":
        return Spinor(-self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)


@dataclass(frozen=True)
class AxisAngle:
    """Angle in [0, pi]; axis is None at angle 0 and sign-ambiguous at pi
    (axis_stable is False in both edge cases)."""

    axis: tuple[float, float, float] | None
    angle: float
    axis_stable: bool


@dataclass(frozen=True)
class RotationCertificate:
    """Angle agreement of the corner-rotation product at the predicted
    inter-side angle, plus how far a +-5% detuning drifts off target.
    `product` is the rotation matrix at rho itself."""

    M: int
    p: int
    q: int
    rho: float
    angle: float
    angle_error: float
    falsification_margin: float
    product: np.ndarray = field(compare=False)


@dataclass(frozen=True)
class TraceIdentityResult:
    lhs: float
    rhs: float


def _check_axis(axis) -> np.ndarray:
    a = np.asarray(axis, dtype=float)
    if a.shape != (3,):
        raise NonUnitAxis(f"axis must be a 3-vector, got shape {a.shape}")
    n = float(np.linalg.norm(a))
    if abs(n - 1.0) > _UNIT_TOL:
        raise NonUnitAxis(f"axis norm {n} is not 1")
    return a


def rotation_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Proper rotation about a unit axis (Rodrigues construction)."""
    a = _check_axis(axis)
    k = np.array([
        [0.0, -a[2], a[1]],
        [a[2], 0.0, -a[0]],
        [-a[1], a[0], 0.0],
    ])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def spinor_from_axis_angle(axis, angle: float) -> Spinor:
    a = _check_axis(axis)
    half = 0.5 * angle
    s = math.sin(half)
    return Spinor(math.cos(half), s * a[0], s * a[1], s * a[2])


def spinor_to_rotation(s: Spinor) -> np.ndarray:
    """Image rotation under the double cover; s and -s map identically."""
    if abs(s.norm() - 1.0) > _UNIT_TOL:
        raise NonUnitSpinor(f"spinor norm {s.norm()} is not 1")
    w, x, y, z = s.w, s.x, s.y, s.z
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _check_rotation(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise NotARotation(f"expected a 3x3 matrix, got shape {r.shape}")
    if float(np.abs(r.T @ r - np.eye(3)).max()) > _ORTHO_TOL:
        raise NotARotation("matrix is not orthogonal")
    if abs(float(np.linalg.det(r)) - 1.0) > _ORTHO_TOL:
        raise NotARotation("determinant is not 1")
    return r


def rotation_angle(r: np.ndarray) -> float:
    """Rotation angle in [0, pi] from the trace; clamps only roundoff."""
    r = _check_rotation(r)
    c = (float(np.trace(r)) - 1.0) / 2.0
    if c > 1.0 + _CLAMP_TOL or c < -1.0 - _CLAMP_TOL:
        raise NotARotation(f"trace-derived cosine {c} outside [-1, 1]")
    return math.acos(min(1.0, max(-1.0, c)))


def axis_angle_of(r: np.ndarray) -> AxisAngle:
    """Best-effort axis extraction; angle is always trace-derived."""
    angle = rotation_angle(r)
    if angle < 1e-6:
        return AxisAngle(axis=None, angle=angle, axis_stable=False)
    if math.pi - angle < 1e-6:
        # near pi the skew part degenerates; use the dominant column of
        # (R + I)/2 = axis axis^T, sign undetermined
        m = (np.asarray(r) + np.eye(3)) / 2.0
        col = int(np.argmax(np.diag(m)))
        axis = m[:, col] / np.linalg.norm(m[:, col])
        return AxisAngle(axis=tuple(axis), angle=angle, axis_stable=False)
    v = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    axis = v / (2.0 * math.sin(angle))
    return AxisAngle(axis=tuple(axis), angle=angle, axis_stable=True)


def inter_side_angle(M: int, q: int) -> float:
    """The angle rho between adjacent sides of the time t_{p/q} polygon:
    cos(rho/2) = cos(pi/M)^(1/q) for odd q and cos(pi/M)^(2/q) for even q.
    Independent of p.  Reduces to the planar value 2*pi/M at q = 1, 2."""
    if M < 3:
        raise ValueError(f"M must be at least 3, got {M}")
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    exponent = 1.0 / q if q % 2 == 1 else 2.0 / q
    return 2.0 * math.acos(math.cos(math.pi / M) ** exponent)


def _product_factors(theta: ThetaSequence) -> list[float]:
    """Arguments for the ordered product, leftmost factor first.

    Factor n (ascending n leftmost) uses the argument of index q-1-n and
    skips n whose index is not admissible, which lands exactly on the
    vanishing mask.
    """
    q = theta.q
    factors = []
    for n in range(q):
        index = q - 1 - n
        if not admissible(index, q):
            continue
        entry = theta.entries[index]
        if entry.vanishing:
            raise UndefinedTheta(
                f"index {index} vanishes but is required by the product"
            )
        assert entry.argument is not None
        factors.append(entry.argument)
    return factors


def rotation_product(theta: ThetaSequence, rho: float) -> np.ndarray:
    """Ordered product of rotations by rho about the in-plane axes
    (cos theta_n, sin theta_n, 0), computed both as 3x3 matrices and as
    quaternions; the two routes must agree."""
    if not 0.0 < rho < math.pi:
        raise ValueError(f"rho must lie in (0, pi), got {rho}")
    total = np.eye(3)
    spin = Spinor(1.0, 0.0, 0.0, 0.0)
    for arg in _product_factors(theta):
        axis = (math.cos(arg), math.sin(arg), 0.0)
        total = total @ rotation_from_axis_angle(axis, rho)
        spin = spin * spinor_from_axis_angle(axis, rho)
    mismatch = float(np.abs(spinor_to_rotation(spin) - total).max())
    if mismatch > _CROSS_CHECK_TOL:
        raise CrossCheckFailure(
            f"matrix and quaternion products disagree by {mismatch}"
        )
    return total


def certify_rotation_angle(M: int, p: int, q: int) -> RotationCertificate:
    """Check that the product has angle exactly 2*pi/M at the predicted
    inter-side angle, and that detuning rho by +-5% visibly breaks it."""
    theta = theta_sequence(p, q)
    rho = inter_side_angle(M, q)
    target = 2.0 * math.pi / M
    product = rotation_product(theta, rho)
    angle = rotation_angle(product)
    angle_error = abs(angle - target)
    margin = min(
        abs(rotation_angle(rotation_product(theta, f * rho)) - target)
        for f in (0.95, 1.05)
    )
    return RotationCertificate(
        M=M, p=p, q=q, rho=rho, angle=angle,
        angle_error=angle_error, falsification_margin=margin, product=product,
    )


def trace_identity_eval(x: float, phis) -> TraceIdentityResult:
    """Both sides of the half-trace expansion of the ordered product
    prod_n (x I + i v_n . sigma) with in-plane unit vectors v_n.

    lhs: direct 2x2 complex multiplication.  rhs: the cosine expansion
    sum_k (-1)^k x^(N-2k) sum cos(phi_{n1} - phi_{n2} + ...), whose k-th
    coefficient carries the sign (-1)^k from i^(2k); the k = 0 inner sum
    is 1 by the empty-product convention.  Each inner sum is Re S_2k of
    z_n = exp(i phi_n) (arith.alternating_products).
    """
    phis = list(phis)
    if not phis:
        raise ValueError("need at least one angle")
    n_factors = len(phis)

    prod = np.eye(2, dtype=complex)
    for phi in phis:
        factor = np.array([
            [x, 1j * complex(math.cos(phi), -math.sin(phi))],
            [1j * complex(math.cos(phi), math.sin(phi)), x],
        ])
        prod = prod @ factor
    lhs = 0.5 * float(prod.trace().real)

    coeffs = alternating_products(
        [complex(math.cos(phi), math.sin(phi)) for phi in phis], n_factors
    )
    rhs = math.fsum(
        (-1.0) ** k * x ** (n_factors - 2 * k) * coeffs[2 * k].real
        for k in range(n_factors // 2 + 1)
    )
    return TraceIdentityResult(lhs=lhs, rhs=rhs)
