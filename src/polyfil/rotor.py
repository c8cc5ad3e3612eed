"""The ordered corner-rotation product, computed both as rotation
matrices and as unit-quaternion spinors under the double cover; angle
and axis extraction; and the inter-side angle formula.

Conventions, fixed once: quaternions are scalar-first (w, x, y, z),
right-handed, acting on vectors by v -> s v s^-1, so the quaternion
product composes in the same left-to-right order as the matrix product.
The product kernel holds a quaternion as the complex pair (alpha, beta)
with s = alpha + beta j, alpha = w + x i and beta = y + z i (the
Cayley-Dickson form).  Angles are extracted from the trace (well
defined up to the pi edge); axes are best effort and flagged near the 0
and pi edge cases.

The factors are the table's admissible arguments, as returned by their
one owner ThetaSequence.admissible_arguments, in descending index order.
One kernel, _ordered_products, runs per range, not per q: it takes the
argument blocks of many tables (P_i rows of F_i factor arguments each,
F_i differing from q to q) and one row of k angles per argument row, and
returns the (R, k, 3, 3) products of all R rows.  The rows are sorted by
factor count, so that at factor f the rows that still have an f-th
factor are a prefix, and only that prefix is multiplied on; each row
sees the same float operations as a call over its own table alone.
Each factor's (R, k, 3, 3) Rodrigues matrices and (R, k) complex spinor
pair are built inside the loop, so memory grows with R*(F + k), never
with R*F*k.  The quaternion cross-check and the checks of rotation_angle
run over the whole stack.

The theorem-2 check has one owner, certificate_arrays.  It takes a
sequence of tables (gauss.theta_sequences, one per q), makes one kernel
call for every (p, q) in them, every M and the three angles rho,
0.95*rho and 1.05*rho, and returns the angle errors and falsification
margins as (R, k) arrays (CertificateArrays), which the verify suite
reads.  certify_rotation_angle, behind the rotation command, is its
one-row, one-M call, returned as a RotationCertificate.

The Lemma 3 half-trace identity is checked the same way:
trace_identity_evals takes every case at once, reads the expansion
coefficients of all of them from one alternating-sum kernel call
(arith.alternating_products, rows front-padded with zeros), and forms
the direct 2x2 products of all of them as one stacked (R, 2, 2) product
under the same prefix rule; trace_identity_eval is its one-case call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import alternating_products
from .errors import CrossCheckFailure, NonUnitSpinor, NotARotation
from .gauss import ThetaSequence, theta_sequence

__all__ = [
    "AxisAngle",
    "RotationCertificate",
    "CertificateArrays",
    "TraceIdentityResult",
    "rotation_angle",
    "axis_angle_of",
    "inter_side_angle",
    "certify_rotation_angle",
    "certificate_arrays",
    "trace_identity_eval",
    "trace_identity_evals",
]

_UNIT_TOL = 1e-9
_ORTHO_TOL = 1e-10
_CLAMP_TOL = 1e-9
_CROSS_CHECK_TOL = 1e-10

# _CROSS[i] is the cross-product matrix of the i-th axis, so that
# v @ _CROSS.reshape(3, 9) lists the entries of [v]_x (see _cross_matrices)
_CROSS = np.array([
    [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
    [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
    [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
])


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


@dataclass(frozen=True, eq=False)
class CertificateArrays:
    """The fields of RotationCertificate for R rows (p, q) and every M,
    as arrays: `rho`, `angle`, `angle_error` and `falsification_margin`
    (R, k); `product` (R, k, 3, 3).  `p`, `q` (one each per row) and `M`
    are tuples of ints, so that no M is too large for an int64.  Entry
    [i, j] is the certificate of (M[j], p[i], q[i]).  Compared by
    identity (eq=False), since arrays have no single-bool ==."""

    p: tuple[int, ...]
    q: tuple[int, ...]
    M: tuple[int, ...]
    rho: np.ndarray
    angle: np.ndarray
    angle_error: np.ndarray
    falsification_margin: np.ndarray
    product: np.ndarray


@dataclass(frozen=True)
class TraceIdentityResult:
    lhs: float
    rhs: float


def _cross_matrices(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices (..., 3, 3) of vectors (..., 3): [v]_x u = v x u."""
    return (v @ _CROSS.reshape(3, 9)).reshape(v.shape[:-1] + (3, 3))


def _spinor_matrices(spin: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of unit quaternions (..., 4):
    R = I + 2 (w K + K K) with K the cross-product matrix of (x, y, z),
    formed in place, so that a stack holds two arrays of its size."""
    norm = np.sqrt(np.sum(spin * spin, axis=-1))
    if not np.all(np.abs(norm - 1.0) <= _UNIT_TOL):
        raise NonUnitSpinor(f"spinor norm {norm} is not 1")
    k = _cross_matrices(spin[..., 1:])
    r = k @ k
    k *= spin[..., :1, None]
    r += k
    r *= 2.0
    r += np.eye(3)
    return r


def _cross_check(total: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> None:
    """Raise CrossCheckFailure unless the rotations of the spinor pairs
    alpha + beta j equal the matrix products `total`, to _CROSS_CHECK_TOL."""
    diff = _spinor_matrices(np.stack([alpha.real, alpha.imag, beta.real, beta.imag], axis=-1))
    diff -= total
    mismatch = np.abs(diff, out=diff).max(initial=0.0)
    if not mismatch <= _CROSS_CHECK_TOL:
        raise CrossCheckFailure(
            f"matrix and quaternion products disagree by {mismatch}"
        )


def _check_rotation(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.ndim < 2 or r.shape[-2:] != (3, 3):
        raise NotARotation(f"expected 3x3 matrices, got shape {r.shape}")
    # written as "not <=" so that NaN fails too
    ortho = np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)).max(initial=0.0)
    if not ortho <= _ORTHO_TOL:
        raise NotARotation("matrix is not orthogonal")
    if not np.abs(np.linalg.det(r) - 1.0).max(initial=0.0) <= _ORTHO_TOL:
        raise NotARotation("determinant is not 1")
    return r


def rotation_angle(r: np.ndarray) -> float | np.ndarray:
    """Rotation angle in [0, pi] from the trace; clamps only roundoff.
    A float for one 3x3 matrix, an array of angles for a (..., 3, 3)
    stack."""
    r = _check_rotation(r)
    c = (np.trace(r, axis1=-2, axis2=-1) - 1.0) / 2.0
    if np.any(np.abs(c) > 1.0 + _CLAMP_TOL):
        raise NotARotation(f"trace-derived cosine {c} outside [-1, 1]")
    angle = np.arccos(np.clip(c, -1.0, 1.0))
    return float(angle) if angle.ndim == 0 else angle


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
    Independent of p.  Reduces to the planar value 2*pi/M at q = 1, 2.

    Evaluated as rho = 4*asin(sqrt(x/2)) with x = 1 - cos(rho/2) formed by
    log1p/expm1 from 2*sin(pi/2M)^2 = 1 - cos(pi/M), so that no step
    cancels when rho is small (large M).  M or q too large to convert to
    a float raises ValueError."""
    if M < 3:
        raise ValueError(f"M must be at least 3, got {M}")
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    try:
        exponent = 1.0 / q if q % 2 == 1 else 2.0 / q
        x = -math.expm1(exponent * math.log1p(-2.0 * math.sin(math.pi / (2 * M)) ** 2))
    except OverflowError:
        raise ValueError("M and q must be small enough to convert to a float") from None
    return 4.0 * math.asin(math.sqrt(x / 2.0))


def _product_factors(theta: ThetaSequence) -> np.ndarray:
    """Arguments for the ordered product, leftmost factor first: the
    admissible arguments in descending index order (factor n uses index
    q-1-n and skips the indices that are not admissible), shape (F,), or
    (P, F) for a stacked table.  Copied out of the reversed view so that
    np.cos and np.sin run on contiguous data."""
    return theta.admissible_arguments()[1][..., ::-1].copy()


def _spinor_factor(cos_half: np.ndarray, sin_half: np.ndarray, c: np.ndarray,
                   s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The complex pair (alpha, beta) of the quaternions
    cos(rho/2) + sin(rho/2) (c i + s j) = alpha + beta j, for angle
    halves (P, k) and axis components (P, 1): alpha = cos(rho/2) +
    i sin(rho/2) c and the real beta = sin(rho/2) s, each (P, k)."""
    return cos_half + 1j * (sin_half * c), sin_half * s


def _ragged_layout(counts) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """How a ragged product walks rows of counts[i] factors each: `order`
    sorts the rows by descending count (stably), `unsort` is its inverse,
    and live[f] is the number of rows with more than f factors, so that
    the rows still multiplied at factor f are the first live[f] sorted
    ones."""
    counts = np.asarray(counts, dtype=np.int64)
    order = np.argsort(-counts, kind="stable")
    unsort = np.empty_like(order)
    unsort[order] = np.arange(len(order))
    live = np.count_nonzero(counts[:, None] > np.arange(counts.max(initial=0)), axis=0)
    return order, unsort, live.tolist()


def _ordered_products(blocks, rhos: np.ndarray) -> np.ndarray:
    """Ordered products (R, k, 3, 3) of rotations about the in-plane axes
    (cos a, sin a, 0), for R rows of factor arguments a given as blocks
    (a sequence of (P_i, F_i) arrays, rows in block order; F_i >= 1) and
    one row of k angles per argument row, rhos of shape (R, k).  Computed
    both as 3x3 matrices and as quaternions (_ragged_walk); the two
    routes must agree (_cross_check).

    The rows are ragged: they are sorted by factor count
    (_ragged_layout), and at factor f only the prefix of rows that still
    have an f-th factor is multiplied on.  Each row sees the same float
    operations as a kernel call over its own block alone, and the
    products come back in block order."""
    blocks = list(blocks)
    rhos = np.asarray(rhos, dtype=float)
    counts = np.repeat([block.shape[1] for block in blocks],
                       [len(block) for block in blocks]).astype(np.int64)
    if rhos.ndim != 2 or len(rhos) != len(counts):
        raise ValueError(f"need one row of angles for each of the {len(counts)} "
                         f"argument rows, got shape {rhos.shape}")
    if not np.all((rhos > 0.0) & (rhos < math.pi)):
        raise ValueError(f"rho must lie in (0, pi), got {rhos}")
    if not np.all(counts >= 1):
        raise ValueError("every argument row needs at least one factor")
    if not len(counts):
        return np.empty(rhos.shape + (3, 3))
    order, unsort, live = _ragged_layout(counts)
    args = np.zeros((len(counts), len(live)))
    start = 0
    for block in blocks:
        args[start:start + len(block), :block.shape[1]] = block
        start += len(block)
    total, alpha, beta = _ragged_walk(args[order], rhos[order], live)
    _cross_check(total, alpha, beta)
    return total[unsort]


def _ragged_walk(args: np.ndarray, rhos: np.ndarray, live: list[int]):
    """Both routes of the ordered products of sorted, zero-padded
    argument rows (R, F) at angles rhos (R, k), factor f multiplied onto
    the first live[f] rows: the matrices (R, k, 3, 3) and the spinor
    pairs (alpha, beta), each (R, k).

    The quaternion route holds each product as a complex pair,
    alpha + beta j with alpha = w + x i and beta = y + z i, and
    multiplies each factor alpha_f + beta_f j on the right
    (_spinor_product).  Only one factor's Rodrigues matrices and spinor
    pairs exist at a time, so memory grows with R*(F + k), never with
    R*F*k."""
    c, s = np.cos(args), np.sin(args)
    sin_rho = np.sin(rhos)[..., None, None]
    versin_rho = (1.0 - np.cos(rhos))[..., None, None]
    cos_half, sin_half = np.cos(0.5 * rhos), np.sin(0.5 * rhos)
    total = _rodrigues(c[:, 0], s[:, 0], sin_rho, versin_rho)
    alpha, beta = _spinor_factor(cos_half, sin_half, c[:, :1], s[:, :1])
    beta = beta.astype(complex)
    for f, n in enumerate(live[1:], start=1):
        total[:n] = total[:n] @ _rodrigues(c[:n, f], s[:n, f], sin_rho[:n], versin_rho[:n])
        alpha[:n], beta[:n] = _spinor_product(alpha[:n], beta[:n], *_spinor_factor(
            cos_half[:n], sin_half[:n], c[:n, f, None], s[:n, f, None]))
    return total, alpha, beta


def _spinor_product(alpha: np.ndarray, beta: np.ndarray, alpha_f: np.ndarray,
                    beta_f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(alpha + beta j)(alpha_f + beta_f j) for a real beta_f, as the pair
    alpha alpha_f - beta beta_f and alpha beta_f + beta conj(alpha_f)."""
    return alpha * alpha_f - beta * beta_f, alpha * beta_f + beta * alpha_f.conj()


def _rodrigues(c: np.ndarray, s: np.ndarray, sin_rho: np.ndarray,
               versin_rho: np.ndarray) -> np.ndarray:
    """Rotation matrices (n, k, 3, 3) about the axes (c, s, 0), c and s
    of shape (n,), by the angles whose sine and 1 - cosine are sin_rho
    and versin_rho (n, k, 1, 1): (I + sin(rho) K) + (1 - cos(rho)) K K,
    in that order, with K the cross-product matrix of the axis."""
    k = _cross_matrices(np.stack([c, s, np.zeros_like(c)], -1))[:, None]
    factor = sin_rho * k
    factor += np.eye(3)
    factor += versin_rho * (k @ k)
    return factor


def _detuned_angles(q: int, Ms: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The predicted angles rho for each M and the 3*len(Ms) angles rho,
    0.95*rho and 1.05*rho that one certificate product call takes."""
    rhos = np.array([inter_side_angle(M, q) for M in Ms])
    return rhos, np.concatenate([rhos, 0.95 * rhos, 1.05 * rhos])


def certificate_arrays(tables, Ms) -> CertificateArrays:
    """The theorem-2 check of every p of every table in `tables` (one-row
    tables, or stacked ones from gauss.theta_sequences; the q may differ)
    and several M, as (R, len(Ms)) arrays with one row per (p, q), in
    table order: one kernel call for all rows, all M and the three angles
    per M.

    The product must have angle exactly 2*pi/M at the predicted
    inter-side angle rho, and detuning rho by +-5% must visibly break it
    (falsification_margin is the smaller miss of the two detunings)."""
    Ms, tables = list(Ms), list(tables)
    ps = [np.atleast_1d(theta.p).tolist() for theta in tables]
    sizes = [len(row) for row in ps]
    rhos, detuned = [], []
    for theta in tables:
        rho, angles = _detuned_angles(theta.q, Ms)
        rhos.append(rho)
        detuned.append(angles)
    products = _ordered_products(
        [np.atleast_2d(_product_factors(theta)) for theta in tables],
        np.repeat(np.reshape(detuned, (len(tables), 3 * len(Ms))), sizes, axis=0),
    )
    angles = rotation_angle(products).reshape(len(products), 3, len(Ms))
    target = np.array([2.0 * math.pi / M for M in Ms])
    return CertificateArrays(
        p=tuple(p for row in ps for p in row),
        q=tuple(theta.q for theta, size in zip(tables, sizes) for _ in range(size)),
        M=tuple(Ms), rho=np.repeat(np.reshape(rhos, (len(tables), len(Ms))), sizes, axis=0),
        angle=angles[:, 0], angle_error=np.abs(angles[:, 0] - target),
        falsification_margin=np.minimum(np.abs(angles[:, 1] - target),
                                        np.abs(angles[:, 2] - target)),
        product=products[:, :len(Ms)],
    )


def certify_rotation_angle(M: int, p: int, q: int) -> RotationCertificate:
    """The certificate of one (M, p, q): the one-row, one-M call of
    certificate_arrays.  rho comes first, so that an M or q out of range
    is reported before a p that is not coprime to q."""
    rho = inter_side_angle(M, q)
    arrays = certificate_arrays([theta_sequence(p, q)], [M])
    return RotationCertificate(
        M=M, p=p, q=q, rho=rho, angle=arrays.angle.item(),
        angle_error=arrays.angle_error.item(),
        falsification_margin=arrays.falsification_margin.item(),
        product=arrays.product[0, 0],
    )


def trace_identity_eval(x: float, phis) -> TraceIdentityResult:
    """Both sides of the half-trace expansion for one case: the one-row
    call of trace_identity_evals."""
    return trace_identity_evals([x], [phis])[0]


def _half_traces(xs: list, z_rows: list) -> list[float]:
    """Half the real trace of prod_n [[x, i conj(z_n)], [i z_n, x]] for
    each case (x, z) of xs and z_rows: one stacked (R, 2, 2) product from
    the identity, rows sorted by length (_ragged_layout), each factor
    multiplied onto the prefix of rows that still have one.  Each case
    sees the same float operations as its own 2x2 product."""
    order, unsort, live = _ragged_layout(list(map(len, z_rows)))
    pad = [[0j, 0j], [0j, 0j]]
    factors = np.array([
        [[[xs[i], 1j * z.conjugate()], [1j * z, xs[i]]] for z in z_rows[i]]
        + [pad] * (len(live) - len(z_rows[i]))
        for i in order.tolist()
    ], dtype=complex).reshape(len(z_rows), len(live), 2, 2)
    total = np.broadcast_to(np.eye(2, dtype=complex), (len(z_rows), 2, 2)).copy()
    for f, n in enumerate(live):
        total[:n] = total[:n] @ factors[:n, f]
    return (0.5 * np.trace(total, axis1=-2, axis2=-1).real)[unsort].tolist()


def trace_identity_evals(xs, phi_rows) -> list[TraceIdentityResult]:
    """Both sides of the half-trace expansion of the ordered product
    prod_n (x I + i v_n . sigma) with in-plane unit vectors v_n, for
    each case (x, phis) of xs and phi_rows (rows may differ in length).

    lhs: direct 2x2 complex multiplication, stacked over the cases
    (_half_traces).  rhs: the cosine expansion sum_k (-1)^k x^(N-2k)
    sum cos(phi_{n1} - phi_{n2} + ...), whose k-th coefficient carries
    the sign (-1)^k from i^(2k); the k = 0 inner sum is 1 by the
    empty-product convention.  Each inner sum is Re S_2k of
    z_n = exp(i phi_n), and the S of every case come from one
    arith.alternating_products call over the rows front-padded with
    zeros, which leaves each row's values as they are.
    """
    xs, phi_rows = list(xs), [list(phis) for phis in phi_rows]
    if len(xs) != len(phi_rows):
        raise ValueError(f"{len(xs)} values of x for {len(phi_rows)} rows of angles")
    if any(not phis for phis in phi_rows):
        raise ValueError("need at least one angle")
    z_rows = [[complex(math.cos(phi), math.sin(phi)) for phi in phis] for phis in phi_rows]
    width = max(map(len, z_rows), default=0)
    padded = [[0j] * (width - len(z)) + z for z in z_rows]
    coeff_rows = alternating_products(np.array(padded, dtype=complex).reshape(len(padded), width),
                                      width).real.tolist()
    return [
        TraceIdentityResult(lhs=lhs, rhs=math.fsum(
            (-1.0) ** k * x ** (len(z) - 2 * k) * coeffs[2 * k]
            for k in range(len(z) // 2 + 1)
        ))
        for x, z, coeffs, lhs in zip(xs, z_rows, coeff_rows, _half_traces(xs, z_rows))
    ]
