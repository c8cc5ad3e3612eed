"""The ordered corner-rotation product, computed as a unit-quaternion
spinor under the double cover; its rotation angle and axis; and the
inter-side angle formula.

Conventions, fixed once: quaternions are scalar-first (w, x, y, z),
right-handed, acting on vectors by v -> s v s^-1, so the quaternion
product composes in the same left-to-right order as the matrix product.
The product kernel holds a quaternion as the complex pair (alpha, beta)
with s = alpha + beta j, alpha = w + x i and beta = y + z i (the
Cayley-Dickson form), which is the SU(2) matrix
[[alpha, beta], [-conj(beta), conj(alpha)]].  The rotation angle is read
from the half angle, 2*atan2(|(x, y, z)|, |w|), which keeps full
relative precision at small angles and needs no clamp at pi.

The factors are a table's admissible arguments (their one owner is
ThetaSequence.admissible_arguments) in descending index order, as
factor_block, the one owner of that order, puts them in a table's factor
block (p, q, args).  The theorem-2 kernel, _ordered_products, multiplies
spinor pairs (_spinor_product) over ragged rows, per range, not per q:
it takes the args of many blocks (P_i rows of F_i factor arguments
each, F_i differing from q to q) and one row of k angles per row, and
returns the (R, k) spinor pairs of all R rows.  _ragged_layout sorts the
rows by factor count, so that at factor f the rows that still have an
f-th factor are a prefix, and only that prefix is multiplied on; each
row sees the same float operations as a walk over its own row alone.
Each factor's pairs are formed inside the loop, so memory grows with
R*(F + k), never with R*F*k.  Every final pair must have unit norm, or
it raises NonUnitSpinor.

The theorem-2 check has one owner, certificate_arrays.  It takes a
sequence of factor blocks, one per q, and reads no table; it makes one
kernel call for every (p, q) in them, every M and the three angles rho,
(1 - DETUNING)*rho and (1 + DETUNING)*rho, and returns the angle errors
and falsification margins as (R, k) arrays (CertificateArrays), which
the verify suite reads.  certify_rotation_angle, behind the rotation
command, is its one-block (P = 1), one-M call, returned as a
RotationCertificate with the rotation matrix of the product's one
spinor, in closed form (_spinor_matrix), and its axis.

The Lemma 3 half-trace identity is checked over every case at once:
trace_identity_evals lays the z_n = e^(i phi_n) of all cases out once,
as rows front-padded with zeros, and reads both sides from that array.
The expansion coefficients come from one alternating-sum kernel call
(arith.alternating_products); the direct products come from one walk
over the padded columns, each factor [[x, i conj(z)], [i z, x]] being
the pair alpha_f = x, beta_f = i conj(z) and each pad the identity.
trace_identity_eval is its one-case call.  The matrix routes these
replaced are the oracles in tests/.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import admissible_count, alternating_products
from .errors import NonUnitSpinor
from .gauss import ThetaSequence, theta_sequence

__all__ = [
    "DETUNING",
    "RotationCertificate",
    "CertificateArrays",
    "TraceIdentityResult",
    "inter_side_angle",
    "certify_rotation_angle",
    "certificate_arrays",
    "factor_block",
    "trace_identity_eval",
    "trace_identity_evals",
]

# the relative detuning of rho in theorem 2's sharpness probe: the
# product at (1 -+ DETUNING)*rho must miss 2*pi/M
DETUNING = 0.05

_UNIT_TOL = 1e-9
# below this angle the rotation command reports no axis
_AXIS_MIN_ANGLE = 1e-6


@dataclass(frozen=True)
class RotationCertificate:
    """Angle agreement of the corner-rotation product at the predicted
    inter-side angle, plus how far detuning rho by +-DETUNING drifts it
    off target.  `product` is the rotation matrix at rho itself and
    `axis` its unit axis, None below an angle of 1e-6."""

    M: int
    p: int
    q: int
    rho: float
    angle: float
    angle_error: float
    falsification_margin: float
    product: np.ndarray = field(compare=False)
    axis: tuple[float, float, float] | None


@dataclass(frozen=True, eq=False)
class CertificateArrays:
    """The fields of RotationCertificate for R rows (p, q) and every M,
    as arrays: `angle`, `angle_error` and `falsification_margin` (R, k),
    and the complex spinor pair `alpha`, `beta` (R, k) of the product at
    rho.  `p`, `q` (one each per row) and `M` are tuples of ints, so that
    no M is too large for an int64.  Entry [i, j] is the certificate of
    (M[j], p[i], q[i]).  Compared by identity (eq=False), since arrays
    have no single-bool ==."""

    p: tuple[int, ...]
    q: tuple[int, ...]
    M: tuple[int, ...]
    angle: np.ndarray
    angle_error: np.ndarray
    falsification_margin: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray


@dataclass(frozen=True)
class TraceIdentityResult:
    lhs: float
    rhs: float


def _spinor_matrix(spin) -> np.ndarray:
    """The rotation matrix of the unit quaternion spin = (w, x, y, z):
    R = I + 2 (w K + K K) with K the cross-product matrix of (x, y, z).
    The norm is not checked here: the product kernel has checked it."""
    w, x, y, z = spin
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + 2.0 * (w * k + k @ k)


def inter_side_angle(M: int, q: int) -> float:
    """The angle rho between adjacent sides of the time t_{p/q} polygon:
    cos(rho/2) = cos(pi/M)^(1/N), with N = arith.admissible_count(q) (q
    for odd q, q/2 for even q).  Independent of p.  Reduces to the planar
    value 2*pi/M at q = 1, 2.

    Evaluated as rho = 4*asin(sqrt(x/2)) with x = 1 - cos(rho/2) formed by
    log1p/expm1 from 2*sin(pi/2M)^2 = 1 - cos(pi/M), so that no step
    cancels when rho is small (large M).  M or q too large to convert to
    a float raises ValueError, as do M < 3 and q < 1."""
    if M < 3:
        raise ValueError(f"M must be at least 3, got {M}")
    try:
        exponent = 1.0 / admissible_count(q)
        x = -math.expm1(exponent * math.log1p(-2.0 * math.sin(math.pi / (2 * M)) ** 2))
    except OverflowError:
        raise ValueError("M and q must be small enough to convert to a float") from None
    return 4.0 * math.asin(math.sqrt(x / 2.0))


def factor_block(theta: ThetaSequence) -> tuple[tuple[int, ...], int, np.ndarray]:
    """The (p, q, args) factor block of a table, all theorem 2 reads: args
    (P, F) is the admissible arguments in descending index order,
    leftmost factor first (the inadmissible indices are skipped), a
    reversed view of the ones the table keeps, not of its (P, q) arrays."""
    return theta.p, theta.q, theta.admissible_arguments()[1][:, ::-1]


def _spinor_factor(cos_half: np.ndarray, sin_half: np.ndarray, c: np.ndarray,
                   s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The complex pair (alpha, beta) of the quaternions
    cos(rho/2) + sin(rho/2) (c i + s j) = alpha + beta j, for angle
    halves (P, k) and axis components (P, 1): alpha = cos(rho/2) +
    i sin(rho/2) c and the real beta = sin(rho/2) s, each (P, k)."""
    return cos_half + 1j * (sin_half * c), sin_half * s


def _spinor_product(alpha: np.ndarray, beta: np.ndarray, alpha_f: np.ndarray,
                    beta_f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(alpha + beta j)(alpha_f + beta_f j) as the pair
    alpha alpha_f - beta conj(beta_f) and alpha beta_f + beta conj(alpha_f).

    The conjugates are named, not temporaries: numpy computes `a * tmp`
    as `tmp * a` in place when `tmp` is a large temporary, and its fused
    complex multiply is not commutative in the last bit, so a row's
    product would depend on how many rows share the call."""
    conj_alpha_f, conj_beta_f = alpha_f.conj(), beta_f.conj()
    return alpha * alpha_f - beta * conj_beta_f, alpha * beta_f + beta * conj_alpha_f


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


def _ordered_products(blocks, rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered products of rotations about the in-plane axes
    (cos a, sin a, 0), as spinor pairs (alpha, beta), each (R, k), for R
    rows of factor arguments a given as blocks (the (P_i, F_i) args of
    factor blocks, rows in block order; F_i >= 1) and one row of k angles
    per argument row, rhos of shape (R, k).

    The rows are ragged: they are placed in the order of _ragged_layout,
    factor-major, and at factor f only the first live[f] of them are
    multiplied on, with that factor's cosines and sines taken inside the
    loop.  Each row sees the same float operations as a walk over its
    own row alone, and the products come back in block order.  A final
    pair off the unit sphere by more than _UNIT_TOL (or NaN) raises
    NonUnitSpinor."""
    blocks = list(blocks)
    rhos = np.asarray(rhos, dtype=float)
    counts = np.repeat([block.shape[1] for block in blocks],
                       [len(block) for block in blocks]).astype(np.int64)
    if not np.all((rhos > 0.0) & (rhos < math.pi)):
        raise ValueError(f"rho must lie in (0, pi), got {rhos}")
    order, unsort, live = _ragged_layout(counts)
    args = np.zeros((len(live), len(counts)))  # args[f, i]: factor f of sorted row i
    start = 0
    for block in blocks:
        args[:block.shape[1], unsort[start:start + len(block)]] = block.T
        start += len(block)
    rhos = rhos[order]
    cos_half, sin_half = np.cos(0.5 * rhos), np.sin(0.5 * rhos)
    alpha, beta = np.empty(rhos.shape, dtype=complex), np.empty(rhos.shape, dtype=complex)
    for f, n in enumerate(live):
        column = args[f, :n, None]
        alpha_f, beta_f = _spinor_factor(cos_half[:n], sin_half[:n], np.cos(column),
                                         np.sin(column))
        if f:
            alpha_f, beta_f = _spinor_product(alpha[:n], beta[:n], alpha_f, beta_f)
        alpha[:n], beta[:n] = alpha_f, beta_f
    deviation = np.abs(alpha.real ** 2 + alpha.imag ** 2 + beta.real ** 2 + beta.imag ** 2
                       - 1.0).max(initial=0.0)
    # written as "not <=" so that NaN fails too
    if not deviation <= _UNIT_TOL:
        raise NonUnitSpinor(f"spinor norms deviate from 1 by {deviation}")
    return alpha[unsort], beta[unsort]


def _half_angle(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Rotation angles in [0, pi] of the unit spinors alpha + beta j:
    2*atan2(|vector part|, |scalar part|), exact to a few ulps at any
    angle, where an arccos of the trace loses relative accuracy as the
    angle shrinks."""
    return 2.0 * np.arctan2(np.hypot(alpha.imag, np.abs(beta)), np.abs(alpha.real))


def _detuned_angles(q: int, Ms: list[int]) -> np.ndarray:
    """The predicted rho of each M, then (1 - DETUNING)*rho, then
    (1 + DETUNING)*rho: 3*len(Ms) angles."""
    rhos = np.array([inter_side_angle(M, q) for M in Ms])
    return np.concatenate([rhos, (1.0 - DETUNING) * rhos, (1.0 + DETUNING) * rhos])


def certificate_arrays(blocks, Ms) -> CertificateArrays:
    """The theorem-2 check of every p of every factor block in `blocks`
    (factor_block; the q may differ) and several M, as (R, len(Ms))
    arrays with one row per (p, q), in block order: one kernel call for
    all rows, all M and the three angles per M.

    The product must have angle exactly 2*pi/M at the predicted
    inter-side angle rho, and detuning rho by +-DETUNING must visibly
    break it (falsification_margin is the smaller miss of the two
    detunings)."""
    Ms, blocks = list(Ms), list(blocks)
    detuned = np.reshape([_detuned_angles(q, Ms) for _, q, _ in blocks],
                         (len(blocks), 3 * len(Ms)))
    sizes = [len(ps) for ps, _, _ in blocks]
    alpha, beta = _ordered_products([args for _, _, args in blocks],
                                    np.repeat(detuned, sizes, axis=0))
    angles = _half_angle(alpha, beta).reshape(len(alpha), 3, len(Ms))
    target = np.array([2.0 * math.pi / M for M in Ms])
    return CertificateArrays(
        p=tuple(p for ps, _, _ in blocks for p in ps),
        q=tuple(q for ps, q, _ in blocks for _ in ps),
        M=tuple(Ms), angle=angles[:, 0], angle_error=np.abs(angles[:, 0] - target),
        falsification_margin=np.minimum(np.abs(angles[:, 1] - target),
                                        np.abs(angles[:, 2] - target)),
        alpha=alpha[:, :len(Ms)], beta=beta[:, :len(Ms)],
    )


def certify_rotation_angle(M: int, p: int, q: int) -> RotationCertificate:
    """The certificate of one (M, p, q): the one-row, one-M call of
    certificate_arrays, with the rotation matrix of the product's spinor
    and its axis, the vector part turned to the side of a positive
    scalar part and normalised.  rho comes first, so that an M or q out
    of range is reported before a p that is not coprime to q."""
    rho = inter_side_angle(M, q)
    arrays = certificate_arrays([factor_block(theta_sequence(p, q))], [M])
    alpha, beta = arrays.alpha.item(), arrays.beta.item()
    spin = (alpha.real, alpha.imag, beta.real, beta.imag)
    angle = arrays.angle.item()
    axis = None
    if angle >= _AXIS_MIN_ANGLE:
        vector = math.copysign(1.0, alpha.real) * np.array(spin[1:])
        axis = tuple((vector / np.linalg.norm(vector)).tolist())
    return RotationCertificate(
        M=M, p=p, q=q, rho=rho, angle=angle,
        angle_error=arrays.angle_error.item(),
        falsification_margin=arrays.falsification_margin.item(),
        product=_spinor_matrix(spin), axis=axis,
    )


def trace_identity_eval(x: float, phis) -> TraceIdentityResult:
    """Both sides of the half-trace expansion for one case: the one-row
    call of trace_identity_evals."""
    return trace_identity_evals([x], [phis])[0]


def _half_traces(xs: list, z: np.ndarray) -> list[float]:
    """Half the real trace of prod_n [[x, i conj(z_n)], [i z_n, x]] for
    each case x of xs and row of z, the (R, W) rows front-padded with 0.
    Each factor is the pair alpha_f = x, beta_f = i conj(z_n), and each
    pad the identity (1, 0); every row starts at the identity, so a row
    sees the same float operations as its own walk, and the half-trace
    is Re alpha."""
    alpha_f = np.where(z == 0, 1.0, np.asarray(xs, dtype=float)[:, None])
    beta_f = 1j * z.conj()
    alpha, beta = np.ones(len(z), dtype=complex), np.zeros(len(z), dtype=complex)
    for f in range(z.shape[1]):
        alpha, beta = _spinor_product(alpha, beta, alpha_f[:, f], beta_f[:, f])
    return alpha.real.tolist()


def trace_identity_evals(xs, phi_rows) -> list[TraceIdentityResult]:
    """Both sides of the half-trace expansion of the ordered product
    prod_n (x I + i v_n . sigma) with in-plane unit vectors v_n, for
    each case (x, phis) of xs and phi_rows (rows may differ in length).

    Both sides read one array, the z_n = exp(i phi_n) of every case as
    rows front-padded with zeros.  lhs: the direct product, as spinor
    pairs walked over those rows (_half_traces).  rhs: the cosine
    expansion sum_k (-1)^k x^(N-2k) sum cos(phi_{n1} - phi_{n2} + ...),
    whose k-th coefficient carries the sign (-1)^k from i^(2k); the
    k = 0 inner sum is 1 by the empty-product convention.  Each inner
    sum is Re S_2k, and the S of every case come from one
    arith.alternating_products call, whose zero pads leave each row's
    values as they are.
    """
    xs, phi_rows = list(xs), [list(phis) for phis in phi_rows]
    if len(xs) != len(phi_rows):
        raise ValueError(f"{len(xs)} values of x for {len(phi_rows)} rows of angles")
    if any(not phis for phis in phi_rows):
        raise ValueError("need at least one angle")
    z_rows = [[complex(math.cos(phi), math.sin(phi)) for phi in phis] for phis in phi_rows]
    width = max(map(len, z_rows), default=0)
    padded = np.array([[0j] * (width - len(z)) + z for z in z_rows],
                      dtype=complex).reshape(len(z_rows), width)
    coeff_rows = alternating_products(padded, width).real.tolist()
    return [
        TraceIdentityResult(lhs=lhs, rhs=math.fsum(
            (-1.0) ** k * x ** (len(z) - 2 * k) * coeffs[2 * k]
            for k in range(len(z) // 2 + 1)
        ))
        for x, z, coeffs, lhs in zip(xs, z_rows, coeff_rows, _half_traces(xs, padded))
    ]
