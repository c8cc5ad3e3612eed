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

The factors are the table's admissible arguments, as returned by their
one owner ThetaSequence.admissible_arguments, in descending index order.
One walk, _ragged_walk, multiplies spinor pairs (_spinor_product) over
ragged rows: the rows are sorted by factor count, so that at factor f
the rows that still have an f-th factor are a prefix, and only that
prefix is multiplied on; each row sees the same float operations as a
walk over its own row alone.  Each factor's pairs are formed inside the
loop, so memory grows with R*(F + k), never with R*F*k.  The theorem-2
kernel, _ordered_products, runs it per range, not per q: it takes the
argument blocks of many tables (P_i rows of F_i factor arguments each,
F_i differing from q to q) and one row of k angles per argument row, and
returns the (R, k) spinor pairs of all R rows.  Every final pair must
have unit norm, or it raises NonUnitSpinor.

The theorem-2 check has one owner, certificate_arrays.  It takes a
sequence of tables (gauss.theta_sequences, one (P, q) table per q),
makes one kernel call for every (p, q) in them, every M and the three
angles rho, 0.95*rho and 1.05*rho, and returns the angle errors and
falsification margins as (R, k) arrays (CertificateArrays), which the
verify suite reads.  certify_rotation_angle, behind the rotation
command, is its P = 1, one-M call, returned as a RotationCertificate
with the product's rotation matrix and axis.

The Lemma 3 half-trace identity is checked the same way:
trace_identity_evals takes every case at once, reads the expansion
coefficients of all of them from one alternating-sum kernel call
(arith.alternating_products, rows front-padded with zeros), and forms
the direct products of all of them by the same walk, each factor
[[x, i conj(z)], [i z, x]] being the pair alpha_f = x,
beta_f = i conj(z); trace_identity_eval is its one-case call.  The
matrix routes these replaced are the oracles in tests/.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import alternating_products
from .errors import NonUnitSpinor
from .gauss import ThetaSequence, theta_sequence

__all__ = [
    "RotationCertificate",
    "CertificateArrays",
    "TraceIdentityResult",
    "inter_side_angle",
    "certify_rotation_angle",
    "certificate_arrays",
    "trace_identity_eval",
    "trace_identity_evals",
]

_UNIT_TOL = 1e-9
# below this angle the rotation command reports no axis
_AXIS_MIN_ANGLE = 1e-6

# _CROSS[i] is the cross-product matrix of the i-th axis, so that
# v @ _CROSS.reshape(3, 9) lists the entries of [v]_x (see _cross_matrices)
_CROSS = np.array([
    [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
    [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
    [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
])


@dataclass(frozen=True)
class RotationCertificate:
    """Angle agreement of the corner-rotation product at the predicted
    inter-side angle, plus how far a +-5% detuning drifts off target.
    `product` is the rotation matrix at rho itself and `axis` its unit
    axis, None below an angle of 1e-6."""

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
    as arrays: `rho`, `angle`, `angle_error` and `falsification_margin`
    (R, k), and the complex spinor pair `alpha`, `beta` (R, k) of the
    product at rho.  `p`, `q` (one each per row) and `M` are tuples of
    ints, so that no M is too large for an int64.  Entry
    [i, j] is the certificate of (M[j], p[i], q[i]).  Compared by
    identity (eq=False), since arrays have no single-bool ==."""

    p: tuple[int, ...]
    q: tuple[int, ...]
    M: tuple[int, ...]
    rho: np.ndarray
    angle: np.ndarray
    angle_error: np.ndarray
    falsification_margin: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray


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
    q-1-n and skips the indices that are not admissible), shape (P, F)."""
    return theta.admissible_arguments()[1][:, ::-1]


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


def _ragged_walk(factor, live: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The ordered products alpha + beta j of sorted ragged rows, each
    factor multiplied on the right (_spinor_product): factor(f, n) gives
    the pairs (alpha_f, beta_f) of factor f for the first n = live[f]
    rows, the rows that still have an f-th factor (live[0] is every
    row).  Only one factor's pairs exist at a time."""
    alpha, beta = (part.astype(complex) for part in factor(0, live[0]))
    for f, n in enumerate(live[1:], start=1):
        alpha[:n], beta[:n] = _spinor_product(alpha[:n], beta[:n], *factor(f, n))
    return alpha, beta


def _ordered_products(blocks, rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered products of rotations about the in-plane axes
    (cos a, sin a, 0), as spinor pairs (alpha, beta), each (R, k), for R
    rows of factor arguments a given as blocks (a sequence of (P_i, F_i)
    arrays, rows in block order; F_i >= 1) and one row of k angles per
    argument row, rhos of shape (R, k).

    The rows are ragged: they are placed in the order of _ragged_layout,
    factor-major, and walked by _ragged_walk, with each factor's cosines
    and sines taken inside the loop.  Each row sees the same float
    operations as a walk over its own row alone, and the products come
    back in block order.  A final pair off the unit sphere by more than
    _UNIT_TOL (or NaN) raises NonUnitSpinor."""
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
        return np.empty(rhos.shape, dtype=complex), np.empty(rhos.shape, dtype=complex)
    order, unsort, live = _ragged_layout(counts)
    args = np.zeros((len(live), len(counts)))  # args[f, i]: factor f of sorted row i
    start = 0
    for block in blocks:
        args[:block.shape[1], unsort[start:start + len(block)]] = block.T
        start += len(block)
    rhos = rhos[order]
    cos_half, sin_half = np.cos(0.5 * rhos), np.sin(0.5 * rhos)

    def factor(f, n):
        column = args[f, :n, None]
        return _spinor_factor(cos_half[:n], sin_half[:n], np.cos(column), np.sin(column))

    alpha, beta = _ragged_walk(factor, live)
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


def _detuned_angles(q: int, Ms: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The predicted angles rho for each M and the 3*len(Ms) angles rho,
    0.95*rho and 1.05*rho that one certificate product call takes."""
    rhos = np.array([inter_side_angle(M, q) for M in Ms])
    return rhos, np.concatenate([rhos, 0.95 * rhos, 1.05 * rhos])


def certificate_arrays(tables, Ms) -> CertificateArrays:
    """The theorem-2 check of every p of every table in `tables`
    (gauss.theta_sequences; the q may differ) and several M, as
    (R, len(Ms)) arrays with one row per (p, q), in table order: one
    kernel call for all rows, all M and the three angles per M.

    The product must have angle exactly 2*pi/M at the predicted
    inter-side angle rho, and detuning rho by +-5% must visibly break it
    (falsification_margin is the smaller miss of the two detunings)."""
    Ms, tables = list(Ms), list(tables)
    sizes = [len(theta.p) for theta in tables]
    rhos, detuned = [], []
    for theta in tables:
        rho, angles = _detuned_angles(theta.q, Ms)
        rhos.append(rho)
        detuned.append(angles)
    alpha, beta = _ordered_products(
        [_product_factors(theta) for theta in tables],
        np.repeat(np.reshape(detuned, (len(tables), 3 * len(Ms))), sizes, axis=0),
    )
    angles = _half_angle(alpha, beta).reshape(len(alpha), 3, len(Ms))
    target = np.array([2.0 * math.pi / M for M in Ms])
    return CertificateArrays(
        p=tuple(p for theta in tables for p in theta.p),
        q=tuple(theta.q for theta in tables for _ in theta.p),
        M=tuple(Ms), rho=np.repeat(np.reshape(rhos, (len(tables), len(Ms))), sizes, axis=0),
        angle=angles[:, 0], angle_error=np.abs(angles[:, 0] - target),
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
    arrays = certificate_arrays([theta_sequence(p, q)], [M])
    alpha, beta = arrays.alpha.item(), arrays.beta.item()
    spin = np.array([alpha.real, alpha.imag, beta.real, beta.imag])
    angle = arrays.angle.item()
    axis = None
    if angle >= _AXIS_MIN_ANGLE:
        vector = math.copysign(1.0, alpha.real) * spin[1:]
        axis = tuple((vector / np.linalg.norm(vector)).tolist())
    return RotationCertificate(
        M=M, p=p, q=q, rho=rho, angle=angle,
        angle_error=arrays.angle_error.item(),
        falsification_margin=arrays.falsification_margin.item(),
        product=_spinor_matrices(spin), axis=axis,
    )


def trace_identity_eval(x: float, phis) -> TraceIdentityResult:
    """Both sides of the half-trace expansion for one case: the one-row
    call of trace_identity_evals."""
    return trace_identity_evals([x], [phis])[0]


def _half_traces(xs: list, z_rows: list) -> list[float]:
    """Half the real trace of prod_n [[x, i conj(z_n)], [i z_n, x]] for
    each case (x, z) of xs and z_rows.  Each factor is the pair
    alpha_f = x, beta_f = i conj(z_n), so the product is one ragged walk
    (_ragged_walk, rows sorted by length) and the half-trace is Re alpha.
    Each case sees the same float operations as its own walk."""
    if not z_rows:
        return []
    order, unsort, live = _ragged_layout(list(map(len, z_rows)))
    z = np.zeros((len(live), len(z_rows)), dtype=complex)  # z[f, i]: factor f of sorted row i
    for i, row in enumerate(order.tolist()):
        z[:len(z_rows[row]), i] = z_rows[row]
    beta_f = 1j * z.conj()
    x = np.asarray(xs, dtype=float)[order]
    alpha, _ = _ragged_walk(lambda f, n: (x[:n], beta_f[f, :n]), live)
    return alpha.real[unsort].tolist()


def trace_identity_evals(xs, phi_rows) -> list[TraceIdentityResult]:
    """Both sides of the half-trace expansion of the ordered product
    prod_n (x I + i v_n . sigma) with in-plane unit vectors v_n, for
    each case (x, phis) of xs and phi_rows (rows may differ in length).

    lhs: the direct product, as spinor pairs walked over all the cases
    at once (_half_traces).  rhs: the cosine expansion sum_k (-1)^k x^(N-2k)
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
