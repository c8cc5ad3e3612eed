"""Exact integer, modular, and combinatorial primitives.

Everything here is pure and deterministic.  All arithmetic uses Python
integers, which are exact at any size, except admissible_mask, whose
int64 indices stay below 2q, and alternating_products, which sums
complex floats in a fixed order: an array kernel over many rows, with
its even orders stored conjugated so that every order takes the same
step, that rounds every step as the scalar Python recurrence does, bit
for bit.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

import numpy as np
# the kernel loop calls its ufuncs through module globals, outputs by
# position, as vfe does
from numpy import add, multiply, subtract

from .errors import ComponentCollision, NotCoprime, OddLength

__all__ = [
    "mod_inverse",
    "admissible_mask",
    "admissible_count",
    "enumerate_index_vectors",
    "cyclic_shift",
    "alternating_sum",
    "alternating_square_sum",
    "alternating_products",
]


def mod_inverse(a: int, q: int) -> int:
    """Inverse of a modulo q, in [0, q).  Raises NotCoprime otherwise."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    try:
        return pow(a, -1, q)
    except ValueError as exc:
        raise NotCoprime(f"{a} is not invertible modulo {q}") from exc


def admissible_mask(q: int) -> np.ndarray:
    """Boolean array over n = 0..q-1, True where 4 does not divide
    2n + 2 - q (everywhere for odd q).

    These are exactly the indices whose generalized Gauss sum does not
    vanish, hence the indices with a well-defined argument.
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    n = np.arange(q, dtype=np.int64)
    return (2 * n + 2 - q) % 4 != 0


def admissible_count(q: int) -> int:
    """The number of True entries of admissible_mask(q), without the
    q-long array: q for odd q, q/2 for even q (one n of each pair n,
    n + 1 gives 2n + 2 - q = 2 mod 4)."""
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    return q if q % 2 == 1 else q // 2


def enumerate_index_vectors(k: int, N: int) -> Iterator[tuple[int, ...]]:
    """Yield all strictly increasing k-tuples over [0, N), lexicographically.

    k = 0 yields exactly one empty tuple.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return combinations(range(N), k)


def cyclic_shift(v: Sequence[int], h: int, N: int) -> tuple[int, ...]:
    """Shift every component by h modulo N and re-sort.

    Sorting realizes the circular permutation that brings the reduced
    vector back to strictly increasing form.  The map is a bijection on
    the strictly increasing tuples over [0, N), inverted by -h.
    """
    if any(not 0 <= c < N for c in v):
        raise ValueError(f"components outside [0, {N}): {tuple(v)}")
    shifted = sorted((c + h) % N for c in v)
    if any(a == b for a, b in zip(shifted, shifted[1:])):
        raise ComponentCollision(f"components collide modulo {N}: {tuple(v)} + {h}")
    return tuple(shifted)


def alternating_sum(v: Sequence[int]) -> int:
    """Signed sum -v1 + v2 - v3 + ... + v_{2k} of an even-length vector.

    For strictly increasing input this equals the positive quantity
    (v2-v1) + (v4-v3) + ... and is strictly less than the range bound.
    """
    if len(v) == 0 or len(v) % 2:
        raise OddLength(f"need an even, positive length, got {len(v)}")
    return sum(c if j % 2 else -c for j, c in enumerate(v))


def alternating_square_sum(v: Sequence[int]) -> int:
    """Signed square sum v1^2 - v2^2 + ... - v_{2k}^2 of an even-length vector."""
    if len(v) == 0 or len(v) % 2:
        raise OddLength(f"need an even, positive length, got {len(v)}")
    return sum(-c * c if j % 2 else c * c for j, c in enumerate(v))


def alternating_products(z, m_max: int) -> np.ndarray:
    """Alternating elementary sums S_0, ..., S_{m_max} of each row of the
    complex (R, N) array z, as a complex (R, m_max + 1) array:

        S_m = sum over n1 < ... < nm of z_{n1} conj(z_{n2}) z_{n3} ...,

    with S_0 = 1.  Each z_n in turn becomes the newest, m-th factor of
    every (m-1)-tuple before it, conjugated when m is even, so the cost
    is O(N * m_max) instead of the C(N, m) tuples.  These are the
    coefficients of the half-trace of prod_n (x I + i v_n . sigma).

    The kernel holds S_m for odd m and conj(S_m) for even m, real and
    imaginary parts as one order-major float (m_max + 1, 2, R) array.
    Every order then takes the same step, s_m += conj(s_{m-1}) * z_n,
    written out as (sr*wr + si*wi, sr*wi + si*(-wr)): the terms of
    CPython's complex multiply up to exact sign flips, so each row
    equals the scalar recurrence over Python complex numbers bit for bit
    (numpy's complex multiply may fuse a multiply-add, and then it does
    not).  One loop runs over the N indices, three numpy calls each over
    all rows and orders at once: a multiply by the index's weights
    [[wr, wi], [wi, -wr]], an add of the two product halves and an add
    into the orders above.  The even orders' imaginary parts are negated
    once at the end, as 0.0 - x, which leaves the +0.0 of an exact
    cancellation as the scalar recurrence does (-x would give -0.0).
    Working memory is O(R * (N + m_max)): the weights of every index,
    built once, and one step's products, never an (N, R, m_max) stack.

    A zero entry leaves S = [1, 0, ..., 0] exactly as it is, so rows of
    different lengths are passed front-padded with 0; each row then
    gives the sums of its own entries."""
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2:
        raise ValueError(f"z must be a 2-d array of rows, got shape {z.shape}")
    rows, length = z.shape
    s = np.zeros((m_max + 1, 2, rows))
    s[0, 0] = 1.0
    # index n as the symmetric real 2x2 matrix [[wr, wi], [wi, -wr]] of
    # each row, index-major so that each step reads one contiguous block
    weights = np.empty((length, 2, 2, rows))
    weights[:, 0, 0] = z.real.T
    weights[:, 0, 1] = weights[:, 1, 0] = z.imag.T
    weights[:, 1, 1] = -z.real.T
    # products[m, j, i] = s[m, j] * weight[j, i]: (sr*wr, sr*wi) and (si*wi, si*-wr)
    products = np.empty((m_max, 2, 2, rows))
    step = np.empty((m_max, 2, rows))
    lower, upper = s[:-1, :, None], s[1:]
    from_real, from_imag = products[:, 0], products[:, 1]
    for weight in weights:
        multiply(lower, weight, products)
        add(from_real, from_imag, step)
        add(upper, step, upper)
    conjugated = s[2::2, 1]
    subtract(0.0, conjugated, conjugated)
    out = np.empty((rows, m_max + 1), dtype=complex)
    out.real, out.imag = s.transpose(1, 2, 0)
    return out
