"""Exact integer, modular, and combinatorial primitives.

Everything here is pure and deterministic.  All arithmetic uses Python
integers, which are exact at any size, except admissible_mask, whose
int64 indices stay below 2q, and alternating_products, which sums
complex floats in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .errors import ComponentCollision, NotCoprime, OddLength

__all__ = [
    "ParityInfo",
    "mod_inverse",
    "parity_info",
    "admissible_mask",
    "enumerate_index_vectors",
    "cyclic_shift",
    "alternating_sum",
    "alternating_square_sum",
    "alternating_products",
]


@dataclass(frozen=True)
class ParityInfo:
    """Parity bookkeeping for a modulus q.

    delta is the parity of q.  For even q, epsilon is the parity of q/2,
    which is also the common parity of every admissible index n (for odd
    q it is None).
    """

    delta: int
    epsilon: int | None


def mod_inverse(a: int, q: int) -> int:
    """Inverse of a modulo q, in [0, q).  Raises NotCoprime otherwise."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    try:
        return pow(a, -1, q)
    except ValueError as exc:
        raise NotCoprime(f"{a} is not invertible modulo {q}") from exc


def parity_info(q: int) -> ParityInfo:
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    if q % 2 == 1:
        return ParityInfo(delta=1, epsilon=None)
    return ParityInfo(delta=0, epsilon=(q // 2) % 2)


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


def alternating_products(z: Sequence[complex], m_max: int) -> list[complex]:
    """Alternating elementary sums S_0, ..., S_{m_max} of the sequence z,

        S_m = sum over n1 < ... < nm of z_{n1} conj(z_{n2}) z_{n3} ...,

    with S_0 = 1.  Each z_n in turn becomes the newest, m-th factor of
    every (m-1)-tuple before it, conjugated when m is even, so the cost
    is O(len(z) * m_max) instead of the C(len(z), m) tuples.  These are
    the coefficients of the half-trace of prod_n (x I + i v_n . sigma).
    """
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    s = [1.0 + 0.0j] + [0.0j] * m_max
    for w in z:
        w_conj = w.conjugate()
        for m in range(m_max, 0, -1):
            s[m] += s[m - 1] * (w if m % 2 else w_conj)
    return s
