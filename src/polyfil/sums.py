"""Alternating cosine sums over Gauss-sum arguments, the matching
quadratic exponential sums, and the identity checks between them.

For 0 < 2k <= q the cosine sum runs over all strictly increasing
2k-tuples of admissible indices,

    T_k = sum cos(theta_{n1} - theta_{n2} + ... - theta_{n_{2k}}),

and the exponential companion replaces each argument by its quadratic
model, collapsing to

    E_k = sum exp(2*pi*i*a*Q(v) / ((2-delta)^2 * q)),

with Q the alternating square sum of the tuple.  Both vanish in exact
arithmetic (T_k = Re E_k = 0); the reports here measure how far the
floating-point evaluation is from that.

Neither sum is enumerated: both are the alternating elementary sum
S_2k of one unit-modulus sequence (arith.alternating_products), taken
over z_n = exp(i theta_n) and over the exactly reduced roots of unity
z_n = exp(2*pi*i*(a n^2 mod denom) / denom).  Both sequences run over
the same index set, ThetaSequence.admissible_arguments, and the
exponents are QuadraticPhase.residues; this module restates neither
rule.

The check runs once per q, not per (p, q).  sum_arrays(theta) takes
one table of every p at q (gauss.theta_sequences, P rows; a table has
no other shape), reads its phase fit as theta.phase, which the table
fits once for every check that reads it, and makes one kernel call over
the (2P, N) stack of both sequences of every p, run to the top order
2*(q // 2); S_2k is read for every k from that one pass, and the
results come back as (P, K) arrays (SumArrays).  verify_sum_identities
and sum_report are its P = 1 calls, returned as SumReport objects.

Every value is reproducible bit for bit, and equals the scalar Python
recurrence over one (p, q) at a time.  The trig terms are math.cos and
math.sin of each argument, since numpy's cos and sin may differ in the
last bit.  The kernel works in split real arithmetic, with the even
orders stored conjugated, and rounds each step as CPython's complex
multiply and add do.  And S_m never reads an order above m, so a pass
to a higher order, or over more rows, changes no value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import alternating_products
from .errors import RangeError
from .gauss import QuadraticPhase, ThetaSequence, theta_sequence, unit_roots

__all__ = [
    "SumReport",
    "SumArrays",
    "sum_report",
    "sum_arrays",
    "verify_sum_identities",
]


@dataclass(frozen=True)
class SumReport:
    """Joint evaluation of both sums for one (p, q, k)."""

    p: int
    q: int
    k: int
    t_value: float
    e_value: complex
    term_count: int
    residual: float  # max of |T|, |Re E|, |T - Re E|


@dataclass(frozen=True, eq=False)
class SumArrays:
    """The fields of SumReport for every p of a table and every k, as
    arrays: `t_values`, `e_values` (complex) and `residual` (P, K), entry
    [i, j] for (p[i], q, k[j]).  `p`, `k` and `term_count` (one count
    per k, C(N, 2k) for N admissible indices) are tuples of ints, since
    a count outgrows an int64 from q of about 70.  Compared by identity
    (eq=False), since arrays have no single-bool ==."""

    p: tuple[int, ...]
    q: int
    k: tuple[int, ...]
    t_values: np.ndarray
    e_values: np.ndarray
    term_count: tuple[int, ...]
    residual: np.ndarray


def _check_k(k: int, q: int) -> None:
    if k < 1:
        raise RangeError(f"k must be positive, got {k}")
    if 2 * k > q:
        raise RangeError(f"need 2k <= q, got k={k}, q={q}")


def _sum_arrays(theta: ThetaSequence, phase: QuadraticPhase, ks: list[int]) -> SumArrays:
    """Both sums for every row of a table and every k in ks, from one
    kernel call over the stacked trig and quadratic sequences of all
    rows, run to order 2*max(ks)."""
    n, arguments = theta.admissible_arguments()
    rows = len(arguments)
    flat = arguments.ravel().tolist()
    trig_terms = np.empty(len(flat), dtype=complex)
    trig_terms.real = np.fromiter(map(math.cos, flat), float, len(flat))
    trig_terms.imag = np.fromiter(map(math.sin, flat), float, len(flat))
    trig_terms = trig_terms.reshape(arguments.shape)
    quad_terms = np.array(unit_roots(phase.denominator))[phase.residues(n)]
    values = alternating_products(np.concatenate([trig_terms, quad_terms]),
                                  2 * max(ks, default=0))
    orders = [2 * k for k in ks]
    t_values, e_values = values[:rows, orders].real, values[rows:, orders]
    residual = np.maximum(np.maximum(np.abs(t_values), np.abs(e_values.real)),
                          np.abs(t_values - e_values.real))
    return SumArrays(
        p=theta.p, q=theta.q, k=tuple(ks),
        t_values=t_values, e_values=e_values,
        term_count=tuple(math.comb(len(n), order) for order in orders), residual=residual,
    )


def _reports(arrays: SumArrays) -> list[SumReport]:
    """The reports of the one row of `arrays`, one per k."""
    (p,), q = arrays.p, arrays.q
    return [
        SumReport(p=p, q=q, k=k, t_value=t_value, e_value=e_value, term_count=count,
                  residual=residual)
        for k, t_value, e_value, count, residual in zip(
            arrays.k, arrays.t_values[0].tolist(), arrays.e_values[0].tolist(),
            arrays.term_count, arrays.residual[0].tolist())
    ]


def sum_arrays(theta: ThetaSequence) -> SumArrays:
    """Both sums for every p of a table (gauss.theta_sequences) and
    every k with 0 < 2k <= q, from the table, its phase fit and one
    kernel call; row i equals verify_sum_identities(theta.p[i], q) bit
    for bit."""
    return _sum_arrays(theta, theta.phase, list(range(1, theta.q // 2 + 1)))


def sum_report(
    p: int,
    q: int,
    k: int,
    theta: ThetaSequence | None = None,
    phase: QuadraticPhase | None = None,
) -> SumReport:
    """Evaluate both sums for one k.  A theta or phase passed in must be
    the one-row table or fit of this (p, q); any other raises ValueError."""
    _check_k(k, q)
    if theta is None:
        theta = theta_sequence(p, q)
    elif (theta.p, theta.q) != ((p,), q):
        raise ValueError(f"theta is the table of p={theta.p}, q={theta.q}, not of ({p}, {q})")
    if phase is None:
        phase = theta.phase
    elif (phase.p, phase.q) != ((p,), q):
        raise ValueError(f"phase is the fit of p={phase.p}, q={phase.q}, not of ({p}, {q})")
    return _reports(_sum_arrays(theta, phase, [k]))[0]


def verify_sum_identities(p: int, q: int, k_max: int | None = None) -> list[SumReport]:
    """Reports for every k with 0 < 2k <= q (optionally capped by k_max),
    from one table and one kernel call: the one-row call of sum_arrays."""
    theta = theta_sequence(p, q)
    ks = [k for k in range(1, q // 2 + 1) if k_max is None or k <= k_max]
    return _reports(_sum_arrays(theta, theta.phase, ks))
