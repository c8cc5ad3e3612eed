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

Which k a check covers is k_range's rule alone: every k with
0 < 2k <= q, capped by a k_max, or one k.  sum_report, the sums command
and verify's sums suite all read it, and take no k it refuses.

The check runs once per q, not per (p, q).  sum_arrays(theta, ks)
takes one table of every p at q (gauss.theta_sequences, P rows; a table
has no other shape), reads its phase fit as theta.phase, which the
table fits once for every check that reads it, and makes one kernel
call over the (2P, N) stack of both sequences of every p, run to the
top order 2*max(ks); S_2k is read for every k from that one pass, and
the results come back as (P, K) arrays (SumArrays).  The sums command
is its one-row call, and sum_report its one-row, one-k call, returned
as a SumReport.  theta.phase is the only fit the sums read: sum_report
still takes a fit, but only refuses one of another (p, q), since the
exponents a*n^2 mod (2 - delta)^2 * q of a fit depend on (p, q) alone.

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

from .arith import admissible_count, alternating_products
from .errors import RangeError
from .gauss import QuadraticPhase, ThetaSequence, theta_sequence, unit_roots

__all__ = [
    "SumReport",
    "SumArrays",
    "sum_report",
    "sum_arrays",
    "k_range",
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


def k_range(q: int, k: int | None = None, k_max: int | None = None) -> range:
    """The k that a check at q covers: the one k when given, otherwise
    every k with 0 < 2k <= q, up to k_max when given.  Raises, from the
    arguments alone and so before any table is built, RangeError for a
    k outside 0 < 2k <= q or a range with no k (arith.admissible_count's
    ValueError for a range at q < 1).  The range is lazy: a huge q costs
    no q-long list."""
    if k is not None:
        if k < 1:
            raise RangeError(f"k must be positive, got {k}")
        if 2 * k > q:
            raise RangeError(f"need 2k <= q, got k={k}, q={q}")
        return range(k, k + 1)
    ks = range(1, (q // 2 if k_max is None else min(q // 2, k_max)) + 1)
    if not ks:
        admissible_count(q)  # q < 1 is no modulus: arith's error first
        cap = "" if k_max is None else f" and k <= {k_max}"
        raise RangeError(f"no k with 0 < 2k <= {q}{cap}")
    return ks


def sum_arrays(theta: ThetaSequence, ks: range) -> SumArrays:
    """Both sums for every p of a table (gauss.theta_sequences) and
    every k of ks, a k_range(theta.q), from the table, its phase fit
    (theta.phase) and one kernel call over the stacked trig and
    quadratic sequences of all rows, run to order 2*max(ks); entry
    [i, j] equals sum_report(theta.p[i], q, ks[j]) bit for bit."""
    phase = theta.phase
    n, arguments = theta.admissible_arguments()
    rows = len(arguments)
    flat = arguments.ravel().tolist()
    trig_terms = np.empty(len(flat), dtype=complex)
    trig_terms.real = np.fromiter(map(math.cos, flat), float, len(flat))
    trig_terms.imag = np.fromiter(map(math.sin, flat), float, len(flat))
    trig_terms = trig_terms.reshape(arguments.shape)
    quad_terms = np.array(unit_roots(phase.denominator))[phase.residues(n)]
    values = alternating_products(np.concatenate([trig_terms, quad_terms]), 2 * max(ks))
    orders = [2 * k for k in ks]
    t_values, e_values = values[:rows, orders].real, values[rows:, orders]
    residual = np.maximum(np.maximum(np.abs(t_values), np.abs(e_values.real)),
                          np.abs(t_values - e_values.real))
    return SumArrays(
        p=theta.p, q=theta.q, k=tuple(ks),
        t_values=t_values, e_values=e_values,
        term_count=tuple(math.comb(len(n), order) for order in orders), residual=residual,
    )


def sum_report(
    p: int,
    q: int,
    k: int,
    theta: ThetaSequence | None = None,
    phase: QuadraticPhase | None = None,
) -> SumReport:
    """Evaluate both sums for one k: sum_arrays on one row, which reads
    theta.phase (see the module docstring).  A theta or phase passed in
    must be the one-row table or fit of this (p, q); any other raises
    ValueError."""
    ks = k_range(q, k)
    if theta is None:
        theta = theta_sequence(p, q)
    elif (theta.p, theta.q) != ((p,), q):
        raise ValueError(f"theta is the table of p={theta.p}, q={theta.q}, not of ({p}, {q})")
    if phase is not None and (phase.p, phase.q) != ((p,), q):
        raise ValueError(f"phase is the fit of p={phase.p}, q={phase.q}, not of ({p}, {q})")
    row = sum_arrays(theta, ks)
    return SumReport(p=p, q=q, k=k, t_value=row.t_values.item(), e_value=row.e_values.item(),
                     term_count=row.term_count[0], residual=row.residual.item())
