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
rule.  The recurrence costs O(q * k) and its evaluation order is fixed,
so results are reproducible bit for bit.  verify_sum_identities runs it
once per sum, to the top order, and reads S_2k for every k from that
one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import alternating_products
from .errors import RangeError
from .gauss import QuadraticPhase, ThetaSequence, _fit_phase, theta_sequence, unit_roots

__all__ = [
    "SumReport",
    "sum_report",
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


def _check_k(k: int, q: int) -> None:
    if k < 1:
        raise RangeError(f"k must be positive, got {k}")
    if 2 * k > q:
        raise RangeError(f"need 2k <= q, got k={k}, q={q}")


def _reports(
    p: int, q: int, ks: list[int], theta: ThetaSequence, phase: QuadraticPhase
) -> list[SumReport]:
    """Reports for every k in ks from one recurrence pass per sum, run to
    order 2*max(ks).  S_m never reads an order above m, so each value is
    bit for bit the one a pass to order 2k gives."""
    m_max = 2 * max(ks, default=0)
    n, arguments = theta.admissible_arguments()
    roots = unit_roots(phase.denominator)
    trig_terms = [complex(math.cos(t), math.sin(t)) for t in arguments.tolist()]
    quad_terms = [roots[m] for m in phase.residues(n).tolist()]
    t_values = alternating_products(trig_terms, m_max)
    e_values = alternating_products(quad_terms, m_max)
    count = len(n)
    reports = []
    for k in ks:
        t_value, e_value = t_values[2 * k].real, e_values[2 * k]
        residual = max(abs(t_value), abs(e_value.real), abs(t_value - e_value.real))
        reports.append(SumReport(p=p, q=q, k=k, t_value=t_value, e_value=e_value,
                                 term_count=math.comb(count, 2 * k), residual=residual))
    return reports


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
    elif np.ndim(theta.p) != 0 or (theta.p, theta.q) != (p, q):
        raise ValueError(f"theta is the table of p={theta.p}, q={theta.q}, not of ({p}, {q})")
    if phase is None:
        phase = _fit_phase(theta)
    elif np.ndim(phase.p) != 0 or (phase.p, phase.q) != (p, q):
        raise ValueError(f"phase is the fit of p={phase.p}, q={phase.q}, not of ({p}, {q})")
    return _reports(p, q, [k], theta, phase)[0]


def verify_sum_identities(p: int, q: int, k_max: int | None = None) -> list[SumReport]:
    """Reports for every k with 0 < 2k <= q (optionally capped by k_max),
    from one table and one recurrence pass per sum."""
    theta = theta_sequence(p, q)
    ks = [k for k in range(1, q // 2 + 1) if k_max is None or k <= k_max]
    return _reports(p, q, ks, theta, _fit_phase(theta))
