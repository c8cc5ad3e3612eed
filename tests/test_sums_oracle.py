"""The recurrence-based sums checked against brute-force tuple enumeration.

The reference evaluates every strictly increasing admissible 2k-tuple
with Kahan-compensated accumulation; the library uses the O(q * k)
recurrence of arith.alternating_products instead.
"""

import math
import random
from itertools import combinations

from polyfil import gauss, rotor, sums

TOL = 1e-12


def coprime_pairs(q_max):
    for q in range(2, q_max + 1):
        for p in range(1, q + 1):
            if math.gcd(p, q) == 1:
                yield p, q


def _kahan(acc, comp, term):
    y = term - comp
    t = acc + y
    return t, (t - acc) - y


def admissible(q):
    """Indices n in [0, q) with 4 not dividing 2n + 2 - q, ascending."""
    return [n for n in range(q) if (2 * n + 2 - q) % 4 != 0]


def brute_sums(theta, phase, k):
    """(T_k, E_k) by enumerating every admissible 2k-tuple."""
    adm = admissible(theta.q)
    args = [float(theta.arguments[n]) for n in adm]
    denom = (2 - phase.delta) ** 2 * theta.q
    roots = gauss.unit_roots(denom)
    t_total, t_c = 0.0, 0.0
    re, re_c = 0.0, 0.0
    im, im_c = 0.0, 0.0
    for combo in combinations(range(len(adm)), 2 * k):
        alt = 0.0
        quad = 0
        for j, idx in enumerate(combo):
            sign = 1 if j % 2 == 0 else -1
            alt += sign * args[idx]
            quad += sign * adm[idx] ** 2
        t_total, t_c = _kahan(t_total, t_c, math.cos(alt))
        root = roots[(phase.a * quad) % denom]
        re, re_c = _kahan(re, re_c, root.real)
        im, im_c = _kahan(im, im_c, root.imag)
    return t_total, complex(re, im)


def brute_trace_rhs(x, phis):
    """sum_k (-1)^k x^(N-2k) sum cos(phi_{n1} - phi_{n2} + ...), enumerated."""
    n = len(phis)
    terms = []
    for k in range(n // 2 + 1):
        inner = math.fsum(
            math.cos(math.fsum(phis[i] if j % 2 == 0 else -phis[i]
                               for j, i in enumerate(combo)))
            for combo in combinations(range(n), 2 * k)
        )
        terms.append((-1.0) ** k * x ** (n - 2 * k) * inner)
    return math.fsum(terms)


def test_sums_match_enumeration():
    worst = 0.0
    for p, q in coprime_pairs(16):
        theta = gauss.theta_sequence(p, q)
        phase = gauss.quadratic_phase(p, q)
        count = len(admissible(q))
        for k in range(1, q // 2 + 1):
            t_ref, e_ref = brute_sums(theta, phase, k)
            fresh = sums.sum_report(p, q, k)  # builds its own table and phase
            t_value, e_value = fresh.t_value, fresh.e_value
            report = sums.sum_report(p, q, k, theta=theta, phase=phase)
            errors = (
                abs(t_value - t_ref),
                abs(e_value - e_ref),
                abs(report.t_value - t_ref),
                abs(report.e_value - e_ref),
            )
            worst = max(worst, *errors)
            assert max(errors) <= TOL, (p, q, k, errors)
            assert report.term_count == math.comb(count, 2 * k)
    print(f"worst |recurrence - enumeration| {worst:.2e}")


def test_trace_identity_rhs_matches_enumeration():
    rng = random.Random(31337)
    for _ in range(100):
        n = rng.randint(1, 8)
        x = rng.uniform(-2.0, 2.0)
        phis = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)]
        rhs = rotor.trace_identity_eval(x, phis).rhs
        assert abs(rhs - brute_trace_rhs(x, phis)) <= TOL, (n, x)
