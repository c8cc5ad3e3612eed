"""The FFT Gauss table against two references: compensated direct
summation (exponents reduced exactly, math.fsum accumulation) and the
classical closed forms (Berndt, Evans and Williams, *Gauss and Jacobi
Sums*, ch. 1), with e(x) = exp(2*pi*i*x), (. | m) the Jacobi symbol and
eps_m = 1 or i as m = 1 or 3 mod 4.  For odd q

    G(-p, n, q) = (-p | q) * eps_q * sqrt(q) * e(inv(4p) * n^2 / q).

For even q write a = -p mod q, an odd number in (0, q).  If q = 2m with
m odd, the sum splits by the Chinese remainder theorem into a mod-2 sum,
1 + (-1)^(a*m + n), and the odd-modulus sum G(2a, n, m):

    G(-p, n, q) = 0 for even n,
    G(-p, n, q) = 2 * (2a | m) * eps_m * sqrt(m) * e(-inv(8a) * n^2 / m) for odd n.

If 4 | q, shifting k by q/2 multiplies the sum by (-1)^n, and completing
the square at n = 2h leaves G(a, 0, q) = (1 + i) * conj(eps_a) * (q | a) * sqrt(q):

    G(-p, n, q) = 0 for odd n,
    G(-p, n, q) = e(-inv(a) * h^2 / q) * (1 + i) * conj(eps_a) * (q | a) * sqrt(q)
                  for n = 2h.

In both cases the vanishing entries are the n with 4 | 2n + 2 - q.
"""

import cmath
import math

import numpy as np
import pytest

from polyfil import gauss

PAIRS = [(p, q) for q in range(1, 61) for p in range(1, q + 1) if math.gcd(p, q) == 1]
LARGE = [(1, 997), (1, 4999)]


def fsum_table(p, q):
    """G(-p, n, q) for n = 0..q-1 by direct summation: each exponent
    (-p*k^2 + n*k) mod q is reduced in integers, and the real and
    imaginary parts are each summed with math.fsum."""
    roots = np.array(gauss.unit_roots(q))
    re, im = roots.real, roots.imag
    k = np.arange(q, dtype=np.int64)
    base = (k * k % q) * (-p % q) % q
    table = []
    for n in range(q):
        exps = (base + n * k) % q
        table.append(complex(math.fsum(re[exps].tolist()), math.fsum(im[exps].tolist())))
    return table


def jacobi(a, n):
    """Jacobi symbol (a | n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def closed_form(p, q, n):
    eps = 1 if q % 4 == 1 else 1j
    m = pow(4 * p, -1, q) * n * n % q if q > 1 else 0
    return jacobi(-p, q) * eps * math.sqrt(q) * cmath.exp(2j * math.pi * m / q)


def even_closed_form(p, q, n):
    a = -p % q
    if q % 4 == 2:
        m = q // 2
        if n % 2 == 0:
            return 0j
        eps = 1 if m % 4 == 1 else 1j
        phase = -pow(8 * a, -1, m) * n * n % m if m > 1 else 0
        return 2 * jacobi(2 * a, m) * eps * math.sqrt(m) * cmath.exp(2j * math.pi * phase / m)
    if n % 2 == 1:
        return 0j
    h = n // 2
    eps_conj = 1 if a % 4 == 1 else -1j
    phase = -pow(a, -1, q) * h * h % q
    return ((1 + 1j) * eps_conj * jacobi(q, a) * math.sqrt(q)
            * cmath.exp(2j * math.pi * phase / q))


def circular_distance(a, b):
    d = (a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def test_jacobi_matches_euler_criterion_at_primes():
    for q in (3, 5, 7, 11, 13, 59, 997):
        for a in range(-20, 21):
            euler = pow(a % q, (q - 1) // 2, q)
            assert jacobi(a, q) == (0 if a % q == 0 else (1 if euler == 1 else -1))


def principal(angle):
    """atan2's range [-pi, pi] with the -pi edge folded onto +pi."""
    return angle + 2 * math.pi if angle <= -math.pi else angle


def check_table(p, q):
    tol = 1e-12 * math.sqrt(q)
    threshold = gauss.VANISHING_RELATIVE_TOL * max(1.0, math.sqrt(q))
    reference = fsum_table(p, q)
    theta = gauss.theta_sequence(p, q)
    assert theta.values.dtype == complex and theta.vanishing.dtype == bool
    assert np.abs(theta.values - reference).max() <= tol, (p, q)
    assert np.abs(theta.moduli - [abs(want) for want in reference]).max() <= tol, (p, q)
    vanishing = [abs(want) < threshold for want in reference]
    assert theta.vanishing.tolist() == vanishing, (p, q)
    assert np.isnan(theta.arguments).tolist() == vanishing, (p, q)
    for n, want in enumerate(reference):
        if not vanishing[n]:
            got = theta.arguments[n]
            assert -math.pi < got <= math.pi, (p, q, n)
            want_arg = principal(math.atan2(want.imag, want.real))
            assert circular_distance(got, want_arg) <= 1e-12, (p, q, n)
    for name in ("values", "moduli", "arguments", "vanishing"):
        array = getattr(theta, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    # gauss_sum reads the same table
    for n in {0, 1 % q, q // 2, q - 1}:
        assert gauss.gauss_sum(p, q, n) == theta.entry(n) == theta.entries[n]


def test_table_matches_direct_summation():
    # every coprime pair with q <= 60: values, moduli, arguments and
    # vanishing flags against the reference, agreement 1.7e-14 at worst
    for p, q in PAIRS:
        check_table(p, q)


@pytest.mark.parametrize("p, q", LARGE)
def test_large_table_matches_direct_summation(p, q):
    check_table(p, q)


def test_odd_q_closed_form():
    for p, q in PAIRS + LARGE:
        if q % 2 == 0:
            continue
        tol = 1e-12 * math.sqrt(q)
        reference = fsum_table(p, q) if q <= 60 else None
        for n, entry in enumerate(gauss.theta_sequence(p, q).entries):
            want = closed_form(p, q, n)
            assert abs(entry.value - want) <= tol, (p, q, n)
            if reference is not None:
                assert abs(reference[n] - want) <= tol, (p, q, n)


EVEN_LARGE = [(7, 1000), (3, 998)]


def test_even_q_closed_form():
    # every even coprime pair with q <= 60 against the table and the
    # direct summation; one large q of each class mod 4 against the table
    for p, q in [pair for pair in PAIRS if pair[1] % 2 == 0] + EVEN_LARGE:
        tol = 1e-12 * math.sqrt(q)
        theta = gauss.theta_sequence(p, q)
        reference = fsum_table(p, q) if q <= 60 else None
        for n in range(q):
            want = even_closed_form(p, q, n)
            assert abs(theta.values[n] - want) <= tol, (p, q, n)
            assert (want == 0) == ((2 * n + 2 - q) % 4 == 0) == theta.vanishing[n], (p, q, n)
            if reference is not None:
                assert abs(reference[n] - want) <= tol, (p, q, n)
