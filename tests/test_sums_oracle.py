"""The alternating-sum kernel against its scalar recurrence, and the
sums built on it against brute-force tuple enumeration.

arith.alternating_products is an array kernel over many rows in split
real arithmetic.  The scalar recurrence over Python complex numbers that
it replaced lives on here as its oracle, and every kernel row must
equal it bit for bit (same float.hex of each real and imaginary part).
The mutation tests check that the oracle catches a kernel that
conjugates the wrong orders or multiplies with numpy's complex multiply.

The enumeration reference evaluates every strictly increasing
admissible 2k-tuple with Kahan-compensated accumulation; the library
uses the O(q * k) recurrence instead.
"""

import inspect
import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfil import arith, cli, gauss, rotor, sums
from test_batch_oracle import half_traces_per_case

TOL = 1e-12


# ------------------------------------------------------------ kernel oracle


def scalar_alternating_products(z, m_max):
    """S_0..S_{m_max} of one sequence of Python complex numbers: each z_n
    in turn becomes the newest, m-th factor of every (m-1)-tuple before
    it, conjugated when m is even."""
    s = [1.0 + 0.0j] + [0.0j] * m_max
    for w in z:
        w_conj = w.conjugate()
        for m in range(m_max, 0, -1):
            s[m] += s[m - 1] * (w if m % 2 else w_conj)
    return s


def bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


def front_padded(rows):
    width = max(map(len, rows), default=0)
    return np.array([[0j] * (width - len(row)) + row for row in rows],
                    dtype=complex).reshape(len(rows), width)


def kernel_matches_oracle(kernel, rows, m_max):
    """Every row of kernel(front-padded rows) equals the scalar recurrence
    over that row alone, bit for bit."""
    values = kernel(front_padded(rows), m_max)
    return values.shape == (len(rows), m_max + 1) and all(
        bits(got) == bits(scalar_alternating_products(row, m_max))
        for got, row in zip(values.tolist(), rows)
    )


finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
complex_rows = st.lists(
    st.lists(st.builds(complex, finite, finite), min_size=0, max_size=9),
    min_size=1, max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(complex_rows, st.integers(min_value=0, max_value=12))
def test_kernel_rows_equal_the_scalar_recurrence(rows, m_max):
    # ragged rows (front-padded with zeros), empty rows, and m_max both
    # below and past a row's length
    assert kernel_matches_oracle(arith.alternating_products, rows, m_max)


def unit_rows(seed, count=20, length=12):
    rng = random.Random(seed)
    return [[complex(math.cos(t), math.sin(t))
             for t in (rng.uniform(0.0, 2.0 * math.pi) for _ in range(length))]
            for _ in range(count)]


def test_oracle_catches_conjugating_the_odd_orders():
    # the kernel with the parity that selects conjugated orders swapped
    source = inspect.getsource(arith.alternating_products)
    mutated = source.replace("% 2 == 1, 1.0, -1.0", "% 2 == 0, 1.0, -1.0")
    assert mutated != source
    namespace = dict(vars(arith))
    exec(mutated, namespace)
    rows = unit_rows(1)
    assert kernel_matches_oracle(arith.alternating_products, rows, 12)
    assert not kernel_matches_oracle(namespace["alternating_products"], rows, 12)


def numpy_multiply_kernel(z, m_max):
    """The recurrence over numpy complex arrays, products by numpy's
    complex multiply."""
    s = np.zeros((len(z), m_max + 1), dtype=complex)
    s[:, 0] = 1.0
    odd = np.arange(1, m_max + 1) % 2 == 1
    for w in z.T:
        s[:, 1:] += s[:, :-1] * np.where(odd, w[:, None], w.conj()[:, None])
    return s


def test_oracle_catches_numpy_complex_multiply():
    rows = unit_rows(2)
    flat = [w for row in rows for w in row]
    pairs = list(zip(flat, flat[1:]))
    numpy_products = (np.array([a for a, _ in pairs]) * np.array([b for _, b in pairs])).tolist()
    if bits(numpy_products) == bits([a * b for a, b in pairs]):
        pytest.skip("numpy's complex multiply rounds as CPython's on this CPU")
    assert not kernel_matches_oracle(numpy_multiply_kernel, rows, 12)


def test_kernel_memory_stays_linear_in_rows_times_orders():
    # q = 59: both sequences of its 58 p, 116 rows of 59 terms to order
    # 58.  An (N, R, m) weight stack would hold 59*116*58*4 floats
    # (12.7 MB); one index at a time keeps the peak under 1 MB.
    q = 59
    theta = gauss.theta_sequences(range(1, q), q)
    n, arguments = theta.admissible_arguments()
    phase = gauss._fit_phase(theta)
    z = np.concatenate([np.exp(1j * arguments),
                        np.array(gauss.unit_roots(phase.denominator))[phase.residues(n)]])
    assert z.shape == (116, 59)
    arith.alternating_products(z, 58)  # warm numpy's caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        arith.alternating_products(z, 58)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000, peak


# ------------------------------------------------------------- sums oracle


def scalar_sum_reports(p, q):
    """verify_sum_identities(p, q) through the scalar recurrence, one
    pair and one sequence at a time."""
    theta = gauss.theta_sequence(p, q)
    phase = gauss._fit_phase(theta)
    n, arguments = theta.admissible_arguments()
    roots = gauss.unit_roots(phase.denominator)
    ks = range(1, q // 2 + 1)
    t_values = scalar_alternating_products(
        [complex(math.cos(t), math.sin(t)) for t in arguments[0].tolist()],
        2 * max(ks, default=0))
    e_values = scalar_alternating_products(
        [roots[m] for m in phase.residues(n)[0].tolist()], 2 * max(ks, default=0))
    reports = []
    for k in ks:
        t_value, e_value = t_values[2 * k].real, e_values[2 * k]
        residual = max(abs(t_value), abs(e_value.real), abs(t_value - e_value.real))
        reports.append(sums.SumReport(p=p, q=q, k=k, t_value=t_value, e_value=e_value,
                                      term_count=math.comb(len(n), 2 * k),
                                      residual=residual))
    return reports


def test_sum_reports_equal_the_scalar_recurrence():
    # every coprime pair with q <= 60 (21,751 reports), bit for bit
    for p, q in coprime_pairs(60):
        reports = sums.verify_sum_identities(p, q)
        expected = scalar_sum_reports(p, q)
        assert [(bits([r.t_value, r.e_value]), r.residual.hex()) for r in reports] == [
            (bits([r.t_value, r.e_value]), r.residual.hex()) for r in expected], (p, q)
        assert reports == expected, (p, q)


# ----------------------------------------------------------- lemma3 oracle


def scalar_trace_identity_eval(x, phis):
    """Both sides of the half-trace expansion of one case: the lhs from
    the per-case spinor loop, the rhs coefficients from the scalar
    recurrence."""
    n = len(phis)
    coeffs = scalar_alternating_products(
        [complex(math.cos(phi), math.sin(phi)) for phi in phis], n)
    rhs = math.fsum((-1.0) ** k * x ** (n - 2 * k) * coeffs[2 * k].real
                    for k in range(n // 2 + 1))
    return rotor.TraceIdentityResult(lhs=half_traces_per_case([x], [phis])[0], rhs=rhs)


def test_lemma3_cases_equal_a_loop_through_the_oracle(monkeypatch, capsys):
    # the 101 cases the lemma3 suite draws, evaluated in one call, equal
    # a per-case loop through the scalar recurrence
    calls = []

    def recorded(xs, phi_rows):
        calls.append((list(xs), [list(phis) for phis in phi_rows]))
        return rotor.trace_identity_evals(xs, phi_rows)

    monkeypatch.setattr(cli, "trace_identity_evals", recorded)
    assert cli.main(["verify", "--suite", "lemma3"]) == 0
    capsys.readouterr()
    [(xs, phi_rows)] = calls
    assert len(xs) == 101 and (xs[0], phi_rows[0]) == (1.0, [0.0, math.pi])
    assert len(set(map(len, phi_rows))) > 1  # ragged, so the padding is exercised
    assert rotor.trace_identity_evals(xs, phi_rows) == [
        scalar_trace_identity_eval(x, phis) for x, phis in zip(xs, phi_rows)]
    assert [rotor.trace_identity_eval(x, phis) for x, phis in zip(xs, phi_rows)] == [
        scalar_trace_identity_eval(x, phis) for x, phis in zip(xs, phi_rows)]


def test_trace_identity_evals_rejects_bad_rows():
    with pytest.raises(ValueError, match="at least one angle"):
        rotor.trace_identity_evals([1.0, 1.0], [[0.0], []])
    with pytest.raises(ValueError, match="2 values of x for 1 rows"):
        rotor.trace_identity_evals([1.0, 1.0], [[0.0]])


# ------------------------------------------------------ enumeration oracle


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
    args = [float(theta.arguments[0, n]) for n in adm]
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
        root = roots[(phase.a[0] * quad) % denom]
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
