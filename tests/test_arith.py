import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyfil import arith
from polyfil.errors import ComponentCollision, NotCoprime, OddLength


def test_mod_inverse_matches_exhaustive_search():
    for q in range(1, 31):
        for a in range(-q, 2 * q + 1):
            if math.gcd(a, q) != 1:
                with pytest.raises(NotCoprime):
                    arith.mod_inverse(a, q)
                continue
            x = arith.mod_inverse(a, q)
            assert 0 <= x < q
            expected = [r for r in range(q) if (a * r) % q == 1 % q]
            assert x == expected[0]


def test_mod_inverse_spot_values():
    assert arith.mod_inverse(4, 3) == 1
    assert arith.mod_inverse(1, 12) == 1
    assert arith.mod_inverse(3, 7) == 5


def test_admissible():
    assert arith.admissible_mask(3)[0]
    assert all(arith.admissible_mask(5))  # odd q: all
    assert not arith.admissible_mask(4)[1]
    assert not arith.admissible_mask(2)[0]
    assert np.flatnonzero(arith.admissible_mask(4)).tolist() == [0, 2]
    assert np.flatnonzero(arith.admissible_mask(2)).tolist() == [1]


def test_admissible_matches_parity_of_half_q():
    # for even q the admissible indices share the parity of q/2
    for q in range(2, 41, 2):
        eps = (q // 2) % 2
        assert all(n % 2 == eps for n in np.flatnonzero(arith.admissible_mask(q)))


def test_enumerate_index_vectors():
    assert list(arith.enumerate_index_vectors(2, 3)) == [(0, 1), (0, 2), (1, 2)]
    assert list(arith.enumerate_index_vectors(0, 5)) == [()]


def test_enumeration_is_lexicographic_and_complete():
    vectors = list(arith.enumerate_index_vectors(3, 7))
    assert vectors == sorted(vectors)
    assert len(vectors) == math.comb(7, 3)
    assert len(set(vectors)) == len(vectors)


def test_cyclic_shift_worked_example():
    assert arith.cyclic_shift((3, 5, 8, 9), 4, 11) == (1, 2, 7, 9)


def test_cyclic_shift_identity_and_inverse():
    v = (0, 2, 5)
    assert arith.cyclic_shift(v, 0, 7) == v
    for h in range(7):
        assert arith.cyclic_shift(arith.cyclic_shift(v, h, 7), -h, 7) == v


def test_cyclic_shift_is_bijection_small():
    for n_bound in range(2, 9):
        for k in range(1, min(4, n_bound) + 1):
            domain = list(arith.enumerate_index_vectors(k, n_bound))
            for h in range(n_bound):
                image = {arith.cyclic_shift(v, h, n_bound) for v in domain}
                assert image == set(domain)


def test_cyclic_shift_collision_guard():
    # components equal mod N only via invalid input
    with pytest.raises(ComponentCollision):
        arith.cyclic_shift((0, 0), 1, 5)


def test_alternating_sum():
    assert arith.alternating_sum((0, 1)) == 1
    assert arith.alternating_sum((3, 5, 8, 9)) == 3
    assert arith.alternating_sum((1, 2)) == 1
    with pytest.raises(OddLength):
        arith.alternating_sum((1, 2, 3))
    with pytest.raises(OddLength):
        arith.alternating_sum(())


def test_alternating_square_sum():
    assert arith.alternating_square_sum((0, 1)) == -1
    assert arith.alternating_square_sum((1, 2)) == -3
    assert arith.alternating_square_sum((0, 2)) == -4
    with pytest.raises(OddLength):
        arith.alternating_square_sum((1,))


def test_alternating_sum_bounds_small():
    # strictly increasing even-length vectors have 0 < L < N
    for n_bound in range(2, 11):
        for length in (2, 4):
            for v in arith.enumerate_index_vectors(length, n_bound):
                assert 0 < arith.alternating_sum(v) < n_bound


@st.composite
def increasing_vectors(draw):
    n_bound = draw(st.integers(min_value=2, max_value=20))
    length = draw(st.sampled_from([2, 4, 6]))
    if length > n_bound:
        length = 2
    components = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_bound - 1),
            min_size=length, max_size=length, unique=True,
        )
    )
    return tuple(sorted(components)), n_bound


@given(increasing_vectors(), st.integers(min_value=-30, max_value=30))
def test_shift_identity_quadratic_vs_linear(vec_bound, h):
    # Q(v + h*1) = Q(v) - 2h L(v), exactly over the integers
    v, _ = vec_bound
    shifted = tuple(c + h for c in v)
    lhs = arith.alternating_square_sum(shifted)
    rhs = arith.alternating_square_sum(v) - 2 * h * arith.alternating_sum(v)
    assert lhs == rhs


def test_circular_permutation_only_flips_sign():
    # sorting the reduced vector is a rotation, so Q changes at most by sign
    # exactly, and matches the unreduced shift modulo N
    for n_bound in (5, 7, 9, 11):
        for v in arith.enumerate_index_vectors(4, n_bound):
            for h in range(n_bound):
                reduced = tuple((c + h) % n_bound for c in v)
                q_sorted = arith.alternating_square_sum(arith.cyclic_shift(v, h, n_bound))
                q_reduced = arith.alternating_square_sum(reduced)
                assert q_sorted in (q_reduced, -q_reduced)
                q_shift = arith.alternating_square_sum(tuple(c + h for c in v))
                assert (q_sorted - q_shift) % n_bound == 0 or (q_sorted + q_shift) % n_bound == 0


def test_quadratic_plus_parity_is_well_defined_mod_q():
    # for even q and eps = parity(q/2), P(x) = x^2 + eps*x satisfies
    # q | P(x + q/2) - P(x), which is what makes the even branch work
    for q in range(2, 41, 2):
        eps = (q // 2) % 2
        for x in range(2 * q):
            p0 = x * x + eps * x
            p1 = (x + q // 2) ** 2 + eps * (x + q // 2)
            assert (p1 - p0) % q == 0


def test_alternating_products_every_order():
    # odd and even orders against the defining sum, including m past len(z),
    # for two rows at once
    z = [complex(0.3, 0.8), complex(-1.1, 0.2), complex(0.5, -0.4), 2.0, complex(0.0, 1.0)]
    rows = np.array([z, [w.conjugate() for w in z[::-1]]])
    s = arith.alternating_products(rows, 6)
    assert s.shape == (2, 7) and (s[:, 0] == 1).all()
    for row, values in zip(rows.tolist(), s.tolist()):
        for m in range(1, 7):
            expected = 0j
            for v in arith.enumerate_index_vectors(m, len(row)):
                term = 1 + 0j
                for j, n in enumerate(v):
                    term *= row[n] if j % 2 == 0 else row[n].conjugate()
                expected += term
            assert abs(values[m] - expected) < 1e-12, m
    assert arith.alternating_products(np.zeros((1, 0)), 2).tolist() == [[1, 0, 0]]
    with pytest.raises(ValueError):
        arith.alternating_products(rows, -1)
    with pytest.raises(ValueError, match="2-d array"):
        arith.alternating_products(z, 2)
