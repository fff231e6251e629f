"""Classical partition identities checked by enumeration and closed forms."""

import time

from hypothesis import given
from hypothesis import strategies as st

from compparity import partition_theorems as PT
from compparity import partitions as P
from compparity import series as S


def test_legendre_row():
    got = [PT.legendre_closed(n) for n in range(13)]
    assert got == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


@given(st.integers(0, 28))
def test_legendre_enumeration_matches_closed(n):
    assert PT.legendre_delta(n) == PT.legendre_closed(n)


def test_legendre_matches_pentagonal_coefficients():
    coeffs = S.pentagonal_product(50).coeffs
    for n in range(51):
        assert coeffs[n] == PT.legendre_closed(n)


def test_legendre_closed_equals_the_pentagonal_expansion():
    coeffs = S.pentagonal_rhs(20000).coeffs
    assert [PT.legendre_closed(n) for n in range(20001)] == list(coeffs)


def legendre_by_search(n):
    """(-1)^j when n = j(3j+-1)/2, found by trying every j in turn."""
    j = 0
    while j * (3 * j - 1) // 2 <= n:
        if n in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            return (-1) ** j
        j += 1
    return 0


def test_legendre_closed_equals_the_search_over_j():
    for n in range(3001):
        assert PT.legendre_closed(n) == legendre_by_search(n), n


def test_legendre_closed_answers_at_once_near_10_to_the_18():
    j = 816496581  # j(3j-1)/2 is just below 10^18
    n = j * (3 * j - 1) // 2
    t0 = time.perf_counter()
    got = [PT.legendre_closed(n), PT.legendre_closed(n + j), PT.legendre_closed(n + 1)]
    assert time.perf_counter() - t0 < 0.05
    assert got == [-1, -1, 0]


def test_euler_distinct_equals_odd():
    for n in range(0, 26):
        assert P.count_partitions(n, P.DistinctParts()) == P.count_partitions(n, P.OddParts())


def test_odd_parts_signed_prefix():
    got = [PT.odd_parts_signed(n) for n in range(12)]
    assert got == [1, -1, 1, -2, 2, -3, 4, -5, 6, -8, 10, -12]


def test_odd_parts_signed_alternates_with_distinct_count():
    # |signed value| equals the distinct-partition count, sign (-1)^n
    for n in range(0, 18):
        q = P.count_partitions(n, P.DistinctParts())
        assert PT.odd_parts_signed(n) == (-1) ** n * q


@given(st.integers(0, 24), st.integers(2, 4))
def test_glaisher(n, k):
    assert P.count_partitions(n, P.MaxMultiplicity(k)) == P.count_partitions(
        n, P.NoPartDivisibleBy(k))


def franklin_counts(n, k, m):
    return (P.count_partitions(n, P.FranklinRepeated(k, m)),
            P.count_partitions(n, P.FranklinDivisible(k, m)))


def test_franklin_spot():
    assert franklin_counts(4, 2, 1) == (3, 3)


@given(st.integers(0, 18), st.integers(2, 3), st.integers(0, 2))
def test_franklin(n, k, m):
    a, b = franklin_counts(n, k, m)
    assert a == b


def test_franklin_m0_is_glaisher():
    # with no marked values the Franklin classes reduce to Glaisher's
    for k in (2, 3):
        for n in range(0, 16):
            a, b = franklin_counts(n, k, 0)
            g1 = P.count_partitions(n, P.MaxMultiplicity(k))
            g2 = P.count_partitions(n, P.NoPartDivisibleBy(k))
            assert a == b == g1 == g2


@given(st.integers(0, 30), st.integers(1, 3))
def test_nyirenda_distinct_family(n, r):
    assert PT.nyirenda_d_delta(n, r) == PT.nyirenda_d_closed(n, r)


@given(st.integers(0, 30), st.integers(1, 3))
def test_nyirenda_congruent_family(n, r):
    assert PT.nyirenda_c_delta(n, r) == PT.nyirenda_c_closed(n, r)


def test_nyirenda_c_r1_is_legendre():
    for n in range(0, 26):
        assert PT.nyirenda_c_delta(n, 1) == PT.legendre_closed(n)


def andrews_counts(n, k):
    return (P.count_partitions(n, P.InitialKReps(k)),
            P.count_partitions(n, P.NoPartDivisibleBy(2 * k)),
            P.count_partitions(n, P.MaxMultiplicity(2 * k)))


def test_andrews_spot():
    assert andrews_counts(5, 1) == (3, 3, 3)


@given(st.integers(0, 20), st.integers(1, 3))
def test_andrews_triple_equality(n, k):
    a, b, c = andrews_counts(n, k)
    assert a == b == c


def test_andrews_singleton_spots():
    for n, m, value in [(1, 1, -1), (4, 2, 0), (3, 2, 1)]:
        assert PT.andrews_singleton_delta(n, m) == value
        assert PT.andrews_singleton_closed(n, m) == value


@given(st.integers(0, 18), st.integers(0, 5))
def test_andrews_singleton(n, m):
    delta, closed = PT.andrews_singleton_delta(n, m), PT.andrews_singleton_closed(n, m)
    assert delta == closed
    # nonzero only on triangular numbers with matching index
    if n == m * (m + 1) // 2:
        assert closed == (-1) ** m
    else:
        assert closed == 0
