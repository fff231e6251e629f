"""Generating function engine: polynomials, truncated series, expansions."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compparity import formulas as F
from compparity import series as S

small_polys = st.builds(
    S.IntPolynomial,
    st.lists(st.integers(-9, 9), max_size=6).map(tuple),
)


def test_polynomial_basics():
    p = S.IntPolynomial((1, 0, -1, 0))
    assert p.degree == 2
    assert p.coefficient(0) == 1
    assert p.coefficient(2) == -1
    assert p.coefficient(99) == 0
    assert S.IntPolynomial(()).degree == -1
    assert S.IntPolynomial.from_terms({3: 2}) == S.IntPolynomial((0, 0, 0, 2))


@given(small_polys, small_polys, small_polys)
def test_polynomial_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == S.IntPolynomial(())


@given(small_polys, small_polys)
def test_divexact_roundtrip(a, b):
    prod = a * b
    if b != S.IntPolynomial(()):
        assert S.poly_divexact(prod, b) == a


def test_divexact_rejects_inexact():
    with pytest.raises(ValueError, match="not exact"):
        S.poly_divexact(S.IntPolynomial((1, 1, 1)), S.IntPolynomial((1, 1)))


def test_truncated_series_arithmetic():
    one = S.TruncatedSeries.one(5)
    x = S.TruncatedSeries((0, 1, 0, 0, 0, 0))
    geo = S.expand_rational(S.IntPolynomial((1,)), S.IntPolynomial((1, -1)), 5)
    assert geo.coeffs == (1, 1, 1, 1, 1, 1)
    assert (geo * (one - x)).coeffs == (1, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        geo.coefficient(6)


def test_expand_rational_requires_unit():
    with pytest.raises(ValueError):
        S.expand_rational(S.IntPolynomial((1,)), S.IntPolynomial((2, 1)), 5)
    with pytest.raises(ValueError):
        S.expand_rational(S.IntPolynomial((1,)), S.IntPolynomial(()), 5)


def test_expand_rational_known_row():
    ts = S.expand_rational(S.IntPolynomial((1, -1)), S.IntPolynomial((1, -1, 1)), 7)
    assert ts.coeffs == (1, 0, -1, -1, 0, 1, 1, 0)


def test_min_part_series_matches_formula():
    for k in range(1, 7):
        ts = S.min_part_series(k, 20 + k - 1)
        assert S.signed_values(ts, k, 20) == [
            F.min_part_signed(k, n) for n in range(1, 21)
        ]


def test_congruent_series_matches_formula():
    for r in range(1, 5):
        for s in range(0, r):
            for k in range(1, 5):
                ts = S.congruent_series(k, r, s, 14 + k - 1)
                assert S.signed_values(ts, k, 14) == [
                    F.congruent_signed(k, n, r, s) for n in range(1, 15)
                ]


def test_periodic_series_row():
    assert S.periodic_series(1, 8).coeffs == (1, 0, -1, -1, 0, 1, 1, 0, -1)


def test_pentagonal_product_equals_rhs():
    assert S.pentagonal_product(100).coeffs == S.pentagonal_rhs(100).coeffs
    assert S.pentagonal_product(3000).coeffs == S.pentagonal_rhs(3000).coeffs


def schoolbook(a, b, order):
    out = [0] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += a[i] * b[j]
    return tuple(out)


def random_series(rng):
    """Runs of zeros between runs of nonzero (possibly large) coefficients."""
    coeffs = []
    for _ in range(rng.randint(1, 6)):
        coeffs += [0] * rng.randint(0, 12)
        coeffs += [rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(0, 30))
                   for _ in range(rng.randint(0, 4))]
    return S.TruncatedSeries(tuple(coeffs) or (0,))


def test_sparse_product_equals_schoolbook():
    rng = random.Random(20261018)
    for _ in range(300):
        a, b = random_series(rng), random_series(rng)
        order = min(a.order, b.order)
        assert (a * b).coeffs == schoolbook(a.coeffs, b.coeffs, order)
        assert (b * a).coeffs == (a * b).coeffs


def test_bivariate_small_parts_slices():
    for k in range(1, 5):
        bs = S.small_parts_series(k, 12 + k - 1, 2)
        for m in range(0, 3):
            for n in range(1, 13):
                assert S.bivariate_signed_value(bs, k, n, m) == F.small_parts_signed(
                    k, n, m
                )


def geometric_sum_of_t(k, x_order, y_order):
    """Sum of T^i for i = 0..x_order by repeated products, T as documented."""
    t = [[0] * (y_order + 1) for _ in range(x_order + 1)]
    for a in range(1, x_order + 1):
        if a >= k:
            t[a][0] = -1
        elif y_order >= 1:
            t[a][1] = -1
    power = [[int(a == b == 0) for b in range(y_order + 1)] for a in range(x_order + 1)]
    total = [row[:] for row in power]
    for _ in range(x_order):
        nxt = [[0] * (y_order + 1) for _ in range(x_order + 1)]
        for a, b, c, d in itertools.product(range(x_order + 1), range(y_order + 1), repeat=2):
            if a + c <= x_order and b + d <= y_order:
                nxt[a + c][b + d] += power[a][b] * t[c][d]
        power = nxt
        total = [[u + v for u, v in zip(r, s)] for r, s in zip(total, power)]
    return tuple(map(tuple, total))


def test_small_parts_series_equals_geometric_sum():
    for k in range(1, 6):
        for x_order in range(13):
            for y_order in range(5):
                assert S.small_parts_series(k, x_order, y_order).coeffs == geometric_sum_of_t(
                    k, x_order, y_order), (k, x_order, y_order)


def test_bivariate_y0_slice_is_min_part_series():
    bs = S.small_parts_series(2, 10, 0)
    assert bs.y_slice(0).coeffs == S.min_part_series(2, 10).coeffs


def test_cyclotomic_small_indices():
    assert S.cyclotomic(1) == S.IntPolynomial((-1, 1))
    assert S.cyclotomic(2) == S.IntPolynomial((1, 1))
    assert S.cyclotomic(6) == S.IntPolynomial((1, -1, 1))
    # product of cyclotomics over divisors reconstitutes x^n - 1
    for n in (4, 6, 12):
        prod = S.IntPolynomial((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * S.cyclotomic(d)
        assert prod == S.IntPolynomial.from_terms({0: -1, n: 1})


def test_denominator_is_cyclotomic_for_small_r():
    for r in (2, 3, 4):
        poly = S.IntPolynomial.from_terms({0: 1, r: -1, 2 * r: 1})
        assert poly == S.cyclotomic(6 * r)


def test_shift_check_passes():
    for r, s, order, period in [(1, 0, 30, 6), (2, 0, 60, 12), (3, 0, 90, 18)]:
        rep = S.cyclotomic_shift_check(r, s, order)
        assert rep.passed
        assert rep.inverse_ok
        assert rep.preperiod == 0
        assert rep.period == period
        assert rep.period_divides


def test_shift_check_nonzero_s():
    rep = S.cyclotomic_shift_check(2, 1, 60)
    assert rep.passed and rep.k == 3
    rep = S.cyclotomic_shift_check(4, 3, 120)
    assert rep.passed and rep.k == 5 and rep.period == 24
