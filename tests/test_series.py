"""Generating function engine: polynomials, truncated series, expansions."""

import itertools
import operator
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compparity import compositions as C
from compparity import formulas as F
from compparity import partition_theorems as PT
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


def test_min_part_series_weighted_one_counts_the_class():
    # t = +1: the coefficient at x^size is the count itself, Munagi's row
    for k in range(1, 5):
        ts = S.min_part_series(k, 20, 1)
        assert list(ts.coeffs[1:]) == [
            C.count_compositions(size, C.MinPart(k)) for size in range(1, 21)]


def test_congruent_series_matches_formula():
    for r in range(1, 5):
        for s in range(0, r):
            for k in range(1, 5):
                ts = S.congruent_series(k, r, s, 14 + k - 1)
                assert S.signed_values(ts, k, 14) == [
                    F.congruent_signed(k, n, r, s) for n in range(1, 15)
                ]


# every part set with least <= 4, period <= 4 and a nonempty residue set
PARTS_IN = [(least, period, residues)
            for least in range(1, 5) for period in range(1, 5)
            for size in range(1, period + 1)
            for residues in itertools.combinations(range(period), size)]


def test_parts_in_series_equals_enumeration():
    # size 0 too: the empty composition, even, gives -1 and 1
    for least, period, residues in PARTS_IN:
        neg = S.parts_in_series(least, period, residues, -1, 30)
        pos = S.parts_in_series(least, period, residues, 1, 30)
        cls = C.PartsIn(least, period, residues)
        for n in range(31):
            counts = C.signed_count(n, cls)
            assert counts.diff == -neg.coeffs[n], (least, period, residues, n)
            assert counts.total == pos.coeffs[n], (least, period, residues, n)


def test_parts_in_series_does_not_run_the_class(monkeypatch):
    want = {key: S.parts_in_series(*key, t, 20) for key in PARTS_IN for t in (-1, 1)}

    def refuse(self, state, part):
        raise AssertionError("the series route ran PartsIn.step")

    monkeypatch.setattr(C.PartsIn, "step", refuse)
    assert {key: S.parts_in_series(*key, t, 20) for key in PARTS_IN for t in (-1, 1)} == want


def test_parts_in_series_rejects_bad_parameters():
    for args in [(0, 1, (0,), 1, 5), (1, 0, (0,), 1, 5), (1, 2, (), 1, 5), (1, 2, (2,), 1, 5),
                 (1, 2, (0,), 0, 5), (1, 2, (0,), 1, -1)]:
        with pytest.raises(ValueError):
            S.parts_in_series(*args)


def test_periodic_series_row():
    assert S.periodic_series(1, 8).coeffs == (1, 0, -1, -1, 0, 1, 1, 0, -1)


def test_pentagonal_product_equals_rhs():
    assert S.pentagonal_product(100).coeffs == S.pentagonal_rhs(100).coeffs
    assert S.pentagonal_product(3000).coeffs == S.pentagonal_rhs(3000).coeffs


def factor_by_factor(order):
    """(1 - x)(1 - x^2)...(1 - x^order), one factor at a time."""
    c = [1] + [0] * order
    for n in range(1, order + 1):  # times (1 - x^n); both slices hold the old values
        c[n:] = map(operator.sub, c[n:], c[: order + 1 - n])
    return tuple(c)


def test_pentagonal_product_equals_the_factor_by_factor_product():
    whole = factor_by_factor(300)
    for order in range(301):
        assert S.pentagonal_product(order).coeffs == whole[: order + 1], order
    assert S.pentagonal_product(3000).coeffs == factor_by_factor(3000)


def test_pentagonal_product_reads_neither_the_expansion_nor_the_theorems(monkeypatch):
    want = factor_by_factor(500)

    def refuse(*args):
        raise AssertionError("the product route read another route")

    monkeypatch.setattr(S, "pentagonal_rhs", refuse)
    public = [name for name, fn in vars(PT).items()
              if callable(fn) and not name.startswith("_") and fn.__module__ == PT.__name__]
    assert "legendre_closed" in public
    for name in public:
        monkeypatch.setattr(PT, name, refuse)
    assert S.pentagonal_product(500).coeffs == want


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


def test_guarded_series_equals_enumeration():
    for k in range(1, 6):
        for m in range(4):
            neg, pos = S.guarded_series(k, m, -1, 28), S.guarded_series(k, m, 1, 28)
            cls = C.GuardedSmall(k, m)
            for size in range(1, 29):
                assert -neg.coeffs[size] == C.signed_count(size, cls).diff, (k, m, size)
                assert pos.coeffs[size] == C.count_compositions(size, cls), (k, m, size)


def test_guarded_series_does_not_run_the_class(monkeypatch):
    want = {(k, m, t): S.guarded_series(k, m, t, 20)
            for k in range(1, 5) for m in range(3) for t in (-1, 1)}

    def refuse(self, state, part):
        raise AssertionError("the series route ran GuardedSmall.step")

    monkeypatch.setattr(C.GuardedSmall, "step", refuse)
    assert {key: S.guarded_series(*key, 20) for key in want} == want


def test_guarded_series_rejects_bad_parameters():
    for args in [(0, 1, 1, 5), (2, -1, 1, 5), (2, 1, 0, 5), (2, 1, 1, -1)]:
        with pytest.raises(ValueError):
            S.guarded_series(*args)


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


def test_unit_product_equals_schoolbook():
    rng = random.Random(20261019)
    for _ in range(300):
        a, b = (S.TruncatedSeries(tuple(rng.choice((-1, 0, 0, 1)) for _ in range(rng.randint(1, 40))))
                for _ in range(2))
        order = min(a.order, b.order)
        want = schoolbook(a.coeffs, b.coeffs, order)
        assert (a * b).coeffs == want
        assert (b * a).coeffs == want


def test_pentagonal_product_is_refused_past_its_addition_limit():
    def additions(order):
        top = max(j for j in range(1000) if j * (j + 1) // 2 <= order)
        return sum(order - j * (j - 1) // 2 for j in range(1, top + 1))

    edge = 121644
    assert additions(edge) <= S.MAX_PRODUCT_ADDITIONS < additions(edge + 1)
    with pytest.raises(ValueError, match="additions"):
        S.pentagonal_product(edge + 1)
