"""Closed formulas against the enumeration oracle.

Frozen rows were computed by exhaustive enumeration before the formulas
were written, then pinned here.
"""

import itertools
import time
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compparity import compositions as C
from compparity import formulas as F


def test_binomial_convention():
    # top-degenerate cases: C(a, 0) = 1 for every a, negatives included
    assert F.binomial(5, 2) == 10
    assert F.binomial(0, 0) == 1
    assert F.binomial(-3, 0) == 1
    assert F.binomial(-1, 2) == 0
    assert F.binomial(3, 5) == 0
    assert F.binomial(3, -1) == 0


def test_min_part_signed_row_k2_is_periodic():
    row = [F.min_part_signed(2, n) for n in range(1, 13)]
    assert row == [1, 1, 0, -1, -1, 0, 1, 1, 0, -1, -1, 0]


def test_min_part_signed_spots():
    assert F.min_part_signed(3, 6) == -2
    assert F.min_part_count(2, 5) == 5


def test_min_part_recurrence_matches_sum():
    for k in range(1, 7):
        row = F.min_part_signed_sequence(k, 30)
        assert row == [F.min_part_signed(k, n) for n in range(1, 31)]


def test_min_part_signed_k1_collapses():
    # with no restriction the signed count telescopes
    assert [F.min_part_signed(1, n) for n in range(1, 8)] == [1, 0, 0, 0, 0, 0, 0]


@given(st.integers(1, 5), st.integers(1, 14))
def test_min_part_formulas_match_enumeration(k, n):
    sc = C.signed_count(n + k - 1, C.MinPart(k))
    assert F.min_part_signed(k, n) == sc.diff
    assert F.min_part_count(k, n) == sc.total


def _by_length(cls, size):
    """Member count per length, taken from the reference generator."""
    return dict(Counter(map(len, cls.iter_parts(size))))


def _per_length(terms):
    """Term j of a signed form, keyed by the length j+1 it counts."""
    return {j + 1: t for j, t in terms.items() if t}


def _signed(terms):
    return sum((-1) ** j * t for j, t in terms.items())


def test_each_length_count_is_its_summand():
    # a signed total alone would hide two equal errors at lengths of
    # opposite parity, so each term is held to its own length's count
    for k in range(1, 7):
        for n in range(1, 19):
            terms = {j: F.binomial(n - 1 - j * (k - 1), j)
                     for j in range((n - 1) // k + 1)}
            assert _by_length(C.MinPart(k), n + k - 1) == _per_length(terms), (k, n)
            assert _signed(terms) == F.min_part_signed(k, n)
            for r in range(1, 6):
                for s in range(r):
                    target = n - 1 - s
                    terms = {j: F.binomial((target - j * (k + s)) // r + j, j)
                             for j in range(target // (k + s) + 1)
                             if (target - j * (k + s)) % r == 0}
                    cls = C.MinPartCongruent(k, r, s)
                    assert _by_length(cls, n + k - 1) == _per_length(terms), (k, r, s, n)
                    assert _signed(terms) == F.congruent_signed(k, n, r, s)


def test_congruent_signed_equals_its_sum_over_every_j():
    # the form visits only the j whose i is whole; the sum here tries them all
    for k in range(1, 6):
        for r in range(1, 7):
            for s in range(r):
                for n in range(1, 61):
                    target = n - 1 - s
                    whole = sum((-1) ** j * F.binomial((target - j * (k + s)) // r + j, j)
                                for j in range(target // (k + s) + 1)
                                if (target - j * (k + s)) % r == 0)
                    assert F.congruent_signed(k, n, r, s) == whole, (k, r, s, n)


def test_congruent_recurrence_matches_sum():
    for k in range(1, 6):
        for r in range(1, 7):
            for s in range(r):
                row = F.congruent_signed_sequence(k, r, s, 100)
                assert row == [F.congruent_signed(k, n, r, s) for n in range(1, 101)], (k, r, s)


def test_congruent_signed_spots():
    assert F.congruent_signed(2, 4, 1, 0) == -1
    assert F.congruent_signed(4, 7, 2, 0) == -1
    assert F.congruent_signed(2, 2, 3, 1) == 1
    assert F.congruent_signed(2, 5, 3, 1) == 0


@given(
    st.integers(1, 4),
    st.integers(1, 12),
    st.integers(1, 4),
    st.integers(0, 3),
)
def test_congruent_signed_matches_enumeration(k, n, r, s):
    if s >= r:
        s = s % r
    sc = C.signed_count(n + k - 1, C.MinPartCongruent(k, r, s))
    assert F.congruent_signed(k, n, r, s) == sc.diff


def test_congruent_reduces_to_min_part():
    # r = 1 puts no congruence condition on the parts
    for k in range(1, 6):
        for n in range(1, 16):
            assert F.congruent_signed(k, n, 1, 0) == F.min_part_signed(k, n)


def test_congruent_indicator():
    # k = r - s: the signed count is 1 exactly at n = s + 1
    for r in range(1, 6):
        for s in range(0, r):
            k = r - s
            for n in range(1, 15):
                want = 1 if n == s + 1 else 0
                assert F.congruent_indicator(k, n, r, s) == want
    with pytest.raises(ValueError):
        F.congruent_indicator(2, 1, 4, 1)


def test_congruent_periodic_row():
    assert [F.congruent_periodic(2, n, 1, 0) for n in range(1, 13)] == [
        1, 1, 0, -1, -1, 0, 1, 1, 0, -1, -1, 0,
    ]
    with pytest.raises(ValueError):
        F.congruent_periodic(2, 1, 2, 1)


def test_congruent_periodic_matches_general_formula():
    for r in range(1, 5):
        for s in range(0, r):
            k = 2 * r - s
            for n in range(1, 6 * 6 * r + 1):
                assert F.congruent_periodic(k, n, r, s) == F.congruent_signed(
                    k, n, r, s
                )


def test_boxed_partitions_and_specialization():
    # partitions fitting a 2-wide, height-3 box, larger parts first
    assert list(F.boxed_partitions(2, 3)) == [
        (), (2,), (2, 2), (2, 2, 2), (2, 2, 1), (2, 1), (2, 1, 1), (1,), (1, 1), (1, 1, 1)]
    assert F.monomial_specialization((1, 1), 3) == 3  # choose which variable sits out
    assert F.monomial_specialization((2, 1), 3) == 6
    assert F.monomial_specialization((), 3) == 1


def test_boxed_walk_yields_each_partition_of_the_box_once():
    for width in range(6):
        for height in range(6):
            walk = list(F.boxed_partitions(width, height))
            assert len(set(walk)) == len(walk) == F.binomial(width + height, height)
            for parts in walk:
                assert len(parts) <= height
                assert all(1 <= p <= width for p in parts)
                assert list(parts) == sorted(parts, reverse=True)


def test_monomial_specialization_counts_the_distinct_monomials():
    for width in range(4):
        for height in range(5):
            for parts in F.boxed_partitions(width, height):
                exponents = parts + (0,) * (height - len(parts))
                want = len(set(itertools.permutations(exponents)))
                assert F.monomial_specialization(parts, height) == want, (parts, height)


def test_guarded_signed_spots():
    assert F.guarded_signed_boxed(2, 5, 1) == 2
    assert F.guarded_signed_boxed(2, 8, 2) == 1
    assert F.guarded_signed_boxed(2, 6, 2) == 0
    assert F.guarded_count_boxed(2, 5, 1) == 2
    assert F.guarded_count_boxed(2, 4, 1) == 1


def test_guarded_boxed_equals_quadruple_sum():
    for k in range(2, 5):
        for m in range(0, 3):
            for n in range(1, 14):
                assert F.guarded_signed_boxed(k, n, m) == F.guarded_signed_sum(
                    k, n, m
                )
                assert F.guarded_count_boxed(k, n, m) == F.guarded_count_sum(
                    k, n, m
                )


def test_guarded_boxed_form_walks_a_box_taller_than_the_recursion_limit():
    # at n >= (k+1)m the (k-2) x m box is enumerated, 1101 partitions here
    for n in (4400, 4410):
        assert F.guarded_signed_boxed(3, n, 1100) == F.guarded_signed_sum(3, n, 1100)


def test_size_bound_walks_exactly_the_small_box_partitions():
    for width in range(5):
        for height in range(6):
            whole = list(F.boxed_partitions(width, height))
            for top in range(width * height + 2):
                small = [p for p in whole if sum(p) <= top]
                assert list(F.boxed_partitions(width, height, top)) == small
                assert F._box_size_counts(width, height, top, 10 ** 9) == [
                    sum(sum(p) == s for p in small) for s in range(min(top, width * height) + 1)]


def _served_at_the_limit_refused_one_below(monkeypatch, forms, others, args, work):
    want = [other(*args) for other in others]  # taken before the limit is lowered
    monkeypatch.setattr(F, "MAX_BINOMIAL_WORK", work)
    assert [form(*args) for form in forms] == want
    monkeypatch.setattr(F, "MAX_BINOMIAL_WORK", work - 1)
    for form in forms:
        with pytest.raises(ValueError, match=f"past the work limit of {work - 1}"):
            form(*args)


@pytest.mark.parametrize("args, work", [
    # the six partitions of the 2 x 2 box at 16 + 2 bitlen(2 // 2 + 1) each,
    # then 3+3+3+2+2 values of j for sizes 0..4, as (10 - s)//4 + 1, of two
    # binomials at 16 + 2 bitlen(10 // 2 + 1)
    ((4, 20, 2), 6 * 20 + 2 * 13 * 22),
    # the ten partitions of size <= 4 in the 3 x 3 box at 16 + 3 bitlen(2),
    # then one j per size, of two binomials at 16 + 3 bitlen(4 // 3 + 1)
    ((5, 22, 3), 10 * 22 + 2 * 5 * 22),
])
def test_boxed_form_refuses_an_evaluation_past_its_term_limit(monkeypatch, args, work):
    _served_at_the_limit_refused_one_below(
        monkeypatch, (F.guarded_signed_boxed, F.guarded_count_boxed),
        (F.guarded_signed_sum, F.guarded_count_sum), args, work)


def test_boxed_form_counts_a_large_box_before_walking_it(monkeypatch):
    # (5, 22, 3): the whole 3 x 3 box holds 20 partitions, ten of them small
    # enough, so at a limit of 9 terms of the least cost, 16, the sizes are
    # counted and nothing is walked
    monkeypatch.setattr(F, "MAX_BINOMIAL_WORK", 9 * 16)
    monkeypatch.setattr(F, "boxed_partitions", None)
    with pytest.raises(ValueError, match="at least 10 terms"):
        F.guarded_signed_boxed(5, 22, 3)


@pytest.mark.parametrize("args, work", [
    # i + 4j + 3l + h = 10: the row adds 11+8+5 values of h over l = 0, 1, 2
    # at 16 + 2 bitlen(12 // 2 + 1), then the (s, j) loop the same 13 terms
    # of two binomials as the boxed form
    ((4, 20, 2), 24 * 22 + 2 * 13 * 22),
    # at k = 1 every weight of m >= 1 cancels, so the (s, j) loop adds none;
    # the row's terms cost 16 + 2 bitlen(10 // 2 + 1)
    ((1, 12, 2), 3 * 9 * 22),
])
def test_quadruple_sum_refuses_an_evaluation_past_its_term_limit(monkeypatch, args, work):
    others = ((F.guarded_signed_boxed, F.guarded_count_boxed) if args[0] >= 2
              else (lambda *a: 0, lambda *a: 0))
    _served_at_the_limit_refused_one_below(
        monkeypatch, (F.guarded_signed_sum, F.guarded_count_sum), others, args, work)


def test_quadruple_sum_at_k1_answers_at_once():
    # the weight row cancels, where the sum term by term took 14.6 s
    t0 = time.perf_counter()
    assert F.guarded_signed_sum(1, 1000, 1) == 0
    assert time.perf_counter() - t0 < 0.1


@given(st.integers(2, 4), st.integers(1, 11), st.integers(0, 2))
def test_guarded_formulas_match_enumeration(k, n, m):
    sc = C.signed_count(n + k - 1, C.GuardedSmall(k, m))
    assert F.guarded_signed_boxed(k, n, m) == sc.diff
    assert F.guarded_count_boxed(k, n, m) == sc.total


def test_guarded_sum_covers_k1():
    # the quadruple-sum form stays valid at k = 1, where no part is small
    for m in range(0, 3):
        for n in range(1, 10):
            sc = C.signed_count(n, C.GuardedSmall(1, m))
            assert F.guarded_signed_sum(1, n, m) == sc.diff
            assert F.guarded_count_sum(1, n, m) == sc.total


def test_small_parts_signed_spot():
    assert F.small_parts_signed(2, 2, 1) == -2


def test_small_parts_reduces_to_min_part_at_m0():
    for k in range(1, 5):
        for n in range(1, 18):
            assert F.small_parts_signed(k, n, 0) == F.min_part_signed(k, n)


def test_small_parts_k1_vanishes_for_positive_m():
    # no part can be smaller than 1
    for m in range(1, 4):
        for n in range(1, 12):
            assert F.small_parts_signed(1, n, m) == 0


@given(st.integers(1, 4), st.integers(1, 11), st.integers(0, 2))
def test_small_parts_matches_enumeration(k, n, m):
    sc = C.signed_count(n + k - 1, C.ExactSmall(k, m))
    assert F.small_parts_signed(k, n, m) == sc.diff


@pytest.mark.parametrize("form, args, work", [
    # 4 values of j, C(9 - 2j, j): upper index up to 9, width up to 9 // 4,
    # each term 16 + 2 bitlen(9 // 2 + 1)
    (F.min_part_signed, (3, 10), 4 * (16 + 2 * 3)),
    (F.min_part_count, (3, 10), 4 * (16 + 2 * 3)),
    # target 19: j = 3, 7, ..., 19, the j with 4 | 19 - j, i + j peaks at
    # j = 19 with i = 0, width up to 19 // 5
    (F.congruent_signed, (1, 20, 4, 0), 5 * (16 + 3 * 3)),
    # target 19: j = 0..3, i + j peaks at j = 0 with i = 19, width up to 19 // 6
    (F.congruent_signed, (5, 20, 1, 0), 4 * (16 + 3 * 3)),
    # i = 1..6 times l = 0, 1, upper index up to n = 10, width up to 10 // 3
    (F.small_parts_signed, (2, 10, 1), 12 * (16 + 3 * 3)),
])
def test_binomial_sum_refuses_work_past_its_limit(monkeypatch, form, args, work):
    _served_at_the_limit_refused_one_below(monkeypatch, (form,), (form,), args, work)


def test_binomial_work_charge_bounds_every_upper_index(monkeypatch):
    # every loop is charged before it runs, and the charge must bound the
    # loop's terms and the upper index and width of every binomial it
    # evaluates, or a long sum of wide binomials would slip under it; a
    # multinomial over m variables counts as width m
    loops = []  # per charge: [terms, top, width, calls, largest a, widest]

    def charge(terms, top, width, spent=0, binomials=1):
        loops.append([terms, top, width, 0, 0, 0])
        return spent

    def seen(a, width):
        loop = loops[-1]  # an IndexError before the first charge
        loop[3:] = loop[3] + 1, max(loop[4], a), max(loop[5], width)

    exact, multinomial = F.binomial, F.monomial_specialization
    monkeypatch.setattr(F, "_check_work", charge)
    monkeypatch.setattr(F, "binomial", lambda a, b: seen(a, min(b, a - b)) or exact(a, b))
    monkeypatch.setattr(F, "monomial_specialization",
                        lambda parts, m: seen(m, m) or multinomial(parts, m))
    # per form, the evaluations each term of each loop makes at most
    forms = [(F.min_part_signed, [1]), (F.min_part_count, [1]), (F.congruent_signed, [1]),
             (F.small_parts_signed, [3]), (F.guarded_signed_boxed, [1, 2]),
             (F.guarded_count_boxed, [1, 2]), (F.guarded_signed_sum, [2, 2]),
             (F.guarded_count_sum, [2, 2])]
    for form, per_term in forms:
        for k in range(1, 6):
            for n in range(1, 30):
                if form is F.congruent_signed:
                    grid = [(k, n, r, s) for r in range(1, 6) for s in range(r)]
                elif form in (F.min_part_signed, F.min_part_count):
                    grid = [(k, n)]
                elif form in (F.guarded_signed_boxed, F.guarded_count_boxed) and k < 2:
                    grid = []
                else:
                    grid = [(k, n, m) for m in range(5)]
                for args in grid:
                    loops.clear()
                    form(*args)
                    # none before an early return, which evaluates nothing
                    assert len(loops) in (0, len(per_term)), (form.__name__, args)
                    for (terms, top, width, calls, a, widest), most in zip(loops, per_term):
                        assert calls <= most * terms, (form.__name__, args)
                        assert a <= top and widest <= width, (form.__name__, args)
