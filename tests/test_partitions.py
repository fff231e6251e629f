"""Partition enumeration tests against classical count tables."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compparity import partitions as P


def test_partition_validation():
    p = P.Partition((3, 2, 2))
    assert p.size == 7
    assert p.length == 3
    with pytest.raises(ValueError):
        P.Partition((2, 3))
    with pytest.raises(ValueError):
        P.Partition((1, 0))


def test_unrestricted_counts():
    got = [P.count_partitions(n, P.All()) for n in range(11)]
    assert got == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_distinct_and_odd_counts_agree():
    distinct = [P.count_partitions(n, P.DistinctParts()) for n in range(11)]
    odd = [P.count_partitions(n, P.OddParts()) for n in range(11)]
    assert distinct == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]
    assert distinct == odd


def test_signed_all_partitions():
    got = [P.signed_count(n, P.All()).diff for n in range(9)]
    assert got == [-1, 1, 0, 1, -1, 1, -1, 1, -2]


def test_distinct_in_residues():
    cls = P.DistinctInResidues(4, frozenset({0, 1, 3}))
    # parts distinct, each congruent to 0, 1 or 3 mod 4
    for p in P.enumerate_partitions(8, cls):
        assert len(set(p.parts)) == p.length
        assert all(x % 4 in (0, 1, 3) for x in p.parts)
    with pytest.raises(ValueError):
        P.DistinctInResidues(4, frozenset({4}))
    with pytest.raises(ValueError):
        P.DistinctInResidues(0, frozenset({0}))


def test_max_multiplicity():
    cls = P.MaxMultiplicity(2)
    for p in P.enumerate_partitions(9, cls):
        assert all(p.parts.count(v) < 2 for v in set(p.parts))


def test_no_part_divisible_by():
    cls = P.NoPartDivisibleBy(3)
    for p in P.enumerate_partitions(9, cls):
        assert all(x % 3 != 0 for x in p.parts)


# every part set with period <= 4 and any residue set, each with no cap or
# a cap of 0, 1 or 2 copies of a value
PARTS_IN = [P.PartsIn(period, residues, most)
            for period in range(1, 5)
            for size in range(period + 1)
            for residues in itertools.combinations(range(period), size)
            for most in (None, 0, 1, 2)]


def test_parts_in_grid_is_every_declaration():
    assert len(PARTS_IN) == len(set(PARTS_IN)) == 120


def test_parts_in_generator_matches_the_predicate():
    for n in range(11):
        everything = list(P.All().iter_parts(n))
        for cls in PARTS_IN:
            assert list(cls.iter_parts(n)) == [p for p in everything if cls.contains(p)], (cls, n)


def test_parts_in_tally_matches_the_members_length_parity():
    for cls in PARTS_IN:
        for n in range(11):
            lengths = [len(p) for p in cls.iter_parts(n)]
            odd = sum(length % 2 for length in lengths)
            assert P.signed_count(n, cls) == P.SignedCount(odd, len(lengths) - odd), (cls, n)


def test_parts_in_steps_alike_one_period_apart():
    for cls in PARTS_IN:
        for v in range(1, 3 * cls.period + 1):
            for c in range(4):
                assert cls.step(0, v, c) == cls.step(0, v + cls.period, c), (cls, v, c)


@pytest.mark.parametrize("args", [
    (0, (0,), None), (3, (3,), None), (3, (-1,), 1), (2, (0, 2), 2), (1, (0,), -1),
])
def test_parts_in_rejects_bad_declarations(args):
    with pytest.raises(ValueError, match="PartsIn requires"):
        P.PartsIn(*args)


@pytest.mark.parametrize("make, message", [
    (lambda: P.DistinctInResidues(0, frozenset({0})), "modulus must be >= 1, got 0"),
    (lambda: P.DistinctInResidues(3, frozenset()), "residue set must be nonempty"),
    (lambda: P.DistinctInResidues(4, frozenset({4, 1})),
     r"residues \[1, 4\] out of range for modulus 4"),
    (lambda: P.MaxMultiplicity(0), "bound must be >= 1, got 0"),
    (lambda: P.NoPartDivisibleBy(0), "NoPartDivisibleBy requires k >= 1, got k=0"),
])
def test_named_part_sets_keep_their_own_checks(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_named_part_sets_are_their_declarations():
    assert P.All() == P.PartsIn(1, (0,), None)
    assert P.DistinctParts() == P.PartsIn(1, (0,), 1)
    assert P.OddParts() == P.PartsIn(2, (1,), None)
    assert P.DistinctInResidues(4, frozenset({3, 0, 1})) == P.PartsIn(4, (0, 1, 3), 1)
    assert P.MaxMultiplicity(3) == P.PartsIn(1, (0,), 2)
    assert P.NoPartDivisibleBy(3) == P.PartsIn(3, (1, 2), None)
    assert P.NoPartDivisibleBy(1) == P.PartsIn(1, (), None)


def test_equal_part_sets_are_one_class():
    assert P.MaxMultiplicity(2) == P.DistinctParts() == P.DistinctInResidues(1, {0})
    assert P.NoPartDivisibleBy(2) == P.OddParts()
    assert hash(P.MaxMultiplicity(2)) == hash(P.DistinctParts()) == hash(
        P.DistinctInResidues(1, {0}))
    assert hash(P.NoPartDivisibleBy(2)) == hash(P.OddParts())
    # residues are kept sorted and without repeats
    assert P.PartsIn(4, [3, 1, 3], 1) == P.PartsIn(4, (1, 3), 1)
    assert P.PartsIn(4, [3, 1, 3], 1).residues == (1, 3)
    # equal member sets, but two declarations: glaisher's two k = 1 classes
    # must keep two tallies
    assert P.MaxMultiplicity(1) != P.NoPartDivisibleBy(1)
    assert len({P.MaxMultiplicity(2), P.DistinctParts(), P.NoPartDivisibleBy(2),
                P.OddParts(), P.MaxMultiplicity(1), P.NoPartDivisibleBy(1)}) == 4


def test_initial_repetitions_predicate():
    # once some value repeats >= k times, every smaller value must too
    assert P.has_initial_repetitions((3, 2, 1), 2)          # no repeats at all
    assert P.has_initial_repetitions((2, 2, 1, 1), 2)
    assert not P.has_initial_repetitions((2, 2, 1), 2)      # 1 appears once
    assert not P.has_initial_repetitions((3, 3, 2, 1, 1), 2)
    assert P.has_initial_repetitions((5, 2, 2, 2, 1, 1, 1), 3)


def test_initial_two_reps_with_marks():
    cls = P.InitialTwoRepsWithMarks(1)
    # exactly one distinct part value, and initial 2-repetitions hold
    for p in P.enumerate_partitions(6, cls):
        assert len(set(p.parts)) == 1
        assert P.has_initial_repetitions(p.parts, 2)


def test_franklin_classes_small():
    # parts appearing >= m+1 times come only in k multiples vs divisibility class
    a = P.count_partitions(4, P.FranklinRepeated(2, 1))
    b = P.count_partitions(4, P.FranklinDivisible(2, 1))
    assert (a, b) == (3, 3)


@given(st.integers(0, 14))
def test_enumeration_sorted_unique(n):
    # largest part first, then descending lex
    seen = list(P.enumerate_partitions(n, P.All()))
    assert seen == sorted(set(seen), reverse=True)
    assert all(p.size == n for p in seen)


@given(st.integers(0, 14))
def test_partitions_embed_in_compositions(n):
    from compparity import compositions as C

    parts = {p.parts for p in P.enumerate_partitions(n, P.All())}
    comps = {c.parts for c in C.enumerate_compositions(n, C.All())}
    weakly_decreasing = {t for t in comps if tuple(sorted(t, reverse=True)) == t}
    assert parts == weakly_decreasing
