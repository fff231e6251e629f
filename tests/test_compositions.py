"""Enumeration oracle tests.

Frozen count tables below were produced by exhaustive enumeration and
cross-checked against standard references where one exists (powers of
two, Fibonacci, compositions into distinct parts).
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compparity import _automaton
from compparity import compositions as C


@pytest.mark.parametrize("make, message", [
    (lambda: C.MinPart(0), "MinPart requires k >= 1, got k=0"),
    (lambda: C.ExactSmall(0, 1), "ExactSmall requires k >= 1, got k=0"),
    (lambda: C.ExactSmall(2, -1), "ExactSmall requires m >= 0, got m=-1"),
    (lambda: C.ModOneExcept(0, 0), "ModOneExcept requires k >= 1, got k=0"),
    (lambda: C.ModOneExcept(2, -1), "ModOneExcept requires m >= 0, got m=-1"),
    (lambda: C.GuardedSmall(0, 1), "GuardedSmall requires k >= 1, got k=0"),
    (lambda: C.GuardedSmall(2, -1), "GuardedSmall requires m >= 0, got m=-1"),
    (lambda: list(C.All().iter_parts(-1)), "composition size must be >= 0, got -1"),
])
def test_composition_validation(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_empty_composition():
    assert list(C.All().iter_parts(0)) == [()]
    assert C.All().contains(())
    assert C.MinPart(3).contains(())


def test_all_counts_are_powers_of_two():
    got = [C.count_compositions(n, C.All()) for n in range(9)]
    assert got == [1, 1, 2, 4, 8, 16, 32, 64, 128]


def test_signed_all_compositions():
    # size 0: the empty composition has even length
    assert C.signed_count(0, C.All()) == C.SignedCount(0, 1)
    assert C.signed_count(1, C.All()).diff == 1
    for n in range(2, 9):
        assert C.signed_count(n, C.All()).diff == 0


def test_min_part_counts():
    fib = [C.count_compositions(n, C.MinPart(2)) for n in range(2, 11)]
    assert fib == [1, 1, 2, 3, 5, 8, 13, 21, 34]
    got = [C.count_compositions(n, C.MinPart(3)) for n in range(3, 13)]
    assert got == [1, 1, 1, 2, 3, 4, 6, 9, 13, 19]


def test_min_part_congruent_parts():
    cls = C.MinPartCongruent(2, 3, 1)
    # parts come from {3, 6, 9, ...}
    got = [C.count_compositions(n, cls) for n in range(1, 13)]
    assert got == [0, 0, 1, 0, 0, 2, 0, 0, 4, 0, 0, 8]
    with pytest.raises(ValueError):
        C.MinPartCongruent(2, 3, 3)
    with pytest.raises(ValueError):
        C.MinPartCongruent(2, 0, 0)


# every part set with least <= 4, period <= 4 and a nonempty residue set
PARTS_IN = [C.PartsIn(least, period, residues)
            for least in range(1, 5) for period in range(1, 5)
            for size in range(1, period + 1)
            for residues in itertools.combinations(range(period), size)]


def test_parts_in_grid_is_every_declaration():
    assert len(PARTS_IN) == len(set(PARTS_IN)) == 104


def test_parts_in_generator_matches_the_predicate():
    for n in range(9):
        everything = list(C.All().iter_parts(n))
        for cls in PARTS_IN:
            assert list(cls.iter_parts(n)) == [p for p in everything if cls.contains(p)], (cls, n)


def test_parts_in_steps_alike_one_period_apart():
    # from `least` on, the part set repeats with its period
    for cls in PARTS_IN:
        for p in range(cls.least, cls.least + 3 * cls.period):
            assert cls.step(0, p) == cls.step(0, p + cls.period), (cls, p)


@pytest.mark.parametrize("args", [
    (0, 1, (0,)), (1, 0, (0,)), (2, 3, ()), (2, 3, (3,)), (2, 3, (-1,)), (1, 2, (0, 2)),
])
def test_parts_in_rejects_bad_declarations(args):
    with pytest.raises(ValueError, match="PartsIn requires"):
        C.PartsIn(*args)


def test_equal_part_sets_are_one_class():
    assert C.OddParts() == C.MinPartCongruent(1, 2, 0) == C.PartsIn(1, 2, (1,))
    assert C.All() == C.MinPart(1) == C.MinPartCongruent(1, 1, 0) == C.PartsIn(1, 1, (0,))
    assert C.MinPartCongruent(5, 3, 1) == C.PartsIn(5, 3, (0,))
    # residues are kept sorted and without repeats
    assert C.PartsIn(2, 4, [3, 1, 3]) == C.PartsIn(2, 4, (1, 3))
    assert C.PartsIn(2, 4, [3, 1, 3]).residues == (1, 3)
    assert hash(C.OddParts()) == hash(C.MinPartCongruent(1, 2, 0))
    assert hash(C.All()) == hash(C.MinPart(1)) == hash(C.MinPartCongruent(1, 1, 0))
    assert len({C.OddParts(), C.MinPartCongruent(1, 2, 0), C.All(), C.MinPart(1)}) == 2
    assert C.OddParts() != C.All()


# every marked-part declaration over the part sets above, least <= 4 and m <= 2
MARKED = [C.MarkedParts(plain, least, m)
          for plain in PARTS_IN for least in range(1, 5) for m in range(3)]


def test_marked_grid_is_every_declaration():
    assert len(MARKED) == len(set(MARKED)) == 1248


def test_marked_generator_matches_the_predicate():
    for n in range(9):
        everything = list(C.All().iter_parts(n))
        for cls in MARKED:
            assert list(cls.iter_parts(n)) == [p for p in everything if cls.contains(p)], (cls, n)


def test_marked_tally_matches_the_members(monkeypatch):
    monkeypatch.setattr(_automaton, "_COUNTS", {})
    for cls in MARKED:
        for n in range(10, -1, -1):  # largest first, so one tally per class
            parities = [len(parts) % 2 for parts in cls.iter_parts(n)]
            odd = sum(parities)
            assert C.signed_count(n, cls) == C.SignedCount(odd, len(parities) - odd), (cls, n)


@pytest.mark.parametrize("least, m", [(0, 1), (2, -1)])
def test_marked_parts_rejects_bad_declarations(least, m):
    with pytest.raises(ValueError, match="MarkedParts requires"):
        C.MarkedParts(C.MinPart(2), least, m)


def test_marked_part_classes_are_their_declarations():
    for k in range(1, 6):
        for m in range(4):
            assert C.ExactSmall(k, m) == C.MarkedParts(C.PartsIn(k, 1, (0,)), 1, m)
            assert C.ModOneExcept(k, m) == C.MarkedParts(C.PartsIn(1, k, (1 % k,)), k + 1, m)


def reachable(cls, top: int) -> set:
    """The states that steps over parts 1..top reach from ``start``."""
    seen = {cls.start()}
    todo = list(seen)
    while todo:
        state = todo.pop()
        for part in range(1, top + 1):
            nxt = cls.step(state, part)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


# (class, T, P): from part T on, the steps repeat with period P
WINDOWS = (
    [(cls, max(cls.plain.least, cls.least), cls.plain.period) for cls in MARKED]
    + [(C.GuardedSmall(k, m), k + 1, 1) for k in range(1, 6) for m in range(5)]
)


def test_steps_alike_one_period_apart_at_every_reachable_state():
    """Lint of each declared part window (T, P), not a proof of it.

    ``step(s, p) == step(s, p + P)`` is checked at every state s that
    parts 1..T+3P+2 reach, and only for T <= p < T + 3P.
    """
    checks = 0
    for cls, least, period in WINDOWS:
        for state in reachable(cls, least + 3 * period + 2):
            for p in range(least, least + 3 * period):
                assert cls.step(state, p) == cls.step(state, p + period), (cls, state, p)
                checks += 1
    assert checks == 24954


def test_distinct_part_counts():
    got = [C.count_compositions(n, C.DistinctParts()) for n in range(11)]
    assert got == [1, 1, 1, 3, 3, 5, 11, 13, 19, 27, 57]


def test_odd_part_counts_are_fibonacci():
    got = [C.count_compositions(n, C.OddParts()) for n in range(1, 11)]
    assert got == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_exact_small_counts():
    got = [C.count_compositions(n, C.ExactSmall(2, 1)) for n in range(1, 11)]
    assert got == [1, 0, 2, 2, 5, 8, 15, 26, 46, 80]
    # m = 0 reduces to the min-part class
    for n in range(0, 12):
        assert C.count_compositions(n, C.ExactSmall(3, 0)) == C.count_compositions(
            n, C.MinPart(3)
        )


def test_guard_predicate_examples():
    # a small part counts only when fenced: predecessor >= k and the
    # successor is the final part or exceeds k
    assert C.is_guarded((2, 1, 2), 2)
    assert C.is_guarded((2, 1, 3, 1, 2), 2)
    assert not C.is_guarded((1, 2, 2), 2)       # starts small
    assert not C.is_guarded((2, 2, 1), 2)       # small part is last
    assert not C.is_guarded((2, 1, 1, 2), 2)    # successor small, not final
    assert not C.is_guarded((2, 1, 2, 1, 2, 2), 2)  # non-final successor == k


def test_guarded_small_members():
    assert list(C.GuardedSmall(2, 1).iter_parts(5)) == [(2, 1, 2)]
    assert list(C.GuardedSmall(2, 1).iter_parts(6)) == [(2, 1, 3), (3, 1, 2)]
    assert list(C.GuardedSmall(2, 2).iter_parts(9)) == [(2, 1, 3, 1, 2)]


def test_guarded_small_counts():
    got = [C.count_compositions(n, C.GuardedSmall(2, 1)) for n in range(1, 13)]
    assert got == [0, 0, 0, 0, 1, 2, 4, 8, 15, 28, 51, 92]


def test_mod_one_except_members():
    assert list(C.ModOneExcept(2, 1).iter_parts(4)) == [(4,)]
    got = [C.count_compositions(n, C.ModOneExcept(3, 1)) for n in range(1, 13)]
    assert got == [0, 0, 0, 0, 1, 3, 5, 8, 14, 24, 39, 63]


def test_signed_count_distinct_prefix():
    got = [C.signed_count_distinct(n) for n in range(10)]
    assert got == [1, -1, -1, 1, 1, 3, -3, -1, -7, -11]


@given(st.integers(0, 12))
def test_enumeration_is_sorted_and_unique(n):
    seen = list(C.All().iter_parts(n))
    assert seen == sorted(set(seen))
    assert all(sum(c) == n for c in seen)


@given(st.integers(0, 12), st.integers(1, 4))
def test_enumeration_respects_class(n, k):
    for cls in (C.MinPart(k), C.ExactSmall(k, 1), C.GuardedSmall(k, 1)):
        for parts in cls.iter_parts(n):
            assert cls.contains(parts)


@given(st.integers(0, 12), st.integers(1, 4))
def test_signed_count_totals(n, k):
    cls = C.MinPart(k)
    sc = C.signed_count(n, cls)
    assert sc.total == C.count_compositions(n, cls)
    assert sc.diff == sc.odd_count - sc.even_count


@given(st.integers(1, 10), st.integers(1, 3), st.integers(0, 2))
def test_small_part_classes_partition_min_part_complement(n, k, m):
    # exact-small classes with m = 0, 1, 2, ... stratify all compositions
    total = sum(
        C.count_compositions(n, C.ExactSmall(k, mm)) for mm in range(n + 1)
    )
    assert total == C.count_compositions(n, C.All())
    # and each guarded class sits inside the matching exact-small class
    guarded = set(C.GuardedSmall(k, m).iter_parts(n))
    exact = set(C.ExactSmall(k, m).iter_parts(n))
    assert guarded <= exact
