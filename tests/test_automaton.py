"""The automaton tally behind the counts, held to the class definitions.

``signed_count``, ``count_*`` and ``counts_by_size`` tally each class over
(size, state) by its membership automaton.  Every reference value here is taken straight from
the definition instead: from ``iter_parts``, and from ``contains`` filtered
over all compositions or partitions of n, which also checks ``iter_parts``;
at sizes too large to enumerate, from the coin-change recurrence for p(n)
and q(n).  No reference goes through ``signed_count``.  Since a tally's
counts are kept for every smaller size, the sizes are also asked in
several orders.
"""

import random

import pytest

from compparity import _automaton
from compparity import compositions as C
from compparity import formulas
from compparity import partition_theorems as PT
from compparity import partitions as P

MAX_N = 16
MAX_N_ALL_COMPOSITIONS = 12  # the predicate check walks 2^(n-1) compositions per class

COMPOSITION_CLASSES = (
    [C.All(), C.OddParts(), C.DistinctParts()]
    + [C.MinPart(k) for k in range(1, 5)]
    + [C.MinPartCongruent(k, r, s) for k in range(1, 4) for r in range(1, 5) for s in range(r)]
    + [cls(k, m) for cls in (C.ExactSmall, C.GuardedSmall, C.ModOneExcept)
       for k in range(1, 5) for m in range(4)]
)

PARTITION_CLASSES = (
    [P.All(), P.DistinctParts(), P.OddParts()]
    + [P.DistinctInResidues(mod, frozenset(res))
       for mod, res in ((1, {0}), (3, {1, 2}), (4, {0, 1, 3}), (5, {0, 2, 3}), (8, {0, 3, 5}))]
    + [cls(k) for cls in (P.MaxMultiplicity, P.NoPartDivisibleBy, P.InitialKReps)
       for k in range(1, 5)]
    + [cls(k, m) for cls in (P.FranklinRepeated, P.FranklinDivisible)
       for k in range(1, 4) for m in range(4)]
    + [P.InitialTwoRepsWithMarks(m) for m in range(5)]
)


def parity_count(members) -> C.SignedCount:
    odd = even = 0
    for parts in members:
        if len(parts) % 2:
            odd += 1
        else:
            even += 1
    return C.SignedCount(odd, even)


def all_members(side, n: int) -> list[tuple[int, ...]]:
    return list(side.All().iter_parts(n))


def test_the_grids_cover_every_class():
    def leaves(base):
        subs = base.__subclasses__()
        return {c for s in subs for c in leaves(s)} | set(subs)

    assert {type(c) for c in COMPOSITION_CLASSES} == leaves(C.CompositionClass)
    assert {type(c) for c in PARTITION_CLASSES} == leaves(P.PartitionClass)


@pytest.mark.parametrize("cls", COMPOSITION_CLASSES, ids=repr)
def test_composition_tally_matches_members(cls):
    for n in range(MAX_N + 1):
        expected = parity_count(cls.iter_parts(n))
        assert C.signed_count(n, cls) == expected, n
        assert C.count_compositions(n, cls) == expected.total, n


@pytest.mark.parametrize("cls", PARTITION_CLASSES, ids=repr)
def test_partition_tally_matches_members(cls):
    for n in range(MAX_N + 1):
        expected = parity_count(cls.iter_parts(n))
        assert P.signed_count(n, cls) == expected, n
        assert P.count_partitions(n, cls) == expected.total, n


def test_composition_tally_matches_predicate():
    for n in range(MAX_N_ALL_COMPOSITIONS + 1):
        members = all_members(C, n)
        for cls in COMPOSITION_CLASSES:
            expected = parity_count(c for c in members if cls.contains(c))
            assert C.signed_count(n, cls) == expected, (cls, n)


def test_partition_tally_matches_predicate():
    for n in range(MAX_N + 1):
        members = all_members(P, n)
        for cls in PARTITION_CLASSES:
            expected = parity_count(p for p in members if cls.contains(p))
            assert P.signed_count(n, cls) == expected, (cls, n)


def read_by_value(cls, parts):
    """The state after reading ``parts`` value by value up to its largest part."""
    state = cls.start()
    for value in range(1, max(parts, default=0) + 1):
        state = cls.step(state, value, parts.count(value))
        assert state is not None, (cls, parts, value)
    return state


@pytest.mark.parametrize("cls", PARTITION_CLASSES, ids=repr)
def test_absent_values_past_the_largest_part_keep_accept(cls):
    for n in range(MAX_N + 1):
        for parts in cls.iter_parts(n):
            state = read_by_value(cls, parts)
            assert cls.accept(state), (parts, state)
            for value in range(max(parts, default=0) + 1, 2 * MAX_N + 1):
                state = cls.step(state, value, 0)
                assert state is not None and cls.accept(state), (parts, value, state)


def singleton_sign_sum(members) -> int:
    return sum((-1) ** sum(1 for v in set(p) if p.count(v) == 1) for p in members)


@pytest.mark.parametrize("m", range(6))
def test_andrews_singleton_tally_matches_members(m):
    cls = P.InitialTwoRepsWithMarks(m)
    for n in range(MAX_N + 1):
        delta = PT.andrews_singleton_delta(n, m)
        assert delta == singleton_sign_sum(cls.iter_parts(n)), n
        members = (p for p in all_members(P, n) if cls.contains(p))
        assert delta == singleton_sign_sum(members), n


def test_tally_reaches_size_1001_across_routes():
    # a recursive tally would exhaust the default recursion limit here
    assert C.signed_count(1001, C.MinPart(2)).diff == formulas.min_part_signed_sequence(2, 1000)[-1]


@pytest.mark.parametrize("call", [
    lambda: C.count_compositions(10**9, C.MinPart(2)),
    lambda: C.signed_count(10_000, C.DistinctParts()),
    lambda: P.count_partitions(10**9, P.All()),
    lambda: PT.andrews_singleton_delta(10**9, 3),
])
def test_sizes_past_the_tally_limit_raise(call):
    with pytest.raises(ValueError, match="tally limit"):
        call()


def partition_numbers(n: int, distinct: bool = False) -> list[int]:
    """p(0..n), or q(0..n) with ``distinct``, by coin change over the parts 1..n."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        # downward, each part is used at most once
        sizes = range(n, part - 1, -1) if distinct else range(part, n + 1)
        for size in sizes:
            counts[size] += counts[size - part]
    return counts


def test_a_packed_count_slot_holds_every_partition_count():
    # 1998 is the largest size the partition tally's first check admits
    last = 1998
    assert (last + 1) * (last + 2) // 2 <= _automaton.MAX_TRIALS < (last + 2) * (last + 3) // 2
    for n, p in enumerate(partition_numbers(last)):
        assert _automaton._slot_bits(n) >= p.bit_length(), n


def test_partition_counts_are_exact_at_the_sizes_with_the_widest_slots(fresh_counts):
    # the largest sizes each class is served at, where a slot holds the most bits
    assert P.count_partitions(697, P.All()) == partition_numbers(697)[-1]
    assert P.count_partitions(1154, P.DistinctParts()) == partition_numbers(1154, distinct=True)[-1]


def test_one_state_classes_reach_the_tally_limit():
    # parts 50, 100, ...: compositions of 1950 are those of 39, scaled
    assert C.count_compositions(1950, C.MinPartCongruent(50, 50, 0)) == 2**38
    with pytest.raises(ValueError, match="tally limit"):
        C.count_compositions(2000, C.MinPartCongruent(50, 50, 0))


class CountedSteps:
    """A composition class's automaton that counts its ``step`` calls.

    Not a ``CompositionClass``, so the class grids above stay complete.
    """

    def __init__(self, cls):
        self.cls = cls
        self.calls = 0

    def start(self):
        return self.cls.start()

    def step(self, state, part):
        self.calls += 1
        return self.cls.step(state, part)

    def accept(self, state):
        return self.cls.accept(state)


# a one-state class and the largest size its members are listed at
@pytest.mark.parametrize("cls, listed", [
    (C.MinPart(2), MAX_N),
    (C.MinPart(150), 300),  # parts >= 150: at most two, and few members
], ids=repr)
def test_a_one_state_tally_reads_each_part_at_most_twice(cls, listed):
    # the start row reads parts 1..300, the state's second row lists them once
    counted = CountedSteps(cls)
    counts = _automaton._tally(300, counted)
    assert counted.calls <= 2 * 300
    for n in range(listed + 1):
        expected = parity_count(cls.iter_parts(n))
        assert counts[n] == (expected.odd_count, expected.even_count), n
    # past the limit, refused before any step
    counted = CountedSteps(cls)
    with pytest.raises(ValueError, match="tally limit"):
        _automaton._tally(2000, counted)
    assert counted.calls == 0


# ---------------------------------------------------------------------------
# the stored counts: one tally per class, any request order
# ---------------------------------------------------------------------------

@pytest.fixture
def fresh_counts(monkeypatch):
    """An empty store of tallied counts for the test, restored after it."""
    monkeypatch.setattr(_automaton, "_COUNTS", {})


@pytest.fixture(scope="module")
def member_counts():
    """(side, class) -> parity counts from ``iter_parts`` at sizes 0..MAX_N."""
    return {
        (side, cls): [parity_count(cls.iter_parts(n)) for n in range(MAX_N + 1)]
        for side, classes in ((C, COMPOSITION_CLASSES), (P, PARTITION_CLASSES))
        for cls in classes
    }


def ascending(keys):
    return [(side, cls, n) for side, cls in keys for n in range(MAX_N + 1)]


def descending(keys):
    return [(side, cls, n) for side, cls in keys for n in range(MAX_N, -1, -1)]


def interleaved(keys):
    requests = ascending(keys)
    random.Random(5).shuffle(requests)
    return requests


@pytest.mark.parametrize("order", [ascending, descending, interleaved])
def test_counts_do_not_depend_on_the_request_order(fresh_counts, member_counts, order):
    for side, cls, n in order(list(member_counts)):
        count = C.count_compositions if side is C else P.count_partitions
        expected = member_counts[side, cls][n]
        assert side.signed_count(n, cls) == expected, (cls, n)
        assert count(n, cls) == expected.total, (cls, n)
        assert side.counts_by_size(n, cls) == tuple(
            (c.odd_count, c.even_count) for c in member_counts[side, cls][:n + 1]), (cls, n)


@pytest.mark.parametrize("side, cls", [(C, C.All()), (P, P.All())])
def test_counts_by_size_rejects_a_negative_size(side, cls):
    with pytest.raises(ValueError, match="size must be >= 0"):
        side.counts_by_size(-1, cls)


@pytest.mark.parametrize("m", range(5))
def test_length_and_singleton_statistics_keep_their_own_counts(fresh_counts, m):
    cls = P.InitialTwoRepsWithMarks(m)
    for n in [*range(MAX_N, -1, -1), *range(MAX_N + 1)]:
        members = list(cls.iter_parts(n))
        # alternate which statistic reaches the class first
        asks = [
            lambda: P.signed_count(n, cls) == parity_count(members),
            lambda: PT.andrews_singleton_delta(n, m) == singleton_sign_sum(members),
        ]
        for ask in asks[::-1] if n % 2 else asks:
            assert ask(), (m, n)


@pytest.mark.parametrize("served, refused", [
    (lambda: C.signed_count(20, C.DistinctParts()),
     lambda: C.signed_count(10_000, C.DistinctParts())),
    (lambda: C.count_compositions(1950, C.MinPartCongruent(50, 50, 0)),
     lambda: C.count_compositions(2000, C.MinPartCongruent(50, 50, 0))),
    (lambda: P.count_partitions(30, P.All()),
     lambda: P.count_partitions(10**9, P.All())),
    (lambda: P.count_partitions(697, P.All()),
     lambda: P.count_partitions(698, P.All())),
    # only the multiplicities 0 and 1 that distinct parts accept are charged
    (lambda: P.count_partitions(1154, P.DistinctParts()),
     lambda: P.count_partitions(1155, P.DistinctParts())),
    (lambda: PT.andrews_singleton_delta(20, 3),
     lambda: PT.andrews_singleton_delta(10**9, 3)),
])
def test_a_size_past_the_limit_raises_after_a_smaller_one_was_served(
        fresh_counts, served, refused):
    first = served()
    with pytest.raises(ValueError, match="tally limit"):
        refused()
    assert served() == first
