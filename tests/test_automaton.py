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
import types

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


def own_counts(buckets, n: int) -> tuple[tuple[int, int], ...]:
    """(odd, even) per size 0..n of a tally bucketed by the class's own ``accept``."""
    odds, evens = buckets.get(True, ([0] * (n + 1), [0] * (n + 1)))
    return tuple(zip(odds, evens))


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
    counts = own_counts(_automaton._tally(300, counted, counted.accept), 300)
    assert counted.calls <= 2 * 300
    for n in range(listed + 1):
        expected = parity_count(cls.iter_parts(n))
        assert counts[n] == (expected.odd_count, expected.even_count), n
    # past the limit, refused before any step
    counted = CountedSteps(cls)
    with pytest.raises(ValueError, match="tally limit"):
        _automaton._tally(2000, counted, counted.accept)
    assert counted.calls == 0


def test_a_state_met_once_reads_each_part_that_fits_once():
    # a set of used parts is met on one row only, at its sum s, and reads
    # the parts 1..30-s there: q(s) such sets, q counting distinct partitions
    counted = CountedSteps(C.DistinctParts())
    counts = own_counts(_automaton._tally(30, counted, counted.accept), 30)
    sets = [sum(1 for _ in P.DistinctParts().iter_parts(s)) for s in range(31)]
    assert counted.calls == sum(q * (30 - s) for s, q in enumerate(sets)) == 10770
    for n in range(MAX_N + 1):
        expected = parity_count(C.DistinctParts().iter_parts(n))
        assert counts[n] == (expected.odd_count, expected.even_count), n


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


# ---------------------------------------------------------------------------
# capped families: one tally, read by each member's accept
# ---------------------------------------------------------------------------

CAPPED = [(side, cls) for side, classes in ((C, COMPOSITION_CLASSES), (P, PARTITION_CLASSES))
          for cls in classes if cls.family is not None]

# each side's engine, bucketing a member by its own accept, and reader of
# one statistic, by name
STATISTICS = {
    (C, "length"): (lambda n, cls: own_counts(_automaton._tally(n, cls, cls.accept), n),
                    C.counts_by_size),
    (P, "length"): (lambda n, cls: own_counts(
        _automaton._tally_by_value(n, cls, cls.accept, P._flips_length), n), P.counts_by_size),
    (P, "singletons"): (lambda n, cls: own_counts(
        _automaton._tally_by_value(n, cls, cls.accept, P._is_singleton), n),
        P.singleton_counts_by_size),
}


def case_id(value):
    """A side by its module's last name, anything else by its repr."""
    return value.__name__.rpartition(".")[2] if isinstance(value, types.ModuleType) else repr(value)


def families():
    """(side, statistic, members by ascending m) of every family in the class grids."""
    grouped = {}
    for side, cls in CAPPED:
        grouped.setdefault((side, cls.family()[0]), []).append(cls)
    return [pytest.param(side, statistic, sorted(members, key=lambda cls: cls.family()[1]),
                         id=f"{case_id(side)}-{statistic}-{members[0]!r}")
            for (side, _), members in grouped.items()
            for at, statistic in STATISTICS if at is side]


def test_the_grids_hold_families_of_several_members():
    assert {type(cls) for _, cls in CAPPED} == {
        C.MarkedParts, C.GuardedSmall, P.FranklinRepeated, P.FranklinDivisible,
        P.InitialTwoRepsWithMarks}
    assert len(families()) == 12 + 2 * 7
    assert all(len(case.values[2]) >= 4 for case in families())


@pytest.mark.parametrize("side, statistic, members", families())
@pytest.mark.parametrize("wide_first", [False, True])
def test_a_family_member_reads_what_its_own_tally_gives(
        tallies, side, statistic, members, wide_first):
    engine, read = STATISTICS[side, statistic]
    direct = {cls: engine(MAX_N, cls) for cls in members}
    tallies.clear()
    asked = members[::-1] if wide_first else members
    for cls in asked:  # narrow-first, each wider member is tallied in turn
        assert read(MAX_N, cls) == direct[cls], cls
    for cls in asked:
        for n in range(MAX_N, -1, -1):
            assert read(n, cls) == direct[cls][:n + 1], (cls, n)
    assert len(tallies) == (1 if wide_first else len(members))
    assert len(_automaton._COUNTS) == 1  # the family's entry, none per member


def reachable_moves(side, cls):
    """Every (state, next state) move of ``cls`` on a prefix of size <= MAX_N."""
    if side is C:
        todo, seen = [(0, cls.start())], set()
        while todo:
            size, state = todo.pop()
            for part in range(1, MAX_N - size + 1):
                if (nxt := cls.step(state, part)) is not None:
                    yield state, nxt
                    if (size + part, nxt) not in seen:
                        seen.add((size + part, nxt))
                        todo.append((size + part, nxt))
        return
    layer = {(0, cls.start())}
    for value in range(1, MAX_N + 1):
        after = set()
        for size, state in layer:
            for mult in range((MAX_N - size) // value + 1):
                if (nxt := cls.step(state, value, mult)) is not None:
                    yield state, nxt
                    after.add((size + mult * value, nxt))
        layer = after


def step_alike(side, cls, wider):
    """The moves of ``wider`` as (state, piece, next); ``cls``'s step on the same."""
    if side is C:
        return [((state, part), wider.step(state, part), cls.step(state, part))
                for state, _ in reachable_moves(side, wider) for part in range(1, MAX_N + 1)]
    return [((state, value, mult), wider.step(state, value, mult), cls.step(state, value, mult))
            for state, _ in reachable_moves(side, wider)
            for value in range(1, MAX_N + 1) for mult in range(MAX_N // value + 1)]


@pytest.mark.parametrize("side, cls", CAPPED, ids=case_id)
def test_a_family_declaration_holds_on_every_reachable_move(side, cls):
    (make, *lead), m = cls.family()
    assert make(*lead, m) == cls
    moves = list(reachable_moves(side, cls))
    assert moves
    for state, nxt in moves:
        # no move lowers the counter, and m caps it
        assert cls.counter(state) <= cls.counter(nxt) <= m, (state, nxt)
        assert not cls.accept(nxt) or cls.counter(nxt) == m, nxt
    # a wider member makes the same moves while the counter stays within m
    wider = make(*lead, m + 2)
    for at, widened, own in step_alike(side, cls, wider):
        if cls.counter(at[0]) <= m:
            kept = widened is not None and wider.counter(widened) <= m
            assert own == (widened if kept else None), at


REFUSED_AT_300 = f"size 300 is past the tally limit of {_automaton.MAX_TRIALS} trials for this class"


@pytest.mark.parametrize("wide_first", [False, True])
def test_a_family_refuses_a_member_exactly_where_its_own_tally_does(fresh_counts, wide_first):
    narrow, wide = P.InitialTwoRepsWithMarks(10), P.InitialTwoRepsWithMarks(20)
    own = _automaton._tally_by_value(300, narrow, narrow.accept, P._is_singleton)
    served = C.SignedCount(*own_counts(own, 300)[300])

    def refusal():
        with pytest.raises(ValueError) as refused:
            P.singleton_counts_by_size(300, wide)
        return str(refused.value)

    if wide_first:
        assert refusal() == REFUSED_AT_300
    assert C.SignedCount(*P.singleton_counts_by_size(300, narrow)[300]) == served
    assert refusal() == REFUSED_AT_300
    assert C.SignedCount(*P.singleton_counts_by_size(300, narrow)[300]) == served
