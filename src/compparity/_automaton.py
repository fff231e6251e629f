"""Length-parity tally of a class by its membership automaton.

Each composition or partition class describes its membership rule as a
small automaton: ``start()`` gives the initial state, ``step`` reads one
piece of a member and returns the next state or ``None`` to reject, and
``accept`` says whether a member may end in a state.  A composition is read
one part at a time, and ``_tally`` counts prefixes forward by size: row
``s`` holds the (odd, even) length-parity counts of each state reached by
a prefix of size ``s``.  A state met on two consecutive nonempty rows
gets a list of its accepted (part, next) moves, built once on the second
of them for the parts that fit there; every later row, with less room,
walks that list up to its room.  A state met only once, such as each set
of used parts of distinct compositions, gets its list for that row alone,
and the list is not kept.  Whether a state recurs is read from the
previous nonempty row, so the lists follow what the tally meets, not an
option of the class: a one-state class calls ``step`` at most 2n times, not
n(n+1)/2.  A partition is read one value at a time, 1, 2, ..., n, each
with its multiplicity ``c >= 0``, and ``_tally_by_value`` keeps per
state the (odd, even) counts of every size 0..n, adding them,
shifted by c times the value, into the next state: the column-by-column
transfer matrix (Stanley, EC1 4.7).  Those counts are packed w bits a
size into one int each (Kronecker substitution), so a move is one shift
and one add; no count exceeds p(n) < exp(pi*sqrt(2n/3)) (Apostol 1976,
Thm 14.5), so w = isqrt(14n) + 1 > log2 p(n), in whole bytes, suffices.
Neither tally recurses, a tally to size n yields every size 0..n, and both
use only the class's membership rule, never a closed form; ``iter_parts``
remains the definition the tests hold them to.

Both tallies give one kind of store: ``{bucket: (odd list, even list)}``
over sizes 0..n, each state's counts added into the bucket that
``bucket(state)`` names; the partition tally unpacks its ints once per
bucket, at the end.  ``tally_compositions`` and ``tally_partitions`` keep
that store, never the states, per (side, class, parity statistic), as
``(m, N, buckets)``.  A class is bucketed by its own ``accept``, so it
keeps at most two buckets and m = 0.  A class may declare a family
instead, with ``family()``: its last field m caps a counter in its state
that no move lowers, and ``accept`` asks for counter = m.  A member's path
to a state it accepts never passes m, so every member with a larger cap
makes the same moves on it, to the same state: the member with the
largest m holds every smaller m in its final states.  A family is
bucketed by state, and its entry holds the widest member tallied so far,
m = M, to the largest size N.  One reader, ``_read``, serves both: it sums
the buckets whose key the member takes, True for a class and its
``accept`` for a family member, and hands a single bucket back as it is
kept, so a loop reading size by size never re-sums a row.  A request with
m <= M and n <= N is read from the entry; any other tallies the member
itself, never a wider one, and that tally becomes the entry: a wider
member costs more trials, so it may be refused at a size the member
reaches (``InitialTwoRepsWithMarks`` at size 300 is served up to m = 13),
and tallying it instead would move the refused sizes and their messages.
The sweeps in ``compparity.verify`` read a class's counts once per row of
a sweep, at the row's largest size.

A tally that would make more than ``MAX_TRIALS`` trials raises
``ValueError``.  A composition trial is a state of a row tried against a
part that still fits, and a row's states are also charged as if each had
one successor on every later row, so a one-state class past the limit is
refused before any work.  A partition trial is one size of one state's
counts tried with one multiplicity that ``step`` accepts: each accepted
move of value v with multiplicity c costs n + 1 - c*v, charged before
v's counts are added, and a size at which ``All`` would pass the limit
at value 1 alone is refused before anything is allocated.  One-state
classes reach n = 1999 as compositions; as partitions they reach n = 697
(all partitions) to 1297 (distinct parts in three residues mod 8), the
fewer multiplicities accepted the further.  Compositions into distinct
parts, whose states are the sets of parts used, reach about 65.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable

MAX_TRIALS = 2_000_000

# bucket -> its (odd, even) counts of sizes 0..n
Buckets = dict[Hashable, tuple[list[int], list[int]]]

# (side, class or family, parity statistic) -> (m, N, buckets) of the
# widest member tallied so far, m = 0 for a class, to the largest size N
_COUNTS: dict[tuple, tuple[int, int, Buckets]] = {}


def _past_limit(n: int) -> ValueError:
    return ValueError(f"size {n} is past the tally limit of {MAX_TRIALS} trials for this class")


def _keep(buckets: Buckets, bucket: Callable, row: dict, size: int, n: int) -> None:
    """Add each state's (odd, even) counts at ``size`` into its bucket's lists of sizes 0..n."""
    for state, (odd, even) in row.items():
        lists = buckets.get(key := bucket(state))
        if lists is None:
            lists = buckets[key] = [0] * (n + 1), [0] * (n + 1)
        lists[0][size] += odd
        lists[1][size] += even


def _tally(n: int, cls, bucket: Callable[[Hashable], Hashable]) -> Buckets:
    """(odd, even) counts of the compositions of each size 0..n, by the bucket of their state.

    A composition is read one part at a time, and every part flips the
    length parity.
    """
    # the start row's charge, as below, made before the rows are allocated
    if n * (n + 1) // 2 > MAX_TRIALS:
        raise _past_limit(n)
    step = cls.step
    rows: list[dict | None] = [None] * (n + 1)
    rows[0] = {cls.start(): [0, 1]}  # the empty composition has even length
    moves = {}  # state -> its accepted (part, next), parts 1..room of its second row
    previous = {}  # the last nonempty row
    buckets = {}
    work = 0
    for size in range(n):
        row = rows[size]
        if row is None:
            continue
        rows[size] = None
        # no later part reaches this row
        _keep(buckets, bucket, row, size, n)
        room = n - size
        # this row's trials, plus those its states would still make with a
        # single successor on every later row
        if work + len(row) * room * (room + 1) // 2 > MAX_TRIALS:
            raise _past_limit(n)
        work += len(row) * room
        for state, (odd, even) in row.items():
            listed = moves.get(state)
            if listed is None:
                listed = [(part, nxt) for part in range(1, room + 1)
                          if (nxt := step(state, part)) is not None]
                if state in previous:
                    moves[state] = listed
            for part, nxt in listed:
                if part > room:
                    break  # a list is sorted by part
                target = rows[size + part]
                if target is None:
                    target = rows[size + part] = {}
                cell = target.get(nxt)
                if cell is None:
                    target[nxt] = [even, odd]
                else:
                    cell[0] += even
                    cell[1] += odd
        previous = row
    _keep(buckets, bucket, rows[n] or {}, n, n)
    return buckets


def _slot_bits(n: int) -> int:
    """Bits of one packed count of a size 0..n: isqrt(14n) + 1, in whole bytes."""
    return -(-(math.isqrt(14 * n) + 1) // 8) * 8


def _unpack(packed: int, width: int, n: int) -> list[int]:
    """The counts of sizes 0..n packed ``width`` bits a size into ``packed``."""
    size = width // 8
    data = packed.to_bytes((n + 1) * size, "little")
    return [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]


def _tally_by_value(n: int, cls, bucket: Callable[[Hashable], Hashable],
                    flip: Callable[[int], bool]) -> Buckets:
    """(odd, even) counts of the partitions of each size 0..n, read by value, by bucket.

    Size s sits in bits s*w..s*w+w-1 of a state's odd and even ints.  Its
    slot counts distinct partitions of s <= n, below 2^w, so it never
    carries, nor does it in a sum over states; the slots above n, masked
    off once per value, carry only up.
    """
    # the step calls are not charged, so n is first held to where `All`
    # would pass the limit at value 1 alone
    if (n + 1) * (n + 2) // 2 > MAX_TRIALS:
        raise _past_limit(n)
    width = _slot_bits(n)
    mask = (1 << (n + 1) * width) - 1
    step = cls.step
    flips = [flip(mult) for mult in range(n + 1)]
    states = {cls.start(): (0, 1)}  # the empty partition, even
    work = 0
    for value in range(1, n + 1):
        moves = []  # only the moves `step` accepts are charged
        for state, counts in states.items():
            for mult in range(n // value + 1):
                nxt = step(state, value, mult)
                if nxt is not None:
                    moves.append((counts, mult, nxt))
                    work += n + 1 - mult * value
        if work > MAX_TRIALS:
            raise _past_limit(n)
        after = {}
        for (odd, even), mult, nxt in moves:
            shift = mult * value * width
            if flips[mult]:
                odd, even = even, odd
            o, e = after.get(nxt, (0, 0))
            after[nxt] = (o + (odd << shift), e + (even << shift))
        states = {state: (o & mask, e & mask) for state, (o, e) in after.items()}
    packed = {}
    for state, (odd, even) in states.items():
        o, e = packed.get(key := bucket(state), (0, 0))
        packed[key] = o + odd, e + even
    return {key: (_unpack(odd, width, n), _unpack(even, width, n))
            for key, (odd, even) in packed.items()}


def _read(take: Callable[[Hashable], bool], n: int,
          buckets: Buckets) -> tuple[list[int], list[int]]:
    """(odd, even) counts of sizes 0..n over the buckets ``take`` accepts; one is not copied."""
    taken = [lists for key, lists in buckets.items() if take(key)]
    if len(taken) == 1:
        return taken[0]
    zero = [0] * (n + 1)
    return ([sum(column) for column in zip(zero, *(odds for odds, _ in taken))],
            [sum(column) for column in zip(zero, *(evens for _, evens in taken))])


def _key(side: str, cls, statistic) -> tuple:
    """The ``_COUNTS`` key of a class: its family's when it declares one."""
    return side, cls if cls.family is None else cls.family()[0], statistic


def _counts(key: tuple, n: int, cls, tally: Callable, *args) -> tuple[list[int], list[int]]:
    """(odd, even) counts of ``cls`` at sizes 0..N, N >= n, from the entry under ``key``.

    The lists are the store's own, for the caller to read, never to change.
    A class is bucketed by its ``accept`` and read from the True bucket; a
    family member is bucketed by state and read through its ``accept``.
    The member itself is tallied, and its tally becomes the entry, when
    the entry's m or N falls short.
    """
    if cls.family is None:
        m, bucket, take = 0, cls.accept, bool
    else:
        m, bucket, take = cls.family()[1], lambda state: state, cls.accept
    stored = _COUNTS.get(key)
    if stored is None or stored[0] < m or stored[1] < n:
        stored = _COUNTS[key] = m, n, tally(n, cls, bucket, *args)
    return _read(take, *stored[1:])


def tally_compositions(n: int, cls) -> tuple[list[int], list[int]]:
    """(odd-length, even-length) member counts of a composition class, sizes 0..N, N >= n."""
    return _counts(_key("compositions", cls, None), n, cls, _tally)


def tally_partitions(n: int, cls, flip: Callable[[int], bool]) -> tuple[list[int], list[int]]:
    """(odd, even) member counts of a partition class, sizes 0..N, N >= n.

    A value of multiplicity c flips the parity when ``flip(c)``, false at
    c = 0; with ``c % 2 == 1`` the parity is that of the length.  The counts
    are kept per ``flip``, so it must be one named function per statistic:
    a new function object on every call would tally the class every call.
    """
    return _counts(_key("partitions", cls, flip), n, cls, _tally_by_value, flip)
