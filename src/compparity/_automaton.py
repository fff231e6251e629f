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
of used parts of distinct compositions, is read part by part and nothing
is kept for it.  Whether a state recurs is read from the previous
nonempty row, so the lists follow what the tally meets, not an option of
the class: a one-state class calls ``step`` at most 2n times, not
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
remains the definition the tests hold them to.  ``tally_compositions``
and ``tally_partitions`` keep those counts, never the states, per (side,
class, parity statistic): a smaller size is a lookup, a larger one
tallies afresh.  The sweeps in ``compparity.verify`` read a class's
counts once per row of a sweep, at the row's largest size.

A class may declare a family instead, with ``family()``: its last field
m caps a counter in its state that no move lowers, and ``accept`` asks
for counter = m.  A member's path to a state it accepts never passes m,
so every member with a larger cap makes the same moves on it, to the same
state: the member with the largest m holds every smaller m in its final
states.  Such a family keeps one entry per (side, family, statistic), the
per-state counts of every size 0..N of the widest member tallied so far,
m = M: two lists a state for compositions, the packed ints above for
partitions.  A member with m <= M and n <= N is read from the entry
through its own ``accept`` and gets no entry of its own.  Any other
request tallies the member itself, never a wider one, and that tally
becomes the entry: a wider member costs more trials, so it may be
refused at a size the member reaches (``InitialTwoRepsWithMarks`` at
size 300 is served up to m = 13), and tallying it instead would move the
refused sizes and their messages.

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

import functools
import math
from collections.abc import Callable, Hashable

MAX_TRIALS = 2_000_000


# (side, class or family, parity statistic) -> what its tallies left: a
# class's (odd, even) counts of sizes 0..N, for the largest N tallied in
# this process; a family's (m, N, read) of its widest member tallied so
# far, where ``read(accept, n)`` sums that member's per-state counts
_COUNTS: dict[tuple, tuple] = {}


def _past_limit(n: int) -> ValueError:
    return ValueError(f"size {n} is past the tally limit of {MAX_TRIALS} trials for this class")


def _accepted(row: dict, accept: Callable[[Hashable], bool]) -> tuple[int, int]:
    odd = even = 0
    for state, (o, e) in row.items():
        if accept(state):
            odd += o
            even += e
    return odd, even


def _keep(states: dict, row: dict, size: int, n: int) -> None:
    """Set each state's (odd, even) counts at ``size`` in its two lists of sizes 0..n."""
    for state, (odd, even) in row.items():
        lists = states.get(state)
        if lists is None:
            lists = states[state] = [0] * (n + 1), [0] * (n + 1)
        lists[0][size] = odd
        lists[1][size] = even


def _read_lists(states: dict, accept: Callable[[Hashable], bool],
                n: int) -> tuple[tuple[int, int], ...]:
    """(odd, even) counts of sizes 0..n, summed over the accepted states' lists."""
    odd, even = [0] * (n + 1), [0] * (n + 1)
    for state, (odds, evens) in states.items():
        if accept(state):
            odd = [a + b for a, b in zip(odd, odds)]
            even = [a + b for a, b in zip(even, evens)]
    return tuple(zip(odd, even))


def _tally(n: int, cls, by_state: bool = False):
    """(odd, even) counts of accepted compositions of each size 0..n.

    A composition is read one part at a time, and every part flips the
    length parity.  With ``by_state`` it keeps every state's counts
    instead and returns their reader, ``read(accept, n)``.
    """
    # the start row's charge, as below, made before the rows are allocated
    if n * (n + 1) // 2 > MAX_TRIALS:
        raise _past_limit(n)
    step, accept = cls.step, cls.accept
    rows: list[dict | None] = [None] * (n + 1)
    rows[0] = {cls.start(): [0, 1]}  # the empty composition has even length
    moves = {}  # state -> its accepted (part, next), parts 1..room of its second row
    previous = {}  # the last nonempty row
    counts = []
    states = {}  # with by_state: state -> its odd and even counts of sizes 0..n
    work = 0
    for size in range(n):
        row = rows[size]
        if row is None:
            counts.append((0, 0))
            continue
        rows[size] = None
        # no later part reaches this row
        if by_state:
            _keep(states, row, size, n)
        else:
            counts.append(_accepted(row, accept))
        room = n - size
        # this row's trials, plus those its states would still make with a
        # single successor on every later row
        if work + len(row) * room * (room + 1) // 2 > MAX_TRIALS:
            raise _past_limit(n)
        work += len(row) * room
        for state, (odd, even) in row.items():
            listed = moves.get(state)
            if listed is None:
                if state not in previous:  # met once so far: read part by part
                    # the same additions as below, written out: a loop shared
                    # through a generator made distinct compositions 25% slower
                    for part in range(1, room + 1):
                        nxt = step(state, part)
                        if nxt is None:
                            continue
                        target = rows[size + part]
                        if target is None:
                            target = rows[size + part] = {}
                        cell = target.get(nxt)
                        if cell is None:
                            target[nxt] = [even, odd]
                        else:
                            cell[0] += even
                            cell[1] += odd
                    continue
                listed = moves[state] = [(part, nxt) for part in range(1, room + 1)
                                         if (nxt := step(state, part)) is not None]
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
    if by_state:
        _keep(states, rows[n] or {}, n, n)
        return functools.partial(_read_lists, states)
    counts.append(_accepted(rows[n] or {}, accept))
    return tuple(counts)


def _slot_bits(n: int) -> int:
    """Bits of one packed count of a size 0..n: isqrt(14n) + 1, in whole bytes."""
    return -(-(math.isqrt(14 * n) + 1) // 8) * 8


def _read_packed(states: dict, width: int, accept: Callable[[Hashable], bool],
                 n: int) -> tuple[tuple[int, int], ...]:
    """(odd, even) counts of sizes 0..n, summed over the accepted states' packed ints."""
    size, low = width // 8, (1 << (n + 1) * width) - 1
    odd, even = ((x & low).to_bytes((n + 1) * size, "little")
                 for x in _accepted(states, accept))
    odds = [int.from_bytes(odd[i:i + size], "little") for i in range(0, len(odd), size)]
    evens = [int.from_bytes(even[i:i + size], "little") for i in range(0, len(even), size)]
    return tuple(zip(odds, evens))


def _tally_by_value(n: int, cls, flip: Callable[[int], bool], by_state: bool = False):
    """(odd, even) counts of accepted partitions of each size 0..n, read by value.

    Size s sits in bits s*w..s*w+w-1 of a state's odd and even ints.  Its
    slot counts distinct partitions of s <= n, below 2^w, so it never
    carries, nor does it in a sum over states; the slots above n, masked
    off once per value, carry only up.  With ``by_state`` it returns the
    reader of every state's counts, ``read(accept, n)``.
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
    if by_state:
        return functools.partial(_read_packed, states, width)
    return _read_packed(states, width, cls.accept, n)


def _key(side: str, cls, statistic) -> tuple:
    """The ``_COUNTS`` key of a class: its family's when it declares one."""
    return side, cls if cls.family is None else cls.family()[0], statistic


def _counts(key: tuple, n: int, cls, tally: Callable, *args) -> tuple[tuple[int, int], ...]:
    """(odd, even) counts of ``cls`` at sizes 0..N, N >= n, from the entry under ``key``.

    A class's entry is ``tally(n, cls, *args)``, made again for a larger n.
    A member of a family with m <= M and n <= N, the entry's, is read from
    it through the member's ``accept``; any other is tallied itself, by
    state, and that tally becomes the entry.
    """
    stored = _COUNTS.get(key)
    if cls.family is None:
        if stored is None or len(stored) <= n:
            stored = _COUNTS[key] = tally(n, cls, *args)
        return stored
    m = cls.family()[1]
    if stored is None or stored[0] < m or stored[1] < n:
        stored = _COUNTS[key] = m, n, tally(n, cls, *args, by_state=True)
    return stored[2](cls.accept, n)


def tally_compositions(n: int, cls) -> tuple[tuple[int, int], ...]:
    """(odd-length, even-length) member counts of a composition class, sizes 0..N, N >= n."""
    return _counts(_key("compositions", cls, None), n, cls, _tally)


def tally_partitions(n: int, cls, flip: Callable[[int], bool]) -> tuple[tuple[int, int], ...]:
    """(odd, even) member counts of a partition class, sizes 0..N, N >= n.

    A value of multiplicity c flips the parity when ``flip(c)``, false at
    c = 0; with ``c % 2 == 1`` the parity is that of the length.  The counts
    are kept per ``flip``, so it must be one named function per statistic:
    a new function object on every call would tally the class every call.
    """
    return _counts(_key("partitions", cls, flip), n, cls, _tally_by_value, flip)
