"""Length-parity tally of a class by its membership automaton.

Each composition or partition class describes its membership rule as a
small automaton: ``start()`` gives the initial state, ``step`` reads one
piece of a member and returns the next state or ``None`` to reject, and
``accept`` says whether a member may end in a state.  A composition is read
one part at a time, and ``_tally`` counts prefixes forward by size: row
``s`` holds the (odd, even) length-parity counts of each state reached by
a prefix of size ``s``.  A partition is read one value at a time, 1, 2,
..., n, each with its multiplicity ``c >= 0``, and ``_tally_by_value``
keeps per state the (odd, even) counts of every size 0..n, adding them,
shifted by c times the value, into the next state: the column-by-column
transfer matrix (Stanley, EC1 4.7).  Neither recurses, a tally to size n
yields every size 0..n, and both use only the class's membership rule,
never a closed form; ``iter_parts`` remains the definition the tests hold
them to.  ``tally_compositions`` and ``tally_partitions`` keep those
counts, never the states, per (side, class, parity statistic): a smaller
size is a lookup, a larger one tallies afresh.  The sweeps in
``compparity.verify`` ask for each class's largest size first.

A tally that would make more than ``MAX_TRIALS`` trials raises
``ValueError``.  A composition trial is a state of a row tried against a
part that still fits, and a row's states are also charged as if each had
one successor on every later row, so a one-state class past the limit is
refused before any work.  A partition trial is one size of one state's
counts tried with one multiplicity: value v costs ``len(states) *
sum(n + 1 - c*v for c in 0..n//v)``, charged before v is read, and a size
whose value-1 layer alone is past the limit is refused before anything is
allocated.  One-state classes reach n = 1999 as compositions and n = 697
as partitions; compositions into distinct parts, whose states are the sets
of parts used, about 65.
"""

from __future__ import annotations

from operator import add
from typing import Callable, Hashable

MAX_TRIALS = 2_000_000


# (side, class, parity statistic) -> (odd, even) counts of sizes 0..N, for
# the largest N tallied in this process
_COUNTS: dict[tuple, tuple[tuple[int, int], ...]] = {}


def _past_limit(n: int) -> ValueError:
    return ValueError(f"size {n} is past the tally limit of {MAX_TRIALS} trials for this class")


def _accepted(row: dict, accept: Callable[[Hashable], bool]) -> tuple[int, int]:
    odd = even = 0
    for state, (o, e) in row.items():
        if accept(state):
            odd += o
            even += e
    return odd, even


def _tally(n: int, cls) -> tuple[tuple[int, int], ...]:
    """(odd, even) counts of accepted compositions of each size 0..n.

    A composition is read one part at a time, and every part flips the
    length parity.
    """
    step = cls.step
    rows = {0: {cls.start(): [0, 1]}}  # the empty composition has even length
    counts = []
    work = 0
    for size in range(n):
        row = rows.pop(size, None)
        if row is None:
            counts.append((0, 0))
            continue
        counts.append(_accepted(row, cls.accept))  # no later part reaches this row
        room = n - size
        # this row's trials, plus those its states would still make with a
        # single successor on every later row
        if work + len(row) * room * (room + 1) // 2 > MAX_TRIALS:
            raise _past_limit(n)
        work += len(row) * room
        for state, (odd, even) in row.items():
            for part in range(1, room + 1):
                nxt = step(state, part)
                if nxt is None:
                    continue
                target = rows.get(size + part)
                if target is None:
                    target = rows[size + part] = {}
                cell = target.get(nxt)
                if cell is None:
                    target[nxt] = [even, odd]
                else:
                    cell[0] += even
                    cell[1] += odd
    counts.append(_accepted(rows.get(n, {}), cls.accept))
    return tuple(counts)


def _tally_by_value(n: int, start: Hashable, step: Callable, accept: Callable[[Hashable], bool],
                    flip: Callable[[int], bool]) -> tuple[tuple[int, int], ...]:
    """(odd, even) counts of accepted partitions of each size 0..n, read by value."""
    if (n + 1) * (n + 2) // 2 > MAX_TRIALS:  # the value-1 layer of the start state
        raise _past_limit(n)
    states = {start: ([0] * (n + 1), [1] + [0] * n)}  # the empty partition, even
    work = 0
    for value in range(1, n + 1):
        top = n // value
        work += len(states) * ((top + 1) * (n + 1) - value * top * (top + 1) // 2)
        if work > MAX_TRIALS:
            raise _past_limit(n)
        after = {}
        for state, (odd, even) in states.items():
            for mult in range(top + 1):
                nxt = step(state, value, mult)
                if nxt is not None:
                    cell = after.setdefault(nxt, ([0] * (n + 1), [0] * (n + 1)))
                    shift = mult * value
                    for dst, src in zip(cell, (even, odd) if flip(mult) else (odd, even)):
                        dst[shift:] = map(add, dst[shift:], src)
        states = after
    odd, even = [0] * (n + 1), [0] * (n + 1)
    for state, (o, e) in states.items():
        if accept(state):
            odd, even = list(map(add, odd, o)), list(map(add, even, e))
    return tuple(zip(odd, even))


def _counts(key: tuple, n: int, tally: Callable, *args) -> tuple[int, int]:
    """(odd, even) counts at size n >= 0: stored under ``key`` or ``tally(n, *args)``."""
    row = _COUNTS.get(key)
    if row is None or len(row) <= n:
        row = _COUNTS[key] = tally(n, *args)
    return row[n]


def tally_compositions(n: int, cls) -> tuple[int, int]:
    """(odd-length, even-length) member counts of a composition class."""
    return _counts(("compositions", cls, None), n, _tally, cls)


def tally_partitions(n: int, cls, flip: Callable[[int], bool]) -> tuple[int, int]:
    """(odd, even) member counts of a partition class.

    A value of multiplicity c flips the parity when ``flip(c)``, false at
    c = 0; with ``c % 2 == 1`` the parity is that of the length.  The counts
    are kept per ``flip``, so it must be one named function per statistic:
    a new function object on every call would tally the class every call.
    """
    return _counts(("partitions", cls, flip), n, _tally_by_value, cls.start(), cls.step,
                   cls.accept, flip)
