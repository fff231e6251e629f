"""Length-parity tally of a class by its membership automaton.

Each composition or partition class describes its membership rule as a
small automaton: ``start()`` gives the initial state, ``step`` reads one
piece of a member and returns the next state or ``None`` to reject, and
``accept`` says whether a member may end in a state.  A composition is
read one part at a time, left to right.  A partition is read one block at
a time in increasing order of value: a block is a value ``j`` above the
previous value with its multiplicity ``c >= 1``, and ``step`` is also told
the values skipped since the previous block.

``_tally`` counts members forward by size: row ``s`` maps each state
reachable by a prefix of size ``s`` to the (odd, even) numbers of such
prefixes, split by length parity.  Rows are filled in increasing order and
every piece has positive size, so no recursion is needed and the work is
polynomial in n for every class whose states stay few.  The tally uses only
each class's own membership rule, never a closed form, so it stays an
independent route; ``iter_parts`` remains the definition that the tests
hold it to.

``MAX_TRIALS`` bounds the tally: each state of a row is tried against every
part or block value that still fits, and a tally that would make more than
``MAX_TRIALS`` such trials raises ``ValueError`` instead of running for
minutes.  Classes with one state (all compositions, parts >= k, ...) reach
n = 1999, the small-part composition classes 600 to 1000, compositions
into distinct parts, whose states are the sets of parts used, about 65,
and the partition classes 150 to 240.  Before a row is expanded, its
states are charged as if each had one successor on every later row, so a
one-state class past the limit is refused before any work.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator

MAX_TRIALS = 2_000_000

Moves = Callable[[Hashable, int], Iterator[tuple[Hashable, int, bool]]]


def _tally(n: int, start: Hashable, moves: Moves,
           accept: Callable[[Hashable], bool]) -> tuple[int, int]:
    """(odd, even) counts of accepted readings of total size n.

    ``moves(state, room)`` yields ``(next_state, size, flip)`` for every
    piece of size at most ``room`` the automaton accepts from ``state``;
    ``flip`` says whether the piece changes the length parity.
    """
    rows = {0: {start: [0, 1]}}  # the empty reading has even length
    work = 0
    for size in range(n):
        row = rows.pop(size, None)
        if row is None:
            continue
        room = n - size
        # this row's trials, plus those its states would still make with a
        # single successor on every later row
        if work + len(row) * room * (room + 1) // 2 > MAX_TRIALS:
            raise ValueError(
                f"size {n} is past the tally limit of {MAX_TRIALS} trials for this class"
            )
        work += len(row) * room
        for state, (odd, even) in row.items():
            for nxt, piece, flip in moves(state, room):
                o, e = (even, odd) if flip else (odd, even)
                target = rows.get(size + piece)
                if target is None:
                    target = rows[size + piece] = {}
                cell = target.get(nxt)
                if cell is None:
                    target[nxt] = [o, e]
                else:
                    cell[0] += o
                    cell[1] += e
    odd = even = 0
    for state, (o, e) in rows.get(n, {}).items():
        if accept(state):
            odd += o
            even += e
    return odd, even


def tally_compositions(n: int, cls) -> tuple[int, int]:
    """(odd-length, even-length) member counts of a composition class."""
    step = cls.step

    def moves(state, room):
        for part in range(1, room + 1):
            nxt = step(state, part)
            if nxt is not None:
                yield nxt, part, True

    return _tally(n, cls.start(), moves, cls.accept)


def tally_partitions(n: int, cls, flip: Callable[[int], bool]) -> tuple[int, int]:
    """(odd, even) member counts of a partition class.

    A block of multiplicity c flips the parity when ``flip(c)``; with
    ``c % 2 == 1`` the parity is that of the length.
    """
    step = cls.step

    def moves(state, room):
        prev, inner = state
        for value in range(prev + 1, room + 1):
            skipped = range(prev + 1, value)
            for mult in range(1, room // value + 1):
                nxt = step(inner, value, mult, skipped)
                if nxt is not None:
                    yield (value, nxt), value * mult, flip(mult)

    return _tally(n, (0, cls.start()), moves, lambda state: cls.accept(state[1]))
