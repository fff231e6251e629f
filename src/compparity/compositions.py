"""Compositions with restricted parts: definitions, enumeration and counts.

A composition of n is an ordered tuple of positive integers summing to n;
the empty composition is the unique composition of 0.  Each restriction
class pairs a membership predicate (``contains``) with a pruned recursive
generator (``iter_parts``); the test suite checks the two against each
other, and together they define the class.  Theorems 1-3 restrict parts
to an eventually periodic set: one class, ``PartsIn``, that ``All``,
``MinPart``, ``MinPartCongruent`` and ``OddParts`` construct.  Theorem 4's
unguarded companion and the comp3 identity allow exactly m marked parts
outside such a set, each at least some bound: one class, ``MarkedParts``,
that ``ExactSmall`` and ``ModOneExcept`` construct.

Counts do not walk the members.  Each class also states its membership
rule as an automaton that reads one part at a time (``start``, ``step``,
``accept``), and ``signed_count`` / ``count_compositions`` tally members
by length parity over (size, state) in ``compparity._automaton``.  The
tests hold that tally to a parity count taken straight from
``iter_parts``; it uses no closed form, so it stays the enumeration route
against which every formula and generating function in this package is
verified.  A tally past the work budget of ``compparity._budget`` raises
``ValueError``: one-state classes reach n = 1999, compositions into
distinct parts about 65.  A tally to size n yields the counts of every
size up to n, kept in one store per class for the rest of the process: a
smaller size is then a lookup, and a larger one tallies afresh.
``MarkedParts`` and ``GuardedSmall`` declare a family over m, whose store
keeps the counts of each state of its widest member tallied, so that
every smaller m is read from it.  ``counts_by_size`` hands back the
counts of every size up to n.

Enumeration order is lexicographic on part tuples, so golden outputs are
stable.  Signed counting tracks length parity: ``SignedCount.diff`` is the
number of odd-length members minus the number of even-length members.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator

from compparity._automaton import tally_compositions
from compparity._value import Value


class SignedCount(Value):
    """Counts of odd-length and even-length members of a finite class."""

    __slots__ = ("odd_count", "even_count")

    @property
    def diff(self) -> int:
        """Odd-length count minus even-length count."""
        return self.odd_count - self.even_count

    @property
    def total(self) -> int:
        return self.odd_count + self.even_count


class CompositionClass(Value):
    """Base class for part restrictions.

    Subclasses supply ``contains`` (a direct predicate on part tuples),
    ``iter_parts`` (a generator over all members of given size, in
    lexicographic order, each exactly once) and ``step``, which with
    ``start`` and ``accept`` reads a member one part at a time: it returns
    the state after ``part`` or ``None`` when no member continues so.  The
    defaults suit a one-state rule on each part alone.  The subclasses are
    ``PartsIn`` (one state), ``MarkedParts`` (the state counts the marked
    parts), ``GuardedSmall`` (small parts and a phase) and
    ``DistinctParts`` (the set of parts used).

    A class whose last field m caps a counter in its state, which no move
    lowers and which ``accept`` asks to equal m, declares so with a method
    ``family()``: (make, *args) such that the class is ``make(*args, m)``,
    and m.  ``counter(state)`` reads that counter.  The tally then serves
    every m of a family from one tally of its widest member.
    """

    __slots__ = ()

    family = None  # a class with no counter capped by m

    def contains(self, parts: tuple[int, ...]) -> bool:
        raise NotImplementedError

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        raise NotImplementedError

    def start(self) -> Hashable:
        return 0

    def step(self, state: Hashable, part: int) -> Hashable | None:
        raise NotImplementedError

    def accept(self, state: Hashable) -> bool:
        return True


def _check_size(n: int) -> None:
    if n < 0:
        raise ValueError(f"composition size must be >= 0, got {n}")


class PartsIn(CompositionClass):
    """Every part p has p >= least and p % period in residues, kept sorted and once each."""

    __slots__ = ("least", "period", "residues")

    def __init__(self, least: int, period: int, residues: tuple[int, ...]) -> None:
        # the fields as given, so that an error shows them; then the sorted residues
        object.__setattr__(self, "least", least)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "residues", residues)
        residues = tuple(sorted(set(residues)))
        if least < 1 or period < 1 or not residues or not (
                0 <= residues[0] and residues[-1] < period):
            raise ValueError("PartsIn requires least, period >= 1 and a nonempty set of "
                             f"residues in 0..period-1, got {self}")
        object.__setattr__(self, "residues", residues)

    def contains(self, parts: tuple[int, ...]) -> bool:
        return all(p >= self.least and p % self.period in self.residues for p in parts)

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        _check_size(n)
        allowed = [p for p in range(self.least, n + 1) if p % self.period in self.residues]

        def rec(rem: int) -> Iterator[tuple[int, ...]]:
            if rem == 0:
                yield ()
            for first in allowed:
                if first > rem:
                    return
                for rest in rec(rem - first):
                    yield (first,) + rest

        return rec(n)

    def step(self, state: int, part: int) -> int | None:
        return 0 if part >= self.least and part % self.period in self.residues else None


# Named part sets, each returning a PartsIn; classes, so perfbench's tracer skips them.
class All:
    """No restriction: all 2^(n-1) compositions of n >= 1."""

    def __new__(cls) -> PartsIn:
        return PartsIn(1, 1, (0,))


class MinPart:
    """Every part at least k."""

    def __new__(cls, k: int) -> PartsIn:
        if k < 1:
            raise ValueError(f"MinPart requires k >= 1, got k={k}")
        return PartsIn(k, 1, (0,))


class MinPartCongruent:
    """Every part at least k and congruent to k+s mod r, 0 <= s < r: k+s, k+s+r, ..."""

    def __new__(cls, k: int, r: int, s: int) -> PartsIn:
        if k < 1:
            raise ValueError(f"MinPartCongruent requires k >= 1, got k={k}")
        if r < 1:
            raise ValueError(f"MinPartCongruent requires r >= 1, got r={r}")
        if not 0 <= s < r:
            raise ValueError(f"MinPartCongruent requires 0 <= s < r, got s={s}, r={r}")
        return PartsIn(k, r, ((k + s) % r,))


class OddParts:
    """Every part odd."""

    def __new__(cls) -> PartsIn:
        return PartsIn(1, 2, (1,))


class DistinctParts(CompositionClass):
    """All parts pairwise distinct."""

    __slots__ = ()

    def contains(self, parts: tuple[int, ...]) -> bool:
        return len(set(parts)) == len(parts)

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        _check_size(n)

        def rec(rem: int, used: frozenset[int]) -> Iterator[tuple[int, ...]]:
            if rem == 0:
                yield ()
                return
            for first in range(1, rem + 1):
                if first in used:
                    continue
                for rest in rec(rem - first, used | {first}):
                    yield (first,) + rest

        return rec(n, frozenset())

    def step(self, used: int, part: int) -> int | None:
        # the state is the set of parts used so far, as a bit mask
        return None if used >> part & 1 else used | 1 << part


class MarkedParts(CompositionClass):
    """Every part lies in ``plain`` or is a marked part >= least; exactly m are marked."""

    __slots__ = ("plain", "least", "m")

    def __init__(self, plain: PartsIn, least: int, m: int) -> None:
        if least < 1:
            raise ValueError(f"MarkedParts requires least >= 1, got least={least}")
        if m < 0:
            raise ValueError(f"MarkedParts requires m >= 0, got m={m}")
        object.__setattr__(self, "plain", plain)
        object.__setattr__(self, "least", least)
        object.__setattr__(self, "m", m)

    def contains(self, parts: tuple[int, ...]) -> bool:
        marked = [p for p in parts if not self.plain.contains((p,))]
        return len(marked) == self.m and all(p >= self.least for p in marked)

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        _check_size(n)
        inside = self.plain.contains
        # each part a member may have, with 1 when it is marked
        allowed = [(p, 0 if inside((p,)) else 1) for p in range(1, n + 1)
                   if p >= self.least or inside((p,))]

        # prune as soon as the marked-part budget is overdrawn
        def rec(rem: int, budget: int) -> Iterator[tuple[int, ...]]:
            if rem == 0:
                if budget == 0:
                    yield ()
                return
            for first, marked in allowed:
                if first > rem:
                    return
                if marked > budget:
                    continue
                for rest in rec(rem - first, budget - marked):
                    yield (first,) + rest

        return rec(n, self.m)

    def step(self, marked: int, part: int) -> int | None:
        # the state counts the marked parts read so far; ``plain`` is read
        # inline, since a call here would slow the tally's hot loop
        plain = self.plain
        if part >= plain.least and part % plain.period in plain.residues:
            return marked
        return marked + 1 if part >= self.least and marked < self.m else None

    def accept(self, marked: int) -> bool:
        return marked == self.m

    def family(self) -> tuple[tuple, int]:
        return (MarkedParts, self.plain, self.least), self.m

    def counter(self, marked: int) -> int:
        return marked


# Marked-part classes, each returning a MarkedParts; classes, as above.
class ExactSmall:
    """Exactly m parts strictly less than k (the remaining parts are >= k)."""

    def __new__(cls, k: int, m: int) -> MarkedParts:
        if k < 1:
            raise ValueError(f"ExactSmall requires k >= 1, got k={k}")
        if m < 0:
            raise ValueError(f"ExactSmall requires m >= 0, got m={m}")
        return MarkedParts(PartsIn(k, 1, (0,)), 1, m)


class ModOneExcept:
    """Parts congruent to 1 mod k, except exactly m parts, each > k.

    The m exceptional parts must both exceed k and lie outside the residue
    class 1 mod k.
    """

    def __new__(cls, k: int, m: int) -> MarkedParts:
        if k < 1:
            raise ValueError(f"ModOneExcept requires k >= 1, got k={k}")
        if m < 0:
            raise ValueError(f"ModOneExcept requires m >= 0, got m={m}")
        return MarkedParts(PartsIn(1, k, (1 % k,)), k + 1, m)


# phases of the GuardedSmall automaton
_OPEN, _BIG, _PENDING, _MUST_END = range(4)


def is_guarded(parts: tuple[int, ...], k: int) -> bool:
    """True when every part < k sits in a guarded position.

    A part < k at index i is guarded when it is preceded by a part >= k
    and has a successor which is either the final part of the composition
    or exceeds k.  In particular a small part can never open or close the
    composition.
    """
    last = len(parts) - 1
    for i, p in enumerate(parts):
        if p >= k:
            continue
        if i == 0 or parts[i - 1] < k:
            return False
        if i == last:
            return False
        if i + 1 != last and parts[i + 1] <= k:
            return False
    return True


class GuardedSmall(CompositionClass):
    """Exactly m parts < k, each of them guarded (see ``is_guarded``)."""

    __slots__ = ("k", "m")

    def __init__(self, k: int, m: int) -> None:
        if k < 1:
            raise ValueError(f"GuardedSmall requires k >= 1, got k={k}")
        if m < 0:
            raise ValueError(f"GuardedSmall requires m >= 0, got m={m}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)

    def contains(self, parts: tuple[int, ...]) -> bool:
        small = sum(1 for p in parts if p < self.k)
        return small == self.m and is_guarded(parts, self.k)

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        _check_size(n)
        k = self.k
        return (c for c in ExactSmall(k, self.m).iter_parts(n) if is_guarded(c, k))

    # A transfer-matrix state (small parts used, phase) with the phases:
    # nothing read yet; last part >= k; a small part waiting for a
    # successor > k; and must end, after a part equal to k has followed a
    # small part (that k may only be the final part).
    def start(self) -> tuple[int, int]:
        return 0, _OPEN

    def step(self, state: tuple[int, int], part: int) -> tuple[int, int] | None:
        small, phase = state
        k = self.k
        if phase == _MUST_END:
            return None
        if part < k:
            # a small part needs a predecessor >= k and no more than m of them
            if phase != _BIG or small == self.m:
                return None
            return small + 1, _PENDING
        if phase == _PENDING and part == k:
            return small, _MUST_END
        return small, _BIG

    def accept(self, state: tuple[int, int]) -> bool:
        small, phase = state
        return small == self.m and phase != _PENDING

    def family(self) -> tuple[tuple, int]:
        return (GuardedSmall, self.k), self.m

    def counter(self, state: tuple[int, int]) -> int:
        return state[0]


def count_compositions(n: int, cls: CompositionClass) -> int:
    return signed_count(n, cls).total


def signed_count(n: int, cls: CompositionClass) -> SignedCount:
    """Tally members of the class by length parity over its automaton.

    The empty composition of 0 has length 0 and counts as even, so
    ``signed_count(0, All()).diff == -1``.
    """
    _check_size(n)
    odd, even = tally_compositions(n, cls)
    return SignedCount(odd[n], even[n])


def counts_by_size(n: int, cls: CompositionClass) -> tuple[tuple[int, int], ...]:
    """(odd-length, even-length) member counts of each size 0..n, from one tally."""
    _check_size(n)
    odd, even = tally_compositions(n, cls)
    return tuple(zip(odd[:n + 1], even[:n + 1]))


def signed_count_distinct(n: int) -> int:
    """Even-length minus odd-length count over distinct-part compositions.

    Note the reversed orientation relative to ``SignedCount.diff``; this is
    the convention OEIS A339435 uses, with value 1 at n = 0.
    """
    sc = signed_count(n, DistinctParts())
    return sc.even_count - sc.odd_count
