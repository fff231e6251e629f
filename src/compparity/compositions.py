"""Compositions with restricted parts: definitions, enumeration and counts.

A composition of n is an ordered tuple of positive integers summing to n;
the empty composition is the unique composition of 0.  Each restriction
class pairs a membership predicate (``contains``) with a pruned recursive
generator (``iter_parts``); the test suite checks the two against each
other, and together they define the class.

Counts do not walk the members.  Each class also states its membership
rule as an automaton that reads one part at a time (``start``, ``step``,
``accept``), and ``signed_count`` / ``count_compositions`` tally members
by length parity over (size, state) in ``compparity._automaton``.  The
tests hold that tally to a parity count taken straight from
``iter_parts``; it uses no closed form, so it stays the enumeration route
against which every formula, generating function and bijection in this
package is verified.  A tally past ``_automaton.MAX_TRIALS`` trials raises
``ValueError``: one-state classes reach n = 1999, compositions into
distinct parts about 65.  A tally to size n yields the counts of every
size up to n, and only those counts are kept, per class, for the rest of
the process: a smaller size is then a lookup, and a larger one tallies
afresh.

Enumeration order is lexicographic on part tuples, so golden outputs are
stable.  Signed counting tracks length parity: ``SignedCount.diff`` is the
number of odd-length members minus the number of even-length members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator

from compparity._automaton import tally_compositions


@dataclass(frozen=True, order=True)
class Composition:
    """Ordered tuple of positive integer parts; sorts lexicographically."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, p in enumerate(self.parts):
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"part {p!r} at index {i} is not a positive integer")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class SignedCount:
    """Counts of odd-length and even-length members of a finite class."""

    odd_count: int
    even_count: int

    @property
    def diff(self) -> int:
        """Odd-length count minus even-length count."""
        return self.odd_count - self.even_count

    @property
    def total(self) -> int:
        return self.odd_count + self.even_count


class CompositionClass:
    """Base class for part restrictions.

    Subclasses supply ``contains`` (a direct predicate on part tuples),
    ``iter_parts`` (a generator over all members of given size, in
    lexicographic order, each exactly once) and ``step``, which with
    ``start`` and ``accept`` reads a member one part at a time: it returns
    the state after ``part`` or ``None`` when no member continues so.  The
    defaults suit a one-state rule on each part alone.
    """

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


def _iter_progression(n: int, start: int, step: int) -> Iterator[tuple[int, ...]]:
    """Compositions of n with parts in {start, start+step, ...}, lex order."""
    if n == 0:
        yield ()
        return
    for first in range(start, n + 1, step):
        for rest in _iter_progression(n - first, start, step):
            yield (first,) + rest


@dataclass(frozen=True)
class All(CompositionClass):
    """No restriction: all 2^(n-1) compositions of n >= 1."""

    def contains(self, parts: tuple[int, ...]) -> bool:
        return True

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        _check_size(n)
        return _iter_progression(n, 1, 1)

    def step(self, state: int, part: int) -> int:
        return 0


@dataclass(frozen=True)
class MinPart(CompositionClass):
    """Every part at least k."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"MinPart requires k >= 1, got k={self.k}")

    def contains(self, parts: tuple[int, ...]) -> bool:
        return all(p >= self.k for p in parts)

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        _check_size(n)
        return _iter_progression(n, self.k, 1)

    def step(self, state: int, part: int) -> int | None:
        return 0 if part >= self.k else None


@dataclass(frozen=True)
class MinPartCongruent(CompositionClass):
    """Every part at least k and congruent to k+s modulo r.

    With 0 <= s < r the allowed part values are exactly
    {k+s, k+s+r, k+s+2r, ...}.
    """

    k: int
    r: int
    s: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"MinPartCongruent requires k >= 1, got k={self.k}")
        if self.r < 1:
            raise ValueError(f"MinPartCongruent requires r >= 1, got r={self.r}")
        if not 0 <= self.s < self.r:
            raise ValueError(
                f"MinPartCongruent requires 0 <= s < r, got s={self.s}, r={self.r}"
            )

    def contains(self, parts: tuple[int, ...]) -> bool:
        k, r, s = self.k, self.r, self.s
        return all(p >= k and p % r == (k + s) % r for p in parts)

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        _check_size(n)
        return _iter_progression(n, self.k + self.s, self.r)

    def step(self, state: int, part: int) -> int | None:
        k, r, s = self.k, self.r, self.s
        return 0 if part >= k and part % r == (k + s) % r else None


@dataclass(frozen=True)
class OddParts(CompositionClass):
    """Every part odd."""

    def contains(self, parts: tuple[int, ...]) -> bool:
        return all(p % 2 == 1 for p in parts)

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        _check_size(n)
        return _iter_progression(n, 1, 2)

    def step(self, state: int, part: int) -> int | None:
        return 0 if part % 2 == 1 else None


@dataclass(frozen=True)
class DistinctParts(CompositionClass):
    """All parts pairwise distinct."""

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


@dataclass(frozen=True)
class ExactSmall(CompositionClass):
    """Exactly m parts strictly less than k (the remaining parts are >= k)."""

    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"ExactSmall requires k >= 1, got k={self.k}")
        if self.m < 0:
            raise ValueError(f"ExactSmall requires m >= 0, got m={self.m}")

    def contains(self, parts: tuple[int, ...]) -> bool:
        return sum(1 for p in parts if p < self.k) == self.m

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        _check_size(n)
        return _iter_exact_small(n, self.k, self.m)

    def step(self, small: int, part: int) -> int | None:
        # the state counts the small parts read so far
        if part < self.k:
            small += 1
        return small if small <= self.m else None

    def accept(self, small: int) -> bool:
        return small == self.m


def _iter_exact_small(n: int, k: int, m: int) -> Iterator[tuple[int, ...]]:
    # prune as soon as the small-part budget m is overdrawn
    if n == 0:
        if m == 0:
            yield ()
        return
    for first in range(1, n + 1):
        m2 = m - 1 if first < k else m
        if m2 < 0:
            continue
        for rest in _iter_exact_small(n - first, k, m2):
            yield (first,) + rest


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


@dataclass(frozen=True)
class GuardedSmall(CompositionClass):
    """Exactly m parts < k, each of them guarded (see ``is_guarded``)."""

    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"GuardedSmall requires k >= 1, got k={self.k}")
        if self.m < 0:
            raise ValueError(f"GuardedSmall requires m >= 0, got m={self.m}")

    def contains(self, parts: tuple[int, ...]) -> bool:
        small = sum(1 for p in parts if p < self.k)
        return small == self.m and is_guarded(parts, self.k)

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        _check_size(n)
        k = self.k
        return (c for c in _iter_exact_small(n, k, self.m) if is_guarded(c, k))

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


@dataclass(frozen=True)
class ModOneExcept(CompositionClass):
    """Parts congruent to 1 mod k, except exactly m parts, each > k.

    The m exceptional parts must both exceed k and lie outside the residue
    class 1 mod k.
    """

    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"ModOneExcept requires k >= 1, got k={self.k}")
        if self.m < 0:
            raise ValueError(f"ModOneExcept requires m >= 0, got m={self.m}")

    def contains(self, parts: tuple[int, ...]) -> bool:
        k = self.k
        bad = [p for p in parts if p % k != 1 % k]
        return len(bad) == self.m and all(p > k for p in bad)

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        _check_size(n)
        return _iter_mod_one_except(n, self.k, self.m)

    def step(self, bad: int, part: int) -> int | None:
        # the state counts the exceptional parts read so far
        k = self.k
        if part % k == 1 % k:
            return bad
        return bad + 1 if part > k and bad < self.m else None

    def accept(self, bad: int) -> bool:
        return bad == self.m


def _iter_mod_one_except(n: int, k: int, m: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        if m == 0:
            yield ()
        return
    res = 1 % k
    for first in range(1, n + 1):
        if first % k == res:
            m2 = m
        elif first > k and m > 0:
            m2 = m - 1
        else:
            continue
        for rest in _iter_mod_one_except(n - first, k, m2):
            yield (first,) + rest


def enumerate_compositions(n: int, cls: CompositionClass) -> list[Composition]:
    """All compositions of n in the class, lexicographic, each once."""
    return [Composition(parts) for parts in cls.iter_parts(n)]


def count_compositions(n: int, cls: CompositionClass) -> int:
    return signed_count(n, cls).total


def signed_count(n: int, cls: CompositionClass) -> SignedCount:
    """Tally members of the class by length parity over its automaton.

    The empty composition of 0 has length 0 and counts as even, so
    ``signed_count(0, All()).diff == -1``.
    """
    _check_size(n)
    return SignedCount(*tally_compositions(n, cls))


def signed_count_distinct(n: int) -> int:
    """Even-length minus odd-length count over distinct-part compositions.

    Note the reversed orientation relative to ``SignedCount.diff``; this is
    the convention OEIS A339435 uses, with value 1 at n = 0.
    """
    sc = signed_count(n, DistinctParts())
    return sc.even_count - sc.odd_count
