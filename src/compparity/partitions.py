"""Integer partitions with restricted parts: definitions, enumeration, counts.

Partitions are weakly decreasing tuples of positive integers.  Enumeration
is in descending lexicographic order on part tuples, e.g. for n = 4:
(4), (3,1), (2,2), (2,1,1), (1,1,1,1).  As with compositions, every class
carries both a predicate and a generator, which define it, and a
membership automaton that reads a partition one value at a time, 1, 2, ...,
each with its multiplicity (0 when the value does not occur).
``signed_count`` and ``count_partitions`` tally that automaton in
``compparity._automaton`` instead of walking the members; the tests hold
the tally to ``iter_parts``.  It is the oracle for the classical partition
identities checked elsewhere in the package.  A one-state class reaches
n = 697; past ``_automaton.MAX_TRIALS`` trials the tally raises
``ValueError``.  Counts are kept per class and statistic, so the length
parity here and the singleton sign of ``andrews_singleton_delta`` never mix.

Partition-side signed results are reported as even-length minus odd-length
(the opposite orientation from the composition side); ``signed_count``
itself just returns both tallies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator

from compparity._automaton import tally_partitions
from compparity.compositions import SignedCount


@dataclass(frozen=True, order=True)
class Partition:
    """Weakly decreasing tuple of positive integer parts; sorts lexicographically."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, p in enumerate(self.parts):
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"part {p!r} at index {i} is not a positive integer")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {self.parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def multiplicities(self) -> dict[int, int]:
        return dict(Counter(self.parts))


class PartitionClass:
    """Base class for partition restrictions.

    A subclass supplies ``contains``, and may replace the filtering
    ``iter_parts`` with a generator of its own.  It also supplies ``step``,
    which with ``start`` and ``accept`` reads the values 1, 2, ... in turn:
    ``mult >= 0`` copies of ``value``.  It returns the next state, or
    ``None`` when no member continues so; reading ``mult == 0`` past a
    member's largest part must leave ``accept`` unchanged.  The defaults
    suit a one-state rule on each value alone.
    """

    def contains(self, parts: tuple[int, ...]) -> bool:
        raise NotImplementedError

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        """The members of size n: by default every partition that ``contains`` accepts."""
        _check_size(n)
        return _filtered(n, self.contains)

    def start(self) -> Hashable:
        return 0

    def step(self, state: Hashable, value: int, mult: int) -> Hashable | None:
        raise NotImplementedError

    def accept(self, state: Hashable) -> bool:
        return True


def _check_size(n: int) -> None:
    if n < 0:
        raise ValueError(f"partition size must be >= 0, got {n}")


def _iter_partitions(
    n: int,
    max_part: int,
    allowed: Callable[[int], bool] | None,
    strict: bool,
) -> Iterator[tuple[int, ...]]:
    """Weakly (or strictly) decreasing part tuples, descending lex order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        if allowed is not None and not allowed(first):
            continue
        cap = first - 1 if strict else first
        for rest in _iter_partitions(n - first, cap, allowed, strict):
            yield (first,) + rest


def _filtered(n: int, pred: Callable[[tuple[int, ...]], bool]) -> Iterator[tuple[int, ...]]:
    return (p for p in _iter_partitions(n, n if n else 1, None, False) if pred(p))


@dataclass(frozen=True)
class All(PartitionClass):
    def contains(self, parts: tuple[int, ...]) -> bool:
        return True

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        _check_size(n)
        return _iter_partitions(n, n if n else 1, None, False)

    def step(self, state: int, value: int, mult: int) -> int:
        return 0


@dataclass(frozen=True)
class DistinctParts(PartitionClass):
    def contains(self, parts: tuple[int, ...]) -> bool:
        return len(set(parts)) == len(parts)

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        _check_size(n)
        return _iter_partitions(n, n if n else 1, None, True)

    def step(self, state: int, value: int, mult: int) -> int | None:
        return 0 if mult <= 1 else None


@dataclass(frozen=True)
class OddParts(PartitionClass):
    def contains(self, parts: tuple[int, ...]) -> bool:
        return all(p % 2 == 1 for p in parts)

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        _check_size(n)
        return _iter_partitions(n, n if n else 1, lambda p: p % 2 == 1, False)

    def step(self, state: int, value: int, mult: int) -> int | None:
        return 0 if mult == 0 or value % 2 == 1 else None


@dataclass(frozen=True)
class DistinctInResidues(PartitionClass):
    """Distinct parts, all lying in the given residue set modulo ``modulus``."""

    modulus: int
    residues: frozenset[int]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if not self.residues:
            raise ValueError("residue set must be nonempty")
        if any(not 0 <= r < self.modulus for r in self.residues):
            raise ValueError(
                f"residues {sorted(self.residues)} out of range for modulus {self.modulus}"
            )

    def contains(self, parts: tuple[int, ...]) -> bool:
        if len(set(parts)) != len(parts):
            return False
        return all(p % self.modulus in self.residues for p in parts)

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        _check_size(n)
        mod, res = self.modulus, self.residues
        return _iter_partitions(n, n if n else 1, lambda p: p % mod in res, True)

    def step(self, state: int, value: int, mult: int) -> int | None:
        return 0 if mult == 0 or mult == 1 and value % self.modulus in self.residues else None


@dataclass(frozen=True)
class MaxMultiplicity(PartitionClass):
    """No part value occurs ``bound`` or more times."""

    bound: int

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ValueError(f"bound must be >= 1, got {self.bound}")

    def contains(self, parts: tuple[int, ...]) -> bool:
        counts = Counter(parts)
        return all(c < self.bound for c in counts.values())

    def step(self, state: int, value: int, mult: int) -> int | None:
        return 0 if mult < self.bound else None


@dataclass(frozen=True)
class NoPartDivisibleBy(PartitionClass):
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"NoPartDivisibleBy requires k >= 1, got k={self.k}")

    def contains(self, parts: tuple[int, ...]) -> bool:
        return all(p % self.k != 0 for p in parts)

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        _check_size(n)
        k = self.k
        return _iter_partitions(n, n if n else 1, lambda p: p % k != 0, False)

    def step(self, state: int, value: int, mult: int) -> int | None:
        return 0 if mult == 0 or value % self.k != 0 else None


@dataclass(frozen=True)
class FranklinRepeated(PartitionClass):
    """Exactly m distinct part values each occurring at least k times."""

    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"FranklinRepeated requires k >= 1, got k={self.k}")
        if self.m < 0:
            raise ValueError(f"FranklinRepeated requires m >= 0, got m={self.m}")

    def contains(self, parts: tuple[int, ...]) -> bool:
        counts = Counter(parts)
        return sum(1 for c in counts.values() if c >= self.k) == self.m

    def step(self, repeated: int, value: int, mult: int) -> int | None:
        # the state counts the values read so far that occur >= k times
        repeated += mult >= self.k
        return repeated if repeated <= self.m else None

    def accept(self, repeated: int) -> bool:
        return repeated == self.m


@dataclass(frozen=True)
class FranklinDivisible(PartitionClass):
    """Exactly m distinct part values divisible by k."""

    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"FranklinDivisible requires k >= 1, got k={self.k}")
        if self.m < 0:
            raise ValueError(f"FranklinDivisible requires m >= 0, got m={self.m}")

    def contains(self, parts: tuple[int, ...]) -> bool:
        values = set(parts)
        return sum(1 for v in values if v % self.k == 0) == self.m

    def step(self, divisible: int, value: int, mult: int) -> int | None:
        # the state counts the values read so far that occur and that k divides
        divisible += mult > 0 and value % self.k == 0
        return divisible if divisible <= self.m else None

    def accept(self, divisible: int) -> bool:
        return divisible == self.m


def has_initial_repetitions(parts: tuple[int, ...], k: int) -> bool:
    """True when repetitions are concentrated at the small end.

    Whenever some part value j occurs at least k times, every positive
    integer smaller than j must also occur at least k times.  With k = 1
    this says the part values are gap-free down to 1.
    """
    counts = Counter(parts)
    for j, c in counts.items():
        if c >= k:
            for v in range(1, j):
                if counts.get(v, 0) < k:
                    return False
    return True


def _initial_reps_step(intact: bool, mult: int, k: int) -> bool | None:
    """Read ``mult`` copies of the next value; ``intact``: all values so far occur >= k times."""
    if mult >= k and not intact:
        return None
    return intact and mult >= k


@dataclass(frozen=True)
class InitialKReps(PartitionClass):
    """Partitions with initial k-repetitions (see ``has_initial_repetitions``)."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"InitialKReps requires k >= 1, got k={self.k}")

    def contains(self, parts: tuple[int, ...]) -> bool:
        return has_initial_repetitions(parts, self.k)

    def start(self) -> bool:
        return True

    def step(self, intact: bool, value: int, mult: int) -> bool | None:
        return _initial_reps_step(intact, mult, self.k)


@dataclass(frozen=True)
class InitialTwoRepsWithMarks(PartitionClass):
    """Initial 2-repetitions and exactly m distinct part values.

    The interesting statistic on this class is the number of part values of
    multiplicity one; see ``andrews_singleton_delta`` in
    ``partition_theorems``.
    """

    m: int

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError(f"InitialTwoRepsWithMarks requires m >= 0, got m={self.m}")

    def contains(self, parts: tuple[int, ...]) -> bool:
        return len(set(parts)) == self.m and has_initial_repetitions(parts, 2)

    # the state is (values occurring so far, initial 2-repetitions intact)
    def start(self) -> tuple[int, bool]:
        return 0, True

    def step(self, state: tuple[int, bool], value: int, mult: int) -> tuple[int, bool] | None:
        values, intact = state[0] + (mult > 0), _initial_reps_step(state[1], mult, 2)
        return None if intact is None or values > self.m else (values, intact)

    def accept(self, state: tuple[int, bool]) -> bool:
        return state[0] == self.m


def enumerate_partitions(n: int, cls: PartitionClass) -> list[Partition]:
    """All partitions of n in the class, descending lex order, each once."""
    return [Partition(parts) for parts in cls.iter_parts(n)]


def count_partitions(n: int, cls: PartitionClass) -> int:
    return signed_count(n, cls).total


def _flips_length(mult: int) -> bool:
    """``mult`` copies of a value change the length parity when mult is odd."""
    return mult % 2 == 1


def signed_count(n: int, cls: PartitionClass) -> SignedCount:
    """Tally partitions in the class by length parity over its automaton."""
    _check_size(n)
    return SignedCount(*tally_partitions(n, cls, _flips_length))
