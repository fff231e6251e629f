"""Integer partitions with restricted parts: definitions, enumeration, counts.

Partitions are weakly decreasing tuples of positive integers.  Enumeration
is in descending lexicographic order on part tuples, e.g. for n = 4:
(4), (3,1), (2,2), (2,1,1), (1,1,1,1).  Every class carries a predicate,
which defines it and filters all partitions into its members, and a
membership automaton that reads a partition one value at a time, 1, 2, ...,
each with its multiplicity (0 when the value does not occur).  The
classes behind Legendre's, Euler's and Glaisher's theorems, Nyirenda's
identities and the companions in Andrews' restrict parts to a periodic set
and cap each value's multiplicity: one class, ``PartsIn``, that ``All``,
``DistinctParts``, ``OddParts``, ``DistinctInResidues``,
``MaxMultiplicity`` and ``NoPartDivisibleBy`` construct.
``signed_count`` and ``count_partitions`` tally the automaton in
``compparity._automaton`` instead of walking the members; the tests hold
the tally to ``iter_parts``.  It is the oracle for the classical partition
identities checked elsewhere in the package.  A one-state class reaches
n = 697 (all partitions) to 1297 (distinct parts in three residues mod
8), the further the fewer multiplicities it accepts; past
``_automaton.MAX_TRIALS`` trials the tally raises ``ValueError``.
Counts are kept per class and statistic, so the length parity of
``signed_count`` and the singleton sign of ``singleton_signed_count``
never mix; ``counts_by_size`` hands back the length-parity counts of
every size up to n.

Partition-side signed results are reported as even-length minus odd-length
(the opposite orientation from the composition side); ``signed_count``
itself just returns both tallies.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterator

from compparity._automaton import tally_partitions
from compparity._value import OrderedValue, Value
from compparity.compositions import SignedCount


class Partition(OrderedValue):
    """Weakly decreasing tuple of positive integer parts; sorts lexicographically."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        object.__setattr__(self, "parts", parts)
        for i, p in enumerate(parts):
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"part {p!r} at index {i} is not a positive integer")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)


class PartitionClass(Value):
    """Base class for partition restrictions.

    A subclass supplies ``contains``, which ``iter_parts`` applies to every
    partition, and ``step``, which with ``start`` and ``accept`` reads the
    values 1, 2, ... in turn: ``mult >= 0`` copies of ``value``.  It returns
    the next state, or ``None`` when no member continues so; reading
    ``mult == 0`` past a member's largest part must leave ``accept``
    unchanged.  The defaults suit a one-state rule on each value alone.
    """

    __slots__ = ()

    def contains(self, parts: tuple[int, ...]) -> bool:
        raise NotImplementedError

    def iter_parts(self, n: int) -> Iterator[tuple[int, ...]]:
        """The members of size n: every partition that ``contains`` accepts."""
        _check_size(n)
        return (p for p in _iter_partitions(n, n) if self.contains(p))

    def start(self) -> Hashable:
        return 0

    def step(self, state: Hashable, value: int, mult: int) -> Hashable | None:
        raise NotImplementedError

    def accept(self, state: Hashable) -> bool:
        return True


def _check_size(n: int) -> None:
    if n < 0:
        raise ValueError(f"partition size must be >= 0, got {n}")


def _iter_partitions(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing part tuples, descending lex order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _iter_partitions(n - first, first):
            yield (first,) + rest


class PartsIn(PartitionClass):
    """Every part v has v % period in residues and occurs at most ``most`` times.

    ``most=None`` sets no cap.  The residues are kept sorted and once each,
    and may be none, which leaves only the empty partition.
    """

    __slots__ = ("period", "residues", "most")

    def __init__(self, period: int, residues: tuple[int, ...], most: int | None = None) -> None:
        # the fields as given, so that an error shows them; then the sorted residues
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "most", most)
        residues = tuple(sorted(set(residues)))
        if (period < 1 or residues and not 0 <= residues[0] <= residues[-1] < period
                or most is not None and most < 0):
            raise ValueError("PartsIn requires period >= 1, residues in 0..period-1 and "
                             f"most >= 0 or None, got {self}")
        object.__setattr__(self, "residues", residues)

    def contains(self, parts: tuple[int, ...]) -> bool:
        return all(v % self.period in self.residues for v in parts) and (
            self.most is None or all(c <= self.most for c in Counter(parts).values()))

    def step(self, state: int, value: int, mult: int) -> int | None:
        return 0 if mult == 0 or value % self.period in self.residues and (
            self.most is None or mult <= self.most) else None


# Named part sets, each returning a PartsIn; classes, so perfbench's tracer skips them.
class All:
    """No restriction: every partition."""

    def __new__(cls) -> PartsIn:
        return PartsIn(1, (0,))


class DistinctParts:
    """No part value occurs twice."""

    def __new__(cls) -> PartsIn:
        return PartsIn(1, (0,), 1)


class OddParts:
    """Every part odd."""

    def __new__(cls) -> PartsIn:
        return PartsIn(2, (1,))


class DistinctInResidues:
    """Distinct parts, all lying in the given residue set modulo ``modulus``."""

    def __new__(cls, modulus: int, residues: frozenset[int]) -> PartsIn:
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        if not residues:
            raise ValueError("residue set must be nonempty")
        if any(not 0 <= r < modulus for r in residues):
            raise ValueError(f"residues {sorted(residues)} out of range for modulus {modulus}")
        return PartsIn(modulus, tuple(residues), 1)


class MaxMultiplicity:
    """No part value occurs ``bound`` or more times."""

    def __new__(cls, bound: int) -> PartsIn:
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        return PartsIn(1, (0,), bound - 1)


class NoPartDivisibleBy:
    """No part divisible by k."""

    def __new__(cls, k: int) -> PartsIn:
        if k < 1:
            raise ValueError(f"NoPartDivisibleBy requires k >= 1, got k={k}")
        return PartsIn(k, tuple(range(1, k)))


class FranklinRepeated(PartitionClass):
    """Exactly m distinct part values each occurring at least k times."""

    __slots__ = ("k", "m")

    def __init__(self, k: int, m: int) -> None:
        if k < 1:
            raise ValueError(f"FranklinRepeated requires k >= 1, got k={k}")
        if m < 0:
            raise ValueError(f"FranklinRepeated requires m >= 0, got m={m}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)

    def contains(self, parts: tuple[int, ...]) -> bool:
        counts = Counter(parts)
        return sum(1 for c in counts.values() if c >= self.k) == self.m

    def step(self, repeated: int, value: int, mult: int) -> int | None:
        # the state counts the values read so far that occur >= k times
        repeated += mult >= self.k
        return repeated if repeated <= self.m else None

    def accept(self, repeated: int) -> bool:
        return repeated == self.m


class FranklinDivisible(PartitionClass):
    """Exactly m distinct part values divisible by k."""

    __slots__ = ("k", "m")

    def __init__(self, k: int, m: int) -> None:
        if k < 1:
            raise ValueError(f"FranklinDivisible requires k >= 1, got k={k}")
        if m < 0:
            raise ValueError(f"FranklinDivisible requires m >= 0, got m={m}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)

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


class InitialKReps(PartitionClass):
    """Partitions with initial k-repetitions (see ``has_initial_repetitions``)."""

    __slots__ = ("k",)

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"InitialKReps requires k >= 1, got k={k}")
        object.__setattr__(self, "k", k)

    def contains(self, parts: tuple[int, ...]) -> bool:
        return has_initial_repetitions(parts, self.k)

    def start(self) -> bool:
        return True

    def step(self, intact: bool, value: int, mult: int) -> bool | None:
        return _initial_reps_step(intact, mult, self.k)


class InitialTwoRepsWithMarks(PartitionClass):
    """Initial 2-repetitions and exactly m distinct part values.

    The interesting statistic on this class is the number of part values of
    multiplicity one; see ``singleton_signed_count``.
    """

    __slots__ = ("m",)

    def __init__(self, m: int) -> None:
        if m < 0:
            raise ValueError(f"InitialTwoRepsWithMarks requires m >= 0, got m={m}")
        object.__setattr__(self, "m", m)

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
    return SignedCount(*tally_partitions(n, cls, _flips_length)[n])


def counts_by_size(n: int, cls: PartitionClass) -> tuple[tuple[int, int], ...]:
    """(odd-length, even-length) partition counts of each size 0..n, from one tally."""
    _check_size(n)
    return tally_partitions(n, cls, _flips_length)[:n + 1]


def _is_singleton(mult: int) -> bool:
    """A value of multiplicity one flips the singleton sign."""
    return mult == 1


def singleton_signed_count(n: int, cls: PartitionClass) -> SignedCount:
    """Tally partitions in the class by the parity of their values of multiplicity one.

    ``odd_count`` and ``even_count`` count the members with an odd and an
    even number of such values.
    """
    _check_size(n)
    return SignedCount(*tally_partitions(n, cls, _is_singleton)[n])
