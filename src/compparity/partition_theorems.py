"""Classical partition identities, each checked against the enumeration oracle.

The signed quantities on the partition side are reported as even-length
minus odd-length, the orientation in which Legendre's theorem produces
the pentagonal-number signs.  Each closed form here is written directly
from the statement of the corresponding theorem; the enumeration oracle
lives in ``compparity.partitions``.
"""

from __future__ import annotations

from compparity import partitions
from compparity._automaton import tally_partitions
from compparity.partitions import (
    DistinctInResidues,
    DistinctParts,
    FranklinDivisible,
    FranklinRepeated,
    InitialKReps,
    InitialTwoRepsWithMarks,
    MaxMultiplicity,
    NoPartDivisibleBy,
    OddParts,
)


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError(f"requires n >= 0, got {n}")


def legendre_delta(n: int) -> int:
    """Even-length minus odd-length count of distinct-part partitions of n."""
    _check_n(n)
    sc = partitions.signed_count(n, DistinctParts())
    return sc.even_count - sc.odd_count


def legendre_closed(n: int) -> int:
    """(-1)^j when n = j(3j+-1)/2 is generalized pentagonal, else 0."""
    _check_n(n)
    j = 0
    while j * (3 * j - 1) // 2 <= n:
        if n in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            return (-1) ** j
        j += 1
    return 0


def euler_distinct_odd(n: int) -> tuple[int, int, bool]:
    """(distinct-part count, odd-part count, equal?) for partitions of n."""
    _check_n(n)
    d = partitions.count_partitions(n, DistinctParts())
    o = partitions.count_partitions(n, OddParts())
    return d, o, d == o


def odd_parts_signed(n: int) -> int:
    """Even minus odd length count over odd-part partitions of n.

    Every part odd forces length = n (mod 2), so the value is (-1)^n times
    the total count; the tally here does not use that shortcut.
    """
    _check_n(n)
    sc = partitions.signed_count(n, OddParts())
    return sc.even_count - sc.odd_count


def glaisher_check(n: int, k: int) -> tuple[int, int, bool]:
    """Partitions with no part k or more times vs no part divisible by k."""
    _check_n(n)
    a = partitions.count_partitions(n, MaxMultiplicity(k))
    b = partitions.count_partitions(n, NoPartDivisibleBy(k))
    return a, b, a == b


def franklin_check(n: int, k: int, m: int) -> tuple[int, int, bool]:
    """Exactly m values repeated >= k times vs exactly m values divisible by k.

    The m = 0 case is ``glaisher_check``.
    """
    _check_n(n)
    a = partitions.count_partitions(n, FranklinRepeated(k, m))
    b = partitions.count_partitions(n, FranklinDivisible(k, m))
    return a, b, a == b


def nyirenda_d(n: int, r: int) -> tuple[int, int, bool]:
    """Signed distinct partitions with parts = 0 or 2r+-1 (mod 4r).

    The even-minus-odd count is (-1)^j when n = j(2rj+1) or n = j(2rj-1)
    for some j >= 0, else 0.
    """
    _check_n(n)
    if r < 1:
        raise ValueError(f"requires r >= 1, got r={r}")
    mod = 4 * r
    cls = DistinctInResidues(
        mod, frozenset({0, (2 * r + 1) % mod, (2 * r - 1) % mod})
    )
    sc = partitions.signed_count(n, cls)
    delta = sc.even_count - sc.odd_count

    closed = 0
    j = 0
    while j * (2 * r * j - 1) <= n:
        if n in (j * (2 * r * j - 1), j * (2 * r * j + 1)):
            closed = (-1) ** j
            break
        j += 1
    return delta, closed, delta == closed


def nyirenda_c(n: int, r: int) -> tuple[int, int, bool]:
    """Signed distinct partitions with parts = 0 or +-r (mod 2r+1).

    The even-minus-odd count is (-1)^j when n = j((2r+1)j+-1)/2, else 0.
    With r = 1 every residue is allowed and this is Legendre's theorem.
    """
    _check_n(n)
    if r < 1:
        raise ValueError(f"requires r >= 1, got r={r}")
    mod = 2 * r + 1
    cls = DistinctInResidues(mod, frozenset({0, r % mod, (-r) % mod}))
    sc = partitions.signed_count(n, cls)
    delta = sc.even_count - sc.odd_count

    closed = 0
    j = 0
    while j * (mod * j - 1) // 2 <= n:
        if n in (j * (mod * j - 1) // 2, j * (mod * j + 1) // 2):
            closed = (-1) ** j
            break
        j += 1
    return delta, closed, delta == closed


def andrews_counts(n: int, k: int) -> tuple[int, int, int, bool]:
    """Three equinumerous classes for partitions of n.

    Initial k-repetitions; no part divisible by 2k; no part occurring 2k or
    more times.  Returns the three counts and whether all agree.
    """
    _check_n(n)
    if k < 1:
        raise ValueError(f"requires k >= 1, got k={k}")
    a = partitions.count_partitions(n, InitialKReps(k))
    b = partitions.count_partitions(n, NoPartDivisibleBy(2 * k))
    c = partitions.count_partitions(n, MaxMultiplicity(2 * k))
    return a, b, c, a == b == c


def _is_singleton(mult: int) -> bool:
    """A value of multiplicity one flips the singleton sign."""
    return mult == 1


def andrews_singleton_delta(n: int, m: int) -> tuple[int, int, bool]:
    """Initial 2-repetitions, m part values, signed by singleton values.

    Over partitions of n with initial 2-repetitions and exactly m distinct
    part values, sums (-1)^(number of values of multiplicity one).  The
    closed form is (-1)^j when m = j and n = j(j+1)/2, else 0.
    """
    _check_n(n)
    if m < 0:
        raise ValueError(f"requires m >= 0, got m={m}")
    odd, even = tally_partitions(n, InitialTwoRepsWithMarks(m), _is_singleton)
    delta = even - odd

    closed = (-1) ** m if n == m * (m + 1) // 2 else 0
    return delta, closed, delta == closed
