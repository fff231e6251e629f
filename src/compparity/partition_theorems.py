"""Closed forms and signed tallies of the partition identities.

The signed quantities on the partition side are reported as even-length
minus odd-length, the orientation in which Legendre's theorem produces
the pentagonal-number signs.  Each ``*_delta`` reads its signed count off
the enumeration oracle in ``compparity.partitions``; each ``*_closed`` is
written directly from the statement of the corresponding theorem and never
calls the oracle.  Every function returns one int, so a sweep compares the
two as separate routes.  The identities that equate two class counts
(Euler, Glaisher, Franklin, Andrews) need no function here: a sweep counts
each class with ``partitions.count_partitions``.
"""

from __future__ import annotations

import math

from compparity import partitions
from compparity.partitions import (
    DistinctInResidues,
    DistinctParts,
    InitialTwoRepsWithMarks,
    OddParts,
)


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError(f"requires n >= 0, got {n}")


def _check_r(r: int) -> None:
    if r < 1:
        raise ValueError(f"requires r >= 1, got r={r}")


def _even_minus_odd(n: int, cls: partitions.PartitionClass) -> int:
    sc = partitions.signed_count(n, cls)
    return sc.even_count - sc.odd_count


def legendre_delta(n: int) -> int:
    """Even-length minus odd-length count of distinct-part partitions of n."""
    _check_n(n)
    return _even_minus_odd(n, DistinctParts())


def legendre_closed(n: int) -> int:
    """(-1)^j when n = j(3j+-1)/2 is generalized pentagonal, else 0.

    n = j(3j+-1)/2 exactly when 24n + 1 = (6j+-1)^2, so one integer square
    root decides it, and then j = (r + 1) // 6 for either sign.
    """
    _check_n(n)
    r = math.isqrt(24 * n + 1)
    if r * r != 24 * n + 1:
        return 0
    return -1 if (r + 1) // 6 % 2 else 1


def odd_parts_signed(n: int) -> int:
    """Even minus odd length count over odd-part partitions of n.

    Every part odd forces length = n (mod 2), so the value is (-1)^n times
    the total count; the tally here does not use that shortcut.
    """
    _check_n(n)
    return _even_minus_odd(n, OddParts())


def _sign_at_quadratic(n: int, a: int, b: int) -> int:
    """(-1)^j when n = j(aj+-b)/2 for some j >= 0, else 0 (a > b > 0)."""
    j = 0
    while j * (a * j - b) <= 2 * n:
        if 2 * n in (j * (a * j - b), j * (a * j + b)):
            return (-1) ** j
        j += 1
    return 0


def nyirenda_d_delta(n: int, r: int) -> int:
    """Signed distinct partitions of n with parts = 0 or 2r+-1 (mod 4r)."""
    _check_n(n)
    _check_r(r)
    mod = 4 * r
    residues = frozenset({0, (2 * r + 1) % mod, (2 * r - 1) % mod})
    return _even_minus_odd(n, DistinctInResidues(mod, residues))


def nyirenda_d_closed(n: int, r: int) -> int:
    """(-1)^j when n = j(2rj+-1) for some j >= 0, else 0."""
    _check_n(n)
    _check_r(r)
    return _sign_at_quadratic(n, 4 * r, 2)


def nyirenda_c_delta(n: int, r: int) -> int:
    """Signed distinct partitions of n with parts = 0 or +-r (mod 2r+1).

    With r = 1 every residue is allowed and this is Legendre's theorem.
    """
    _check_n(n)
    _check_r(r)
    mod = 2 * r + 1
    residues = frozenset({0, r % mod, (-r) % mod})
    return _even_minus_odd(n, DistinctInResidues(mod, residues))


def nyirenda_c_closed(n: int, r: int) -> int:
    """(-1)^j when n = j((2r+1)j+-1)/2 for some j >= 0, else 0."""
    _check_n(n)
    _check_r(r)
    return _sign_at_quadratic(n, 2 * r + 1, 1)


def andrews_singleton_delta(n: int, m: int) -> int:
    """Initial 2-repetitions, m part values, signed by singleton values.

    Over partitions of n with initial 2-repetitions and exactly m distinct
    part values, sums (-1)^(number of values of multiplicity one).
    """
    _check_n(n)
    sc = partitions.singleton_signed_count(n, InitialTwoRepsWithMarks(m))
    return sc.even_count - sc.odd_count


def andrews_singleton_closed(n: int, m: int) -> int:
    """(-1)^m when n = m(m+1)/2, else 0."""
    _check_n(n)
    if m < 0:
        raise ValueError(f"requires m >= 0, got m={m}")
    return (-1) ** m if n == m * (m + 1) // 2 else 0
