"""Closed formulas for signed and unsigned restricted-composition counts.

Every formula here is an exact integer expression (alternating binomial
sums, bounded diophantine sums, multinomial specializations).  The
conventions are deliberate and fixed:

* ``binomial(a, b)`` is the combinatorial convention: 1 when b = 0 for any
  a (including negative a), 0 when b < 0, b > a >= 0, or a < 0 with b > 0.
  Generalized binomials with negative upper index are never used.
* Index n is the formula index; the underlying composition class lives on
  size n + k - 1.  Signed values are odd-length minus even-length.
* Diophantine index sets are swept by direct bounded iteration (the
  Theorem-4 forms gather theirs by size first), and every loop is charged
  before it runs by ``_check_work`` and refused with ValueError past a limit.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator


def binomial(a: int, b: int) -> int:
    """Binomial coefficient under the combinatorial convention (see module doc)."""
    if b == 0:
        return 1
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def _check_kn(k: int, n: int, m: int = 0) -> None:
    if k < 1:
        raise ValueError(f"requires k >= 1, got k={k}")
    if n < 1:
        raise ValueError(f"requires n >= 1, got n={n}")
    if m < 0:
        raise ValueError(f"requires m >= 0, got m={m}")


def _check_rs(r: int, s: int) -> None:
    if r < 1:
        raise ValueError(f"requires r >= 1, got r={r}")
    if not 0 <= s < r:
        raise ValueError(f"requires 0 <= s < r, got s={s}, r={r}")


# Most work one evaluation may do.  Each loop is charged before it runs:
# its terms times 16 + b * bitlen(a // b + 1), where a bounds the upper
# index and b the width min(b', a - b') of every C(a', b') the loop
# evaluates, once per such binomial a term evaluates.  The product is about
# the bit length of the longest binomial, which sets its time, and 16 is a
# term's fixed cost in the same unit.  A call just under the limit takes
# about 1 s on a 2-core x86 machine.
MAX_BINOMIAL_WORK = 16_000_000


def _check_work(terms: int, top: int, width: int, spent: int = 0, binomials: int = 1) -> int:
    """The work charged so far with this loop added, or ValueError past the limit."""
    work = spent + binomials * terms * (16 + width * (top // max(width, 1) + 1).bit_length())
    if work > MAX_BINOMIAL_WORK:
        raise ValueError(f"the sum takes at least {terms} terms of C(a, b) with a <= {top}, "
                         f"min(b, a-b) <= {width}, past the work limit of {MAX_BINOMIAL_WORK}")
    return work


# ---------------------------------------------------------------------------
# minimum part size k
# ---------------------------------------------------------------------------

def min_part_signed(k: int, n: int) -> int:
    """Signed count of compositions of n+k-1 with parts >= k.

    Alternating sum over 0 <= j <= (n-1)/k of (-1)^j C(n-1-j(k-1), j).
    For k = 2 this is the period-6 sequence 1, 1, 0, -1, -1, 0, ...

    The j-th term counts the members of length j+1.  Subtracting k-1 from
    every part is a bijection from them onto the compositions of
    n - j(k-1) into j+1 positive parts, and stars and bars counts those
    as C(n-1-j(k-1), j).  A length j+1 is odd exactly when j is even,
    hence the sign.
    """
    _check_kn(k, n)
    _check_work((n - 1) // k + 1, n - 1, (n - 1) // (k + 1))  # min(j, n-1-jk)
    return sum(
        (-1) ** j * binomial(n - 1 - j * (k - 1), j)
        for j in range(0, (n - 1) // k + 1)
    )


def min_part_count(k: int, n: int) -> int:
    """Number of compositions of n+k-1 with parts >= k (Munagi).

    Same binomial sum as ``min_part_signed`` without the alternating sign;
    for k = 2 these are Fibonacci numbers.
    """
    _check_kn(k, n)
    _check_work((n - 1) // k + 1, n - 1, (n - 1) // (k + 1))  # min(j, n-1-jk)
    return sum(
        binomial(n - 1 - j * (k - 1), j) for j in range(0, (n - 1) // k + 1)
    )


def min_part_signed_sequence(k: int, count: int) -> list[int]:
    """First ``count`` signed values for fixed k, by the recurrence.

    b(n) = 1 for n <= k and b(n) = b(n-1) - b(n-k) afterwards.
    """
    if k < 1:
        raise ValueError(f"requires k >= 1, got k={k}")
    if count < 0:
        raise ValueError(f"requires count >= 0, got {count}")
    vals: list[int] = []
    for n in range(1, count + 1):
        if n <= k:
            vals.append(1)
        else:
            vals.append(vals[n - 2] - vals[n - 1 - k])
    return vals


# ---------------------------------------------------------------------------
# congruence-restricted parts: >= k and = k+s (mod r)
# ---------------------------------------------------------------------------

def congruent_signed(k: int, n: int, r: int, s: int) -> int:
    """Signed count of compositions of n+k-1 with parts >= k, = k+s (mod r).

    Sum of (-1)^j C(i+j, i) over i, j >= 0 with r*i + j*(k+s) = n-1-s.

    The (i, j) term counts the members of length j+1.  Sending each part p
    to (p - (k+s-r)) / r maps the allowed parts k+s, k+s+r, ... onto
    1, 2, ..., so it is a bijection from those members onto the
    compositions of i+j+1 into j+1 positive parts, which stars and bars
    counts as C(i+j, i).  For a given j at most one i satisfies the
    constraint, and the sign is that of the length, as in
    ``min_part_signed``.  Such an i exists only when (k+s)j = target
    (mod r), so with g = gcd(r, k+s) the sum is 0 unless g divides the
    target, and else runs over one residue class of j mod r/g.
    """
    _check_kn(k, n)
    _check_rs(r, s)
    target = n - 1 - s
    if target < 0:
        return 0
    g = math.gcd(r, k + s)
    if target % g:
        return 0
    step = r // g
    first = target // g * pow((k + s) // g, -1, step) % step
    last = target // (k + s)
    # ri + (k+s)j = target bounds the width min(i, j) of C(i+j, i), and i + j,
    # linear in j, peaks at j = 0 or j = last
    _check_work((last - first) // step + 1, max(target // r, (target - last * (k + s)) // r + last),
                target // (r + k + s))
    total = 0
    for j in range(first, last + 1, step):
        i = (target - j * (k + s)) // r
        total += (-1) ** j * binomial(i + j, i)
    return total


def congruent_signed_sequence(k: int, r: int, s: int, count: int) -> list[int]:
    """First ``count`` values of ``congruent_signed`` for fixed k, r, s, by the recurrence.

    The parts k+s, k+s+r, ... have generating function P = x^(k+s)/(1-x^r),
    and the signed count on size N is the x^N coefficient of P/(1+P) =
    x^(k+s)/(1-x^r+x^(k+s)).  At N = n+k-1 that reads
    b(n) = b(n-r) - b(n-k-s) + [n = s+1], with b(n) = 0 for n <= 0.
    """
    if k < 1:
        raise ValueError(f"requires k >= 1, got k={k}")
    _check_rs(r, s)
    if count < 0:
        raise ValueError(f"requires count >= 0, got {count}")
    vals: list[int] = []
    for n in range(1, count + 1):
        vals.append((vals[n - 1 - r] if n > r else 0)
                    - (vals[n - 1 - k - s] if n > k + s else 0) + (n == s + 1))
    return vals


def congruent_indicator(k: int, n: int, r: int, s: int) -> int:
    """Special case k = r-s: the signed count is 1 at n = s+1, else 0."""
    _check_kn(k, n)
    _check_rs(r, s)
    if k != r - s:
        raise ValueError(f"requires k = r - s, got k={k}, r={r}, s={s}")
    return 1 if n == s + 1 else 0


def congruent_periodic(k: int, n: int, r: int, s: int) -> int:
    """Special case k = 2r-s: signed count is (-1)^j at n = 3rj+s+1 and
    n = 3rj+r+s+1, else 0.  The sequence in n has period 6r."""
    _check_kn(k, n)
    _check_rs(r, s)
    if k != 2 * r - s:
        raise ValueError(f"requires k = 2r - s, got k={k}, r={r}, s={s}")
    for base in (s + 1, r + s + 1):
        if n >= base and (n - base) % (3 * r) == 0:
            j = (n - base) // (3 * r)
            return (-1) ** j
    return 0


# ---------------------------------------------------------------------------
# partitions inside a box, and monomial counting
# ---------------------------------------------------------------------------

def boxed_partitions(
    width: int, height: int, max_size: int | None = None
) -> Iterator[tuple[int, ...]]:
    """All partitions fitting in the box, including the empty one.

    Each is a weakly decreasing tuple of at most ``height`` parts in
    1..``width``.  With ``max_size``, only those of size at most
    ``max_size``; the walk never enters a larger one.  Each partition comes
    before its extensions by one more part, and larger parts before smaller
    ones.  The walk keeps its own stack, so a tall box cannot exhaust the
    recursion limit.
    """
    if width < 0 or height < 0:
        raise ValueError(f"box must be nonnegative, got {width}x{height}")
    room = width * height if max_size is None else max_size
    parts: list[int] = []
    while True:
        yield tuple(parts)
        part = min(parts[-1] if parts else width, room)
        if len(parts) < height and part > 0:
            parts.append(part)
            room -= part
            continue
        while parts and parts[-1] == 1:
            room += parts.pop()
        if not parts:
            return
        parts[-1] -= 1
        room += 1


def _box_size_counts(width: int, height: int, top: int, limit: int) -> list[int] | None:
    """How many partitions of each size 0..top fit in the box, or None.

    The x^0..x^top coefficients of the Gaussian binomial: the product of
    (1 - x^(b+i)) / (1 - x^i) over i = 1..a, where a <= b are the box's
    sides.  The product after i factors counts the partitions in a b x i
    box, which the whole box contains, so once those pass ``limit`` it
    stops and gives None.  Every size up to width*height fits, so a
    ``top`` past the limit gives None at once.
    """
    a, b = sorted((width, height))
    top = min(top, width * height)
    if top + 1 > limit:
        return None
    c = [1] + [0] * top
    for i in range(1, a + 1):
        e = b + i  # times 1 - x^e; both slices hold the old values
        c[e:] = map(operator.sub, c[e:], c[: top + 1 - e])
        for r in range(i):  # divided by 1 - x^i, one residue class at a time
            c[r::i] = itertools.accumulate(c[r::i])
        if sum(c) > limit:
            return None
    return c


def monomial_specialization(parts: tuple[int, ...], height: int) -> int:
    """Number of distinct monomials of shape ``parts`` in ``height`` variables.

    Evaluates the monomial symmetric polynomial m_lambda at height many
    ones: the multinomial height! / (m_0! m_1! ...), where m_i counts the
    parts equal to i and m_0 = height - len(parts) the variables left out.
    """
    out = math.perm(height, len(parts))
    for part in set(parts):
        out //= math.factorial(parts.count(part))
    return out


# ---------------------------------------------------------------------------
# exactly m guarded small parts (class on size n+k-1)
# ---------------------------------------------------------------------------
# Both forms sum w(s) (-1)^j C(i, m) C(i+j-1, j) over s, j >= 0 with
# i = n - (k+1)m - s - jk and differ only in the weight row w; each keeps
# its own (s, j) loop, so neither form computes through the other.  That
# loop is charged on top of the weight row, twice: each of its terms
# evaluates two binomials within the same bounds.


def guarded_signed_boxed(k: int, n: int, m: int) -> int:
    """Signed count over the guarded class, boxed-partition form.

    Sum over partitions lambda in a (k-2) x m box and i, j >= 0 with
    i + (k+1)m + jk + |lambda| = n of
    (-1)^j C(i, m) C(i+j-1, j) m_lambda(1^m).  Requires k >= 2.
    """
    return _guarded_boxed(k, n, m, signed=True)


def guarded_count_boxed(k: int, n: int, m: int) -> int:
    """Unsigned count: the boxed form without the (-1)^j factor."""
    return _guarded_boxed(k, n, m, signed=False)


def _guarded_boxed(k: int, n: int, m: int, signed: bool) -> int:
    """The boxed sum: w(s) adds m_lambda(1^m) over |lambda| = s <= n-(k+1)m.

    The walk takes one multinomial over m variables per partition, counted
    by size before it starts, and the (s, j) loop (n-(k+1)m-s)//k + 1
    terms of two binomials per weight.
    """
    _check_kn(k, n, m)
    if k < 2:
        raise ValueError(f"boxed form requires k >= 2, got k={k}")
    room = n - (k + 1) * m
    if room < 0:  # no box partition fits
        return 0
    limit = MAX_BINOMIAL_WORK // 16  # the most terms any loop can afford
    sizes = _box_size_counts(k - 2, m, room, limit)
    spent = _check_work(limit + 1 if sizes is None else sum(sizes), m, m)
    # every size up to the row's end has a partition, so no weight is 0
    weight = [0] * len(sizes)
    for parts in boxed_partitions(k - 2, m, room):
        weight[sum(parts)] += monomial_specialization(parts, m)
    _check_work(sum((room - s) // k + 1 for s in range(len(weight))), room, max(m, room // k),
                spent, binomials=2)
    total, sign = 0, -1 if signed else 1
    for s, w in enumerate(weight):
        for j in range((room - s) // k + 1):
            i = room - s - j * k
            total += w * sign ** j * binomial(i, m) * binomial(i + j - 1, j)
    return total


def guarded_signed_sum(k: int, n: int, m: int) -> int:
    """Signed count over the guarded class, quadruple-sum form.

    Sum of (-1)^(l+j) C(i, m) C(i+j-1, j) C(m, l) C(m+h-1, h) over
    i, j, l, h >= 0 with i + (k+1)m + jk + l(k-1) + h = n and l <= m.
    Valid for all k >= 1; agrees with the boxed form for k >= 2.
    """
    return _guarded_quadruple(k, n, m, signed=True)


def guarded_count_sum(k: int, n: int, m: int) -> int:
    """Unsigned count: the quadruple-sum form keeping only (-1)^l."""
    return _guarded_quadruple(k, n, m, signed=False)


def _guarded_quadruple(k: int, n: int, m: int, signed: bool) -> int:
    """The quadruple sum: w(s) adds (-1)^l C(m, l) C(m+h-1, h) over l(k-1) + h = s.

    The row costs one term per (l, h) and the (s, j) loop (n-(k+1)m-s)//k + 1
    terms of two binomials per nonzero weight.  At k = 1 every weight of
    m >= 1 cancels.
    """
    _check_kn(k, n, m)
    room = n - (k + 1) * m
    if room < 0:
        return 0
    top = m if k == 1 else min(m, room // (k - 1))  # the last l that fits
    spent = _check_work((top + 1) * (room + 1) - (k - 1) * top * (top + 1) // 2, m + room, m)
    weight = [0] * (room + 1)
    for l in range(top + 1):
        cl = (-1) ** l * binomial(m, l)
        for h in range(room - l * (k - 1) + 1):
            weight[l * (k - 1) + h] += cl * binomial(m + h - 1, h)
    _check_work(sum((room - s) // k + 1 for s, w in enumerate(weight) if w), room,
                max(m, room // k), spent, binomials=2)
    total, sign = 0, -1 if signed else 1
    for s, w in enumerate(weight):
        if w:
            for j in range((room - s) // k + 1):
                i = room - s - j * k
                total += w * sign ** j * binomial(i, m) * binomial(i + j - 1, j)
    return total


# ---------------------------------------------------------------------------
# exactly m small parts, no guard (class on size n+k-1)
# ---------------------------------------------------------------------------

def small_parts_signed(k: int, n: int, m: int) -> int:
    """Signed count of compositions of n+k-1 with exactly m parts < k.

    Sum of (-1)^(i+l+1) C(i+j-1, j) C(i, m) C(m, l) over i, j >= 0 and
    0 <= l <= m <= i with i + j + (k-1)(l + i - m - 1) = n.
    """
    _check_kn(k, n, m)
    total = 0
    i_max = (n + (k - 1) * (m + 1)) // k  # past it j < 0 at every l
    # i + j - 1 <= n + k - 2, and C(i+j-1, j) has width min(j, i-1) <= (n + (k-1)m - 1)//(k+1)
    _check_work(max(i_max - m + 1, 0) * (m + 1), max(i_max, n + k - 2),
                max(m, (n + (k - 1) * m - 1) // (k + 1)))
    for i in range(m, i_max + 1):
        ci = binomial(i, m)
        if ci == 0:
            continue
        for l in range(0, m + 1):
            j = n - i - (k - 1) * (l + i - m - 1)
            if j < 0:
                continue
            total += (
                (-1) ** (i + l + 1)
                * binomial(i + j - 1, j)
                * ci
                * binomial(m, l)
            )
    return total
