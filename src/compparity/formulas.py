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
  on ``_budget`` before it runs by ``_check_work``, and refused with
  ValueError past its limit.
* A closed form that a sweep reads at every n of a row also has a row form,
  ``<name>_row(lead..., count)``, giving its values at n = 1..count.  It
  steps each binomial term from one n to the next by its term ratio, a
  small rational, instead of summing anew at each n.  A row is charged once,
  before it runs, and refused exactly where one of its per-n calls would
  be, with the error of the largest such n (``_check_row``).  The per-n
  forms stay: they are the CLI's value at a single n, however large, and
  the row forms' test oracle.  A row form never reads its per-n form, a
  recurrence, a series or another row form.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Iterator

from compparity import _budget


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


# Each loop is charged on ``_budget`` before it runs: its terms times
# 16 + b * bitlen(a // b + 1), where a bounds the upper index and b the width
# min(b', a - b') of every C(a', b') the loop evaluates, once per such
# binomial a term evaluates, at ``_TERM_BITS`` a unit.  The product is about
# the bit length of the longest binomial, which sets its time, and 16 is a
# term's fixed cost in the same unit.  ``_budget.LIMIT // _TERM_BITS`` is
# 16,000,000 units.
_TERM_BITS = 5


def _check_work(terms: int, top: int, width: int, spent: int = 0, binomials: int = 1) -> int:
    """The work charged so far with this loop added, or ValueError past the budget."""
    work = spent + binomials * terms * (16 + width * (top // max(width, 1) + 1).bit_length())
    _budget.charge(_TERM_BITS * work,
                   "the sum of at least {} terms of C(a, b) with a <= {}, min(b, a-b) <= {}",
                   terms, top, width)
    return work


def _check_row_args(k: int, count: int, m: int = 0) -> None:
    if count < 1:
        raise ValueError(f"requires count >= 1, got count={count}")
    _check_kn(k, count, m)


def _check_row(count: int, charge: Callable[[int], object], terms: int, top: int, width: int,
               spent: int = 0, binomials: int = 1) -> None:
    """Refuse a row of n = 1..count exactly where one of its per-n calls would be refused.

    ``terms``, ``top`` and ``width`` bound those of the loop of every n of
    the row, and ``spent`` each n's earlier charges.  A term's charge,
    width * bitlen(top // width + 1), is at most
    width * (log2(top / width + 1) + 1), which grows with both; so the one
    charge at 2*top + width, one bit more per width, is at least every n's
    charge, and when it passes no n is refused.  Else ``charge`` charges
    each n as its per-n call does, largest first, which raises the error of
    the largest refused n: the first one a sweep asking largest first met.
    """
    try:
        _check_work(terms, 2 * top + width, width, spent, binomials)
    except ValueError:
        for n in range(count, 0, -1):
            charge(n)


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
    _check_work(*_min_part_loop(k, n))
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
    _check_work(*_min_part_loop(k, n))
    return sum(
        binomial(n - 1 - j * (k - 1), j) for j in range(0, (n - 1) // k + 1)
    )


def _min_part_loop(k: int, n: int) -> tuple[int, int, int]:
    """The terms, largest upper index and width of the sum at n, as charged."""
    return (n - 1) // k + 1, n - 1, (n - 1) // (k + 1)  # width min(j, n-1-jk)


def min_part_signed_row(k: int, count: int) -> list[int]:
    """``min_part_signed(k, n)`` at n = 1..count, each term stepped along n."""
    return [sum(terms[::2]) - sum(terms[1::2]) for terms in _min_part_terms(k, count)]


def min_part_count_row(k: int, count: int) -> list[int]:
    """``min_part_count(k, n)`` at n = 1..count, each term stepped along n."""
    return [sum(terms) for terms in _min_part_terms(k, count)]


def _min_part_terms(k: int, count: int) -> Iterator[list[int]]:
    """The terms C(n-1-j(k-1), j), j = 0..(n-1)//k, at each n = 1..count.

    From one n to the next each upper index a grows by one, and
    C(a, j) = C(a-1, j) * a / (a-j); the term j enters as C(j, j) = 1 at
    n = jk + 1.
    """
    _check_row_args(k, count)
    _check_row(count, lambda n: _check_work(*_min_part_loop(k, n)), *_min_part_loop(k, count))
    terms: list[int] = []
    for a in range(count):  # a = n - 1, the upper index of the term j = 0
        if terms:
            uppers = range(a, -1, 1 - k) if k > 1 else itertools.repeat(a)
            terms = list(map(operator.floordiv, map(operator.mul, terms, uppers),
                             range(a, 0, -k)))
        if a % k == 0:
            terms.append(1)
        yield terms


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
    total = 0
    for j in _congruent_loop(k, n, r, s):
        i = (target - j * (k + s)) // r
        total += (-1) ** j * binomial(i + j, i)
    return total


def _congruent_loop(k: int, n: int, r: int, s: int) -> range:
    """The j of ``congruent_signed``'s sum at n, charged; empty when no i fits."""
    target = n - 1 - s
    if target < 0:
        return range(0)
    g = math.gcd(r, k + s)
    if target % g:
        return range(0)
    step = r // g
    first = target // g * pow((k + s) // g, -1, step) % step
    last = target // (k + s)
    # ri + (k+s)j = target bounds the width min(i, j) of C(i+j, i), and i + j,
    # linear in j, peaks at j = 0 or j = last
    _check_work((last - first) // step + 1, max(target // r, (target - last * (k + s)) // r + last),
                target // (r + k + s))
    return range(first, last + 1, step)


def congruent_signed_row(k: int, r: int, s: int, count: int) -> list[int]:
    """``congruent_signed(k, n, r, s)`` at n = 1..count, each term stepped along n.

    The targets n-1-s of one residue class mod r share their j.  From one
    target of the class to the next each term's i grows by one, and
    C(i+j, i) = C(i-1+j, i-1) * (i+j) / i; the class's next j enters as
    C(j, 0) = 1 once (k+s)j reaches the target.
    """
    _check_row_args(k, count)
    _check_rs(r, s)
    part, end = k + s, count - 1 - s  # end: the row's last target
    out = [0] * count
    if end < 0:
        return out
    g = math.gcd(r, part)
    step, drop = r // g, part // g  # i falls by drop from one j of a class to the next
    last = end // part
    # every n's terms, (last - first)//step + 1, largest i + j and width are at most these
    _check_row(count, lambda n: _congruent_loop(k, n, r, s), last // step + 1,
               max(end // r, (part - 1) // r + last), end // (r + part))
    inverse = pow(drop, -1, step)
    for start in range(0, min(r, end + 1), g):  # the classes whose targets g divides
        first = start // g * inverse % step
        js = range(first, last + 1, step)
        terms: list[int] = []  # (-1)^j C(i+j, i) for the j of the class entered so far
        for target in range(start, end + 1, r):
            if terms:
                first_i = (target - first * part) // r
                terms = [t * (i + j) // i for t, i, j in zip(terms, range(first_i, 0, -drop), js)]
            if len(terms) < len(js) and js[len(terms)] * part <= target:
                terms.append(-1 if js[len(terms)] % 2 else 1)  # at most one j enters per target
            out[target + s] = sum(terms)
    return out


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

def boxed_partitions(width: int, height: int, max_size: int) -> Iterator[tuple[int, ...]]:
    """The partitions fitting in the box of size at most ``max_size``, the empty one too.

    Each is a weakly decreasing tuple of at most ``height`` parts in
    1..``width``; the walk never enters one larger than ``max_size``.
    Each partition comes before its extensions by one more part, and
    larger parts before smaller ones.  The walk keeps its own stack, so a tall box cannot exhaust the
    recursion limit.
    """
    if width < 0 or height < 0:
        raise ValueError(f"box must be nonnegative, got {width}x{height}")
    room = max_size
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
#
# Their row forms take total(room) = sum of w(s) g(room - s), where
# g(t) = sum over j of (-1)^j C(t-jk, m) C(t-jk+j-1, j).  Each builds its
# weight row once, at the row's largest room, and g once: for each i from
# m, C(i, m) steps along i, C(i+1, m) = C(i, m) (i+1)/(i+1-m), and
# C(i+j-1, j) along j, C(i+j, j+1) = C(i+j-1, j) (i+j)/(j+1).  Each keeps
# its own weight and g loops, as the per-n forms do.


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
    limit = _budget.LIMIT // (_TERM_BITS * 16)  # the most terms any loop can afford
    sizes = _box_size_counts(k - 2, m, room, limit)
    spent = _check_work(limit + 1 if sizes is None else sum(sizes), m, m)
    # every size up to the row's end has a partition, so no weight is 0
    weight = [0] * len(sizes)
    for parts in boxed_partitions(k - 2, m, room):
        weight[sum(parts)] += monomial_specialization(parts, m)
    _check_work(*_boxed_loop(k, m, room), spent, binomials=2)
    total, sign = 0, -1 if signed else 1
    for s, w in enumerate(weight):
        for j in range((room - s) // k + 1):
            i = room - s - j * k
            total += w * sign ** j * binomial(i, m) * binomial(i + j - 1, j)
    return total


def _boxed_loop(k: int, m: int, room: int) -> tuple[int, int, int]:
    """The terms, largest upper index and width of the boxed (s, j) loop, as charged."""
    sizes = min(room, (k - 2) * m) + 1  # the box's sizes that fit in the room
    return sum((room - s) // k + 1 for s in range(sizes)), room, max(m, room // k)


def guarded_signed_boxed_row(k: int, m: int, count: int) -> list[int]:
    """``guarded_signed_boxed(k, n, m)`` at n = 1..count."""
    return _guarded_boxed_row(k, m, count, signed=True)


def guarded_count_boxed_row(k: int, m: int, count: int) -> list[int]:
    """``guarded_count_boxed(k, n, m)`` at n = 1..count."""
    return _guarded_boxed_row(k, m, count, signed=False)


def _guarded_boxed_row(k: int, m: int, count: int, signed: bool) -> list[int]:
    """The boxed sum at each room n-(k+1)m of the row, from one walk of the box."""
    _check_row_args(k, count, m)
    if k < 2:
        raise ValueError(f"boxed form requires k >= 2, got k={k}")
    top = count - (k + 1) * m  # the row's largest room
    if top < 0:
        return [0] * count
    limit = _budget.LIMIT // (_TERM_BITS * 16)
    sizes = _box_size_counts(k - 2, m, top, limit)
    spent = _check_work(limit + 1 if sizes is None else sum(sizes), m, m)

    def charge(n: int) -> None:  # as the call at n, whose size counts are a prefix of these
        room = n - (k + 1) * m
        if room >= 0:
            _check_work(*_boxed_loop(k, m, room), _check_work(sum(sizes[:room + 1]), m, m),
                        binomials=2)

    _check_row(count, charge, *_boxed_loop(k, m, top), spent, binomials=2)
    weight = [0] * len(sizes)
    for parts in boxed_partitions(k - 2, m, top):
        weight[sum(parts)] += monomial_specialization(parts, m)
    sign = -1 if signed else 1
    g = [0] * (top + 1)
    lead = 1  # C(i, m)
    for i in range(m, top + 1):
        term = lead
        for j, t in enumerate(range(i, top + 1, k)):
            g[t] += term
            term = sign * term * (i + j) // (j + 1)
        lead = lead * (i + 1) // (i + 1 - m)
    return [sum(map(operator.mul, weight, reversed(g[:room + 1]))) if room >= 0 else 0
            for room in range(1 - (k + 1) * m, top + 1)]


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
    spent = _check_work(*_quadruple_weight_loop(k, m, room))
    weight = [0] * (room + 1)
    for l in range(top + 1):
        cl = (-1) ** l * binomial(m, l)
        for h in range(room - l * (k - 1) + 1):
            weight[l * (k - 1) + h] += cl * binomial(m + h - 1, h)
    _check_work(*_quadruple_loop(k, m, room, weight), spent, binomials=2)
    total, sign = 0, -1 if signed else 1
    for s, w in enumerate(weight):
        if w:
            for j in range((room - s) // k + 1):
                i = room - s - j * k
                total += w * sign ** j * binomial(i, m) * binomial(i + j - 1, j)
    return total


def _quadruple_weight_loop(k: int, m: int, room: int) -> tuple[int, int, int]:
    """The terms, largest upper index and width of the weight row's (l, h) loop, as charged."""
    top = m if k == 1 else min(m, room // (k - 1))
    return (top + 1) * (room + 1) - (k - 1) * top * (top + 1) // 2, m + room, m


def _quadruple_loop(k: int, m: int, room: int, weight: list[int]) -> tuple[int, int, int]:
    """The terms, largest upper index and width of the (s, j) loop, as charged.

    It runs over the s <= room of nonzero weight.
    """
    terms = sum((room - s) // k + 1 for s, w in zip(range(room + 1), weight) if w)
    return terms, room, max(m, room // k)


def guarded_signed_sum_row(k: int, m: int, count: int) -> list[int]:
    """``guarded_signed_sum(k, n, m)`` at n = 1..count."""
    return _guarded_quadruple_row(k, m, count, signed=True)


def guarded_count_sum_row(k: int, m: int, count: int) -> list[int]:
    """``guarded_count_sum(k, n, m)`` at n = 1..count."""
    return _guarded_quadruple_row(k, m, count, signed=False)


def _guarded_quadruple_row(k: int, m: int, count: int, signed: bool) -> list[int]:
    """The quadruple sum at each room n-(k+1)m of the row, from one weight row.

    The weights step too: C(m, l+1) = C(m, l) (m-l)/(l+1) along l and
    C(m+h, h+1) = C(m+h-1, h) (m+h)/(h+1) along h.
    """
    _check_row_args(k, count, m)
    top = count - (k + 1) * m  # the row's largest room
    if top < 0:
        return [0] * count
    last_l = m if k == 1 else min(m, top // (k - 1))
    spent = _check_work(*_quadruple_weight_loop(k, m, top))
    weight = [0] * (top + 1)
    cl = 1  # C(m, l)
    for l in range(last_l + 1):
        ch = (-1) ** l * cl  # times C(m+h-1, h)
        for h in range(top - l * (k - 1) + 1):
            weight[l * (k - 1) + h] += ch
            ch = ch * (m + h) // (h + 1)
        cl = cl * (m - l) // (l + 1)

    def charge(n: int) -> None:  # as the call at n, whose weights are a prefix of these
        room = n - (k + 1) * m
        if room >= 0:
            _check_work(*_quadruple_loop(k, m, room, weight),
                        _check_work(*_quadruple_weight_loop(k, m, room)), binomials=2)

    _check_row(count, charge, *_quadruple_loop(k, m, top, weight), spent, binomials=2)
    if not any(weight):  # k = 1, m >= 1
        return [0] * count
    sign = -1 if signed else 1
    g = [0] * (top + 1)
    lead = 1  # C(i, m)
    for i in range(m, top + 1):
        term = lead
        for j, t in enumerate(range(i, top + 1, k)):
            g[t] += term
            term = sign * term * (i + j) // (j + 1)
        lead = lead * (i + 1) // (i + 1 - m)
    return [sum(map(operator.mul, weight, reversed(g[:room + 1]))) if room >= 0 else 0
            for room in range(1 - (k + 1) * m, top + 1)]


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
    _check_work(*_small_parts_loop(k, n, m))
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


def _small_parts_loop(k: int, n: int, m: int) -> tuple[int, int, int]:
    """The terms, largest upper index and width of the sum at n, as charged."""
    i_max = (n + (k - 1) * (m + 1)) // k
    # i + j - 1 <= n + k - 2, and C(i+j-1, j) has width min(j, i-1) <= (n + (k-1)m - 1)//(k+1)
    return (max(i_max - m + 1, 0) * (m + 1), max(i_max, n + k - 2),
            max(m, (n + (k - 1) * m - 1) // (k + 1)))


def small_parts_signed_row(k: int, m: int, count: int) -> list[int]:
    """``small_parts_signed(k, n, m)`` at n = 1..count, each term stepped along n.

    The (i, l) term has j = n - c with c = i + (k-1)(l+i-m-1), so from one
    n to the next its j grows by one and C(i+j-1, j) becomes
    C(i+j, j+1) = C(i+j-1, j) (i+j)/(j+1).  A term enters at n = c as
    C(i-1, 0) = 1, or at n = 1 when c < 1.
    """
    _check_row_args(k, count, m)
    _check_row(count, lambda n: _check_work(*_small_parts_loop(k, n, m)),
               *_small_parts_loop(k, count, m))
    entering: list[list[tuple[int, int, int]]] = [[] for _ in range(count + 1)]
    ci = 1  # C(i, m)
    for i in range(m, (count + (k - 1) * (m + 1)) // k + 1):
        cl = 1  # C(m, l)
        for l in range(m + 1):
            c = i + (k - 1) * (l + i - m - 1)
            if c <= count:  # (c, i, the term's coefficient), at the n it enters
                entering[max(c, 1)].append((c, i, (-1) ** (i + l + 1) * ci * cl))
            cl = cl * (m - l) // (l + 1)
        ci = ci * (i + 1) // (i + 1 - m)
    terms: list[int] = []
    cs: list[int] = []
    iis: list[int] = []
    coefficients: list[int] = []
    out = []
    for n in range(1, count + 1):
        terms = [t * (i + n - 1 - c) // (n - c) for t, c, i in zip(terms, cs, iis)]
        for c, i, coefficient in entering[n]:
            terms.append(binomial(i + n - c - 1, n - c))  # 1 unless it enters at n = 1 > c
            cs.append(c)
            iis.append(i)
            coefficients.append(coefficient)
        out.append(sum(map(operator.mul, coefficients, terms)))
    return out
