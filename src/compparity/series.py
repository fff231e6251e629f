"""Exact integer polynomials and truncated power series.

All coefficients are Python ints, so every identity checked through this
module is exact.  A ``TruncatedSeries`` of order N carries coefficients
c_0..c_N.  Rational-function expansion requires the denominator to have
constant term +1 or -1, which keeps the recurrence for the coefficients
integral.

``expand_rational`` is the kernel the univariate rational series go
through: ``parts_in_series``, ``periodic_series``, ``guarded_series``
and the CLI's ``series rational``.  Three builders fill their rows by
recurrences of their own and do not use it.  ``small_parts_series`` and
``franklin_series`` are bivariate: each coefficient of x^a is a
polynomial in y, which the kernel's integer recurrence does not carry,
so the first fills its table from S = 1 + T*S by running column sums,
and the second sums the partition numbers and then multiplies each
numerator factor in.  ``pentagonal_product`` is a product, not a
quotient of two given polynomials; each of its levels divides by
1 - x^j as one running sum per residue class, in place, where a kernel
call would copy the row and check a product at every level.
The kernel's recurrence runs a head, the indices below the largest lag
of the denominator, where only the shorter lags reach back, and then a
steady state with no bounds test.  The denominators built here have one
or two terms +1 or -1 besides the constant (all but 1 - 2x, at k = 1),
and for those the steps are straight-line loops that add or subtract
without a multiply, such as c[t] += c[t-p] - c[t-m]; any other
denominator takes a generic loop.
Every expansion S is then checked: S * den, formed from den itself by
one shifted add per term over the whole row, must equal the numerator
through the order, or ArithmeticError is raised.

The generating functions of the signed composition counts live here too.
They all have the shape "1 - sum over n >= 1 of value_n * x^(n+k-1)", so
the signed value at index n is minus the series coefficient at n+k-1;
``signed_values`` performs that extraction.  No route in the package
calls it: it stays as the reference the benchmark's ``rows`` checks read
(``perfbench/checks.py``) until ROADMAP item 1b moves those checks off
it.  ``parts_in_series`` is the one builder for parts in an eventually
periodic set (the class ``compositions.PartsIn``); ``min_part_series``
and ``congruent_series`` call it.

Euler's product (1-x)(1-x^2)... is summed by number of distinct parts,
sum over j of (-1)^j x^(j(j+1)/2) / ((1-x)...(1-x^j)), in nested form
1 - x/(1-x) (1 - x^2/(1-x^2) (1 - x^3/(1-x^3) (...))), from the innermost
level outward.  Each level is one shift and one running sum per residue
class, one addition per coefficient, about (2/3) order * sqrt(2 order)
in all to x^order.  The signs cancel level by level, so the rows stay
small: below 2^27 at order 20000, single-digit ints for CPython, where
the terms of the plain sum reach 354 bits.  A call charged
more than ``MAX_PRODUCT_ADDITIONS`` is refused with ValueError before
anything is allocated.
"""

from __future__ import annotations

import itertools
import math
import operator

from compparity._value import Value
from compparity.formulas import congruent_periodic
from compparity.sequences import detect_period


class IntPolynomial(Value):
    """Integer polynomial; coeffs[d] is the coefficient of x^d.

    Trailing zero coefficients are trimmed on construction, so two
    polynomials are equal exactly when their coefficient tuples are.  The
    zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        c = tuple(coeffs)
        end = len(c)
        while end and c[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", c[:end])

    @classmethod
    def from_terms(cls, terms: dict[int, int]) -> "IntPolynomial":
        if any(d < 0 for d in terms):
            raise ValueError(f"negative degree in {terms}")
        return _up_to(max(terms, default=-1), *terms.items())

    def coefficient(self, d: int) -> int:
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            tuple(self.coefficient(d) + other.coefficient(d) for d in range(n))
        )

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            tuple(self.coefficient(d) - other.coefficient(d) for d in range(n))
        )

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def as_series(self, order: int) -> "TruncatedSeries":
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        c = list(self.coeffs[: order + 1])
        c += [0] * (order + 1 - len(c))
        return TruncatedSeries(tuple(c))


class TruncatedSeries(Value):
    """Power series known exactly up to x^order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, d: int) -> int:
        if not 0 <= d <= self.order:
            raise ValueError(f"coefficient {d} beyond truncation order {self.order}")
        return self.coeffs[d]


def expand_rational(num: IntPolynomial, den: IntPolynomial, order: int) -> TruncatedSeries:
    """Coefficients of num/den up to x^order.

    The constant term q0 of den must be +1 or -1; otherwise the expansion
    is not guaranteed integral and a ValueError is raised.  Multiplying
    num and den by q0 makes it +1, and then c_t = num_t + sum over the
    steps (u, w) of w c_(t-u), one step w = -q0 den_u for each nonzero
    den_u with 1 <= u <= order.  A head, t below the largest lag, reads
    only the lags that reach back to c_0; the steady state after it reads
    every lag with no bounds test.  With one or two steps of weight +1
    or -1, the common case, the loops are written out for the signs and
    add or subtract without a multiply (``_unit_recurrence``); any other
    den takes ``_weighted_recurrence``.

    The result S is checked: S * den is formed to x^order from den itself,
    not from the steps, as one shifted add per nonzero term of den over
    the whole row, and must equal num through the order.  A mismatch
    raises ArithmeticError.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    q0 = den.coefficient(0)
    if q0 not in (1, -1):
        raise ValueError(
            f"denominator constant term must be +1 or -1, got {q0}"
        )
    num_row = num.coeffs[: order + 1]
    c = list(num_row) if q0 == 1 else [-v for v in num_row]
    c += [0] * (order + 1 - len(c))
    terms = [(u, d) for u, d in enumerate(den.coeffs[1 : order + 1], 1) if d]
    steps = [(u, -q0 * d) for u, d in terms]
    if len(steps) <= 2 and all(w in (1, -1) for _, w in steps):
        _unit_recurrence(c, steps)
    else:
        _weighted_recurrence(c, steps)
    prod = c.copy() if q0 == 1 else [-v for v in c]
    for u, d in terms:
        if d == 1:
            prod[u:] = map(operator.add, prod[u:], c)
        elif d == -1:
            prod[u:] = map(operator.sub, prod[u:], c)
        else:
            prod[u:] = map(operator.add, prod[u:], map(operator.mul, c, itertools.repeat(d)))
    if any(map(operator.ne, prod, num_row)) or any(prod[len(num_row):]):
        raise ArithmeticError(f"expansion of {num}/{den} fails S * den = num")
    return TruncatedSeries(tuple(c))


def _unit_recurrence(c: list[int], steps: list[tuple[int, int]]) -> None:
    """c[t] += w c[t-u] in place, for at most two steps (u, w), w = +-1.

    The lags ascend, p < m.  Up to m only p reaches back (the head); from m
    on both do.  Steps of opposite signs share one loop, c[t] += c[t-a] -
    c[t-b] with a the lag of the +1 step.
    """
    if not steps:
        return
    n = len(c)
    (p, wp), *rest = steps
    m = rest[0][0] if rest else n
    if wp == 1:
        for t in range(p, m):
            c[t] += c[t - p]
    else:
        for t in range(p, m):
            c[t] -= c[t - p]
    if not rest:
        return
    wm = rest[0][1]
    if wp == wm == 1:
        for t in range(m, n):
            c[t] += c[t - p] + c[t - m]
    elif wp == wm:
        for t in range(m, n):
            c[t] -= c[t - p] + c[t - m]
    else:
        a, b = (p, m) if wp == 1 else (m, p)
        for t in range(m, n):
            c[t] += c[t - a] - c[t - b]


def _weighted_recurrence(c: list[int], steps: list[tuple[int, int]]) -> None:
    """c[t] += sum of w c[t-u] in place over the steps (u, w), lags ascending."""
    n = len(c)
    top = steps[-1][0]
    for t in range(1, min(top, n)):  # the head: the lags u <= t
        acc = c[t]
        for u, w in steps:
            if u > t:
                break
            acc += w * c[t - u]
        c[t] = acc
    for t in range(top, n):
        acc = c[t]
        for u, w in steps:
            acc += w * c[t - u]
        c[t] = acc


def signed_values(series: TruncatedSeries, k: int, count: int) -> list[int]:
    """Extract [-c_(n+k-1) for n = 1..count] from a signed-count series."""
    if k < 1:
        raise ValueError(f"requires k >= 1, got k={k}")
    if count + k - 1 > series.order:
        raise ValueError(
            f"need order >= {count + k - 1}, series has order {series.order}"
        )
    return [-series.coeffs[n + k - 1] for n in range(1, count + 1)]


# ---------------------------------------------------------------------------
# generating functions of the signed composition counts
# ---------------------------------------------------------------------------

def _up_to(order: int, *terms: tuple[int, int]) -> IntPolynomial:
    """The sum of c*x^d over the (d, c) terms with d <= order.

    An expansion to x^order reads no coefficient above it, so the dropped
    terms cannot change it, and a huge exponent allocates nothing.
    """
    kept = [(d, v) for d, v in terms if d <= order]
    c = [0] * (max((d for d, _ in kept), default=-1) + 1)
    for d, v in kept:
        c[d] += v
    return IntPolynomial(tuple(c))


def parts_in_series(least: int, period: int, residues: tuple[int, ...], t: int,
                    order: int) -> TruncatedSeries:
    """1/(1 - t P(x)) = (1-x^p) / (1-x^p - t sum of x^a), p the period.

    The parts >= least in each residue rho run a, a+p, ..., a = least +
    (rho-least) % p, so they sum to P(x) = sum of x^a/(1-x^p).  Written by
    hand, never from ``compositions.PartsIn.step``; t weights every part.
    """
    if least < 1 or period < 1 or not residues or not all(0 <= rho < period for rho in residues):
        raise ValueError(f"requires least, period >= 1 and residues in 0..{period - 1}, "
                         f"got least={least}, period={period}, residues={residues!r}")
    if t not in (-1, 1):
        raise ValueError(f"requires t = -1 or +1, got t={t}")
    smallest = {least + (rho - least) % period for rho in residues}
    num = _up_to(order, (0, 1), (period, -1))
    den = _up_to(order, (0, 1), (period, -1), *((a, -t) for a in smallest))
    return expand_rational(num, den, order)


def min_part_series(k: int, order: int) -> TruncatedSeries:
    """(1-x) / (1-x+x^k), every part >= k weighted by -1.

    The coefficient at x^(n+k-1) is minus the signed min-part-k count at
    index n.
    """
    if k < 1:
        raise ValueError(f"requires k >= 1, got k={k}")
    return parts_in_series(k, 1, (0,), -1, order)


def congruent_series(k: int, r: int, s: int, order: int) -> TruncatedSeries:
    """(1-x^r) / (1-x^r+x^(k+s)): signed congruence-class counts."""
    if k < 1:
        raise ValueError(f"requires k >= 1, got k={k}")
    if r < 1 or not 0 <= s < r:
        raise ValueError(f"requires 0 <= s < r and r >= 1, got r={r}, s={s}")
    return parts_in_series(k, r, ((k + s) % r,), -1, order)


def periodic_series(r: int, order: int) -> TruncatedSeries:
    """(1-x^(2r)) / (1+x^(3r)), the k = 2r-s generating function.

    Expands as sum of (-1)^i x^(3ri) minus sum of (-1)^j x^(2r+3rj), which
    makes the period-6r structure of the coefficients plain.
    """
    if r < 1:
        raise ValueError(f"requires r >= 1, got r={r}")
    num = _up_to(order, (0, 1), (2 * r, -1))
    den = _up_to(order, (0, 1), (3 * r, 1))
    return expand_rational(num, den, order)


def guarded_series(k: int, m: int, t: int, order: int) -> TruncatedSeries:
    """G_m = t x^((k+1)m+k-1) (x-x^k)^m (x + [m>=1] L) / ((1-x)^m L^(m+1)).

    Here L = 1 - x - t x^k, and every part carries the weight t.  Read as
    a regular language, the guarded class is B (B | S B>)* (eps | S Bk):
    B is a part >= k, B> a part > k, Bk the part k and S a part < k.  Its
    y^m slice, the members with exactly m small parts, sums to G_m.  So
    with t = -1 the coefficient at x^(n+k-1) is minus the signed count at
    index n, and with t = +1 it is the count itself.

    Written by hand from that language, never from ``GuardedSmall.step``.
    The numerator is expanded in closed form, (x-x^k)^m = x^m (1-x^(k-1))^m
    by the binomial theorem and x + L = 1 - t x^k, and cut at the order
    less the leading power.  It is then divided by L once and, m times,
    by 1-x (a running sum) and by L, so the work is O(order * (2m+1)).
    Each of those 2m+1 divisions is one ``expand_rational`` call with its
    own product check; for k >= 2 each denominator has two unit steps.
    """
    if k < 1 or m < 0:
        raise ValueError(f"requires k >= 1 and m >= 0, got k={k}, m={m}")
    if t not in (-1, 1):
        raise ValueError(f"requires t = -1 or +1, got t={t}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    shift = (k + 1) * m + k - 1
    low = order - shift
    if m == 0:
        num = _up_to(low, (1, t))
    elif k == 1:  # x - x^k = 0
        num = IntPolynomial(())
    else:  # the binomial terms of degree <= low, times t (1 - t x^k)
        top = min(m, (low - m) // (k - 1))
        terms = [(m + (k - 1) * j, (-1) ** j * math.comb(m, j)) for j in range(top + 1)]
        num = _up_to(low, *((d, t * c) for d, c in terms), *((d + k, -c) for d, c in terms))
    if not num.coeffs:  # every term is past the order
        return TruncatedSeries((0,) * (order + 1))
    ell = _up_to(low, (0, 1), (1, -1), (k, -t))
    one_minus_x = _up_to(low, (0, 1), (1, -1))
    for den in [ell] + [one_minus_x, ell] * m:
        num = IntPolynomial(expand_rational(num, den, low).coeffs)
    return TruncatedSeries((0,) * shift + num.as_series(low).coeffs)


# Most additions one ``pentagonal_product`` call may make, charged before
# it allocates: sum over j <= J of order - j(j-1)/2, one per coefficient of
# each level.  The largest order served is 121644, which takes about
# 1.4 s on a 2-core x86 machine.
MAX_PRODUCT_ADDITIONS = 40_000_000


def pentagonal_product(order: int) -> TruncatedSeries:
    """Product of (1 - x^n) for n = 1..order, truncated at x^order.

    Summed by number of distinct parts, from Euler's identity
    prod (1 - x^n) = sum over j >= 0 of (-1)^j x^(j(j+1)/2) / ((1-x)...(1-x^j)).
    Taking the staircase 1, 2, ..., j away from a partition into j
    distinct parts leaves a partition into at most j parts, and back, so
    term j counts the distinct partitions with j parts, signed (-1)^j.

    The sum is evaluated in nested (Horner) form: with J the largest j
    where J(J+1)/2 <= order and R_J = 1, R_(j-1) = 1 - x^j R_j / (1 - x^j)
    truncated at x^(order - j(j-1)/2), and R_0 is the product.  A level is
    a shift by x^j, a division by 1 - x^j as one running sum per residue
    class mod j, and the constant term.  The row holds R_j times a sign
    that flips at every level and ends at +1 on R_0, so no level negates.
    That is sum over j <= J of order - j(j-1)/2 additions, about
    (2/3) order * sqrt(2 order), refused past ``MAX_PRODUCT_ADDITIONS``.
    The signs cancel level by level, so the rows stay small: the largest
    coefficient of any level had 27 bits at order 20000, 64 at order
    100000 and 71 at order 121644, against 354 bits for the terms of the
    plain sum at order 20000.  The pentagonal numbers are never used, so
    ``pentagonal_rhs`` stays a separate route.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    top = (math.isqrt(8 * order + 1) - 1) // 2
    additions = top * order - (top - 1) * top * (top + 1) // 6
    if additions > MAX_PRODUCT_ADDITIONS:
        raise ValueError(f"the product to x^{order} takes {additions} additions, "
                         f"past the limit of {MAX_PRODUCT_ADDITIONS}")
    sign = -1 if top % 2 else 1
    row = [sign] + [0] * (order - top * (top + 1) // 2)  # sign * R_top
    for j in range(top, 0, -1):
        row[:0] = [0] * j  # times x^j
        for r in range(j, 2 * j):  # divided by 1 - x^j
            row[r::j] = itertools.accumulate(row[r::j])
        sign = -sign
        row[0] = sign
    return TruncatedSeries(tuple(row))


def pentagonal_rhs(order: int) -> TruncatedSeries:
    """1 + sum over j >= 1 of (-1)^j (x^(j(3j-1)/2) + x^(j(3j+1)/2))."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    c = [0] * (order + 1)
    c[0] = 1
    j = 1
    while j * (3 * j - 1) // 2 <= order:
        sign = (-1) ** j
        c[j * (3 * j - 1) // 2] += sign
        e = j * (3 * j + 1) // 2
        if e <= order:
            c[e] += sign
        j += 1
    return TruncatedSeries(tuple(c))


# ---------------------------------------------------------------------------
# bivariate series for the small-part and repeated-value statistics
# ---------------------------------------------------------------------------

class BivariateSeries(Value):
    """Series in x and y truncated to a rectangle.

    coeffs[a][b] is the coefficient of x^a y^b, 0 <= a <= x_order and
    0 <= b <= y_order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[tuple[int, ...], ...]) -> None:
        if not coeffs or not coeffs[0]:
            raise ValueError("bivariate series needs at least the constant term")
        width = len(coeffs[0])
        if any(len(row) != width for row in coeffs):
            raise ValueError("ragged coefficient rows")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def x_order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def y_order(self) -> int:
        return len(self.coeffs[0]) - 1

    def coefficient(self, a: int, b: int) -> int:
        if not (0 <= a <= self.x_order and 0 <= b <= self.y_order):
            raise ValueError(
                f"({a},{b}) beyond truncation ({self.x_order},{self.y_order})"
            )
        return self.coeffs[a][b]

    def y_slice(self, b: int) -> TruncatedSeries:
        """The univariate series of x-coefficients of y^b."""
        return TruncatedSeries(tuple(row[b] for row in self.coeffs))


def small_parts_series(k: int, x_order: int, y_order: int) -> BivariateSeries:
    """Geometric sum S = 1/(1-T), T = -y(x+..+x^(k-1)) - (x^k+x^(k+1)+..).

    Each factor of T selects one part: small parts (< k) carry a marker y,
    every part carries a sign -1.  Summing T^i over i >= 0 gives, at
    x^(n+k-1) y^m, minus the signed count of compositions of n+k-1 with
    exactly m parts < k.  The rows of S are filled from S = 1 + T*S: the
    x^a row is minus the rows a-k+1..a-1 shifted up one power of y, minus
    the rows 0..a-k, both read off running column sums, in O(x_order *
    y_order).
    """
    if k < 1:
        raise ValueError(f"requires k >= 1, got k={k}")
    if x_order < 0 or y_order < 0:
        raise ValueError(f"orders must be >= 0, got ({x_order},{y_order})")
    rows = [[1] + [0] * y_order]
    sums = [[0] * (y_order + 1), rows[0]]  # sums[a]: column sums of rows 0..a-1
    for a in range(1, x_order + 1):
        lo, hi = sums[max(a - k + 1, 0)], sums[a]
        row = [-lo[0]] + [lo[b - 1] - hi[b - 1] - lo[b] for b in range(1, y_order + 1)]
        rows.append(row)
        sums.append(list(map(operator.add, hi, row)))
    return BivariateSeries(tuple(map(tuple, rows)))


def franklin_series(k: int, x_order: int, y_order: int) -> BivariateSeries:
    """Product over i >= 1 of (1 + (y-1) x^(ki)) / (1 - x^i), in x and y.

    A value i taken c times gives x^(ci), marked by y when c >= k: summed
    over c, (1 - x^(ki) + y x^(ki)) / (1 - x^i).  So x^n y^m counts the
    partitions of n with exactly m values repeated k or more times, the
    repeated side of Franklin's identity.  The y^0 column is first filled
    with the partition numbers, by one running sum per 1/(1 - x^i); each
    numerator factor with ki <= x_order is then multiplied in, the rows
    from the top down so that each reads rows not yet changed.
    """
    if k < 1:
        raise ValueError(f"requires k >= 1, got k={k}")
    if x_order < 0 or y_order < 0:
        raise ValueError(f"orders must be >= 0, got ({x_order},{y_order})")
    counts = [1] + [0] * x_order
    for i in range(1, x_order + 1):
        for a in range(i, x_order + 1):
            counts[a] += counts[a - i]
    rows = [[c] + [0] * y_order for c in counts]
    for shift in range(k, x_order + 1, k):  # x^(ki)
        for a in range(x_order, shift - 1, -1):
            low, row = rows[a - shift], rows[a]
            row[0] -= low[0]
            for b in range(1, y_order + 1):
                row[b] += low[b - 1] - low[b]
    return BivariateSeries(tuple(map(tuple, rows)))


# ---------------------------------------------------------------------------
# the shift check for the period-6r sequences
# ---------------------------------------------------------------------------

class ShiftCheckReport(Value):
    """Outcome of the inverse/periodicity check for a k = 2r-s sequence."""

    __slots__ = ("r", "s", "k", "inverse_ok", "preperiod", "period", "period_divides")

    @property
    def passed(self) -> bool:
        return self.inverse_ok and self.period_divides


def cyclotomic_shift_check(r: int, s: int, order: int) -> ShiftCheckReport:
    """Check the period-6r sequence against 1/(1 - x^r + x^(2r)).

    Let b(n) be the signed count for k = 2r-s.  The generating identity is
    sum over n >= 1 of b(n) x^n = x^(s+1) / (1 - x^r + x^(2r)), so the
    sequence shifted to start at n = s+1 must be the inverse of
    1 - x^r + x^(2r); that product is checked to the given order.  The
    unshifted sequence is also scanned over a 6*6r window and its detected
    period must divide 6r.  For r = 2, 3, 4 the polynomial 1 - x^r + x^(2r)
    is the 6r-th cyclotomic polynomial; that is checked in the test suite
    and not decided here for general r.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    k = 2 * r - s
    if k < 1:
        raise ValueError(f"requires 2r - s >= 1, got r={r}, s={s}")
    window = 6 * 6 * r
    need = max(order + s + 1, window)
    vals = [congruent_periodic(k, n, r, s) for n in range(1, need + 1)]

    shifted = IntPolynomial(tuple(vals[s : s + order + 1]))
    phi_like = IntPolynomial.from_terms({0: 1, r: -1, 2 * r: 1})
    product = (phi_like * shifted).as_series(order)
    inverse_ok = product.coeffs == (1,) + (0,) * order

    found = detect_period(vals[:window])
    if found is None:
        preperiod: int | None = None
        period: int | None = None
        divides = False
    else:
        preperiod, period = found
        divides = (6 * r) % period == 0 and preperiod == 0
    return ShiftCheckReport(r, s, k, inverse_ok, preperiod, period, divides)
