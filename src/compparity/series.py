"""Exact integer polynomials and truncated power series.

All coefficients are Python ints, so every identity checked through this
module is exact.  A ``TruncatedSeries`` of order N carries coefficients
c_0..c_N; arithmetic between mismatched orders truncates to the smaller
order.  Rational-function expansion requires the denominator to have
constant term +1 or -1, which keeps the recurrence for the coefficients
integral.

The generating functions of the signed composition counts live here too.
They all have the shape "1 - sum over n >= 1 of value_n * x^(n+k-1)", so
the signed value at index n is minus the series coefficient at n+k-1;
``signed_values`` performs that extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from compparity.formulas import congruent_periodic
from compparity.sequences import detect_period


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial; coeffs[d] is the coefficient of x^d.

    Trailing zero coefficients are trimmed on construction, so equality of
    dataclasses is equality of polynomials.  The zero polynomial has an
    empty coefficient tuple.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = tuple(self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_terms(cls, terms: dict[int, int]) -> "IntPolynomial":
        if any(d < 0 for d in terms):
            raise ValueError(f"negative degree in {terms}")
        size = max(terms, default=-1) + 1
        c = [0] * size
        for d, v in terms.items():
            c[d] += v
        return cls(tuple(c))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

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


def poly_divexact(num: IntPolynomial, den: IntPolynomial) -> IntPolynomial:
    """Exact polynomial division; raises if den does not divide num."""
    if not den.coeffs:
        raise ValueError("division by the zero polynomial")
    rem = list(num.coeffs)
    ddeg = den.degree
    lead = den.coeffs[-1]
    qdeg = len(rem) - 1 - ddeg
    if qdeg < 0:
        if any(rem):
            raise ValueError("division is not exact")
        return IntPolynomial(())
    quot = [0] * (qdeg + 1)
    for d in range(qdeg, -1, -1):
        top = rem[d + ddeg]
        if top % lead != 0:
            raise ValueError("division is not exact")
        q = top // lead
        quot[d] = q
        if q:
            for i, b in enumerate(den.coeffs):
                rem[d + i] -= q * b
    if any(rem):
        raise ValueError("division is not exact")
    return IntPolynomial(tuple(quot))


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series known exactly up to x^order."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the constant term")

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((1,) + (0,) * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, d: int) -> int:
        if not 0 <= d <= self.order:
            raise ValueError(f"coefficient {d} beyond truncation order {self.order}")
        return self.coeffs[d]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries(self.coeffs[: order + 1])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(
            tuple(a + b for a, b in zip(self.coeffs[: order + 1], other.coeffs))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(
            tuple(a - b for a, b in zip(self.coeffs[: order + 1], other.coeffs))
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        out = [0] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a:
                for j in range(order - i + 1):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return TruncatedSeries(tuple(out))


def expand_rational(num: IntPolynomial, den: IntPolynomial, order: int) -> TruncatedSeries:
    """Coefficients of num/den up to x^order.

    The constant term of den must be +1 or -1; otherwise the expansion is
    not guaranteed integral and a ValueError is raised.  The result S
    satisfies S * den = num through the truncation order; the expansion
    checks this and raises ArithmeticError otherwise.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    q0 = den.coefficient(0)
    if q0 not in (1, -1):
        raise ValueError(
            f"denominator constant term must be +1 or -1, got {q0}"
        )
    c: list[int] = []
    for t in range(order + 1):
        acc = num.coefficient(t)
        for u in range(1, min(t, den.degree) + 1):
            acc -= den.coefficient(u) * c[t - u]
        c.append(acc * q0)  # q0 in {1, -1} so this is exact division
    series = TruncatedSeries(tuple(c))
    if (series * den.as_series(order)).coeffs != num.as_series(order).coeffs:
        raise ArithmeticError(f"expansion of {num}/{den} fails S * den = num")
    return series


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

def min_part_series(k: int, order: int) -> TruncatedSeries:
    """(1-x) / (1-x+x^k): signed min-part-k counts at exponent n+k-1."""
    if k < 1:
        raise ValueError(f"requires k >= 1, got k={k}")
    num = IntPolynomial.from_terms({0: 1, 1: -1})
    den = IntPolynomial.from_terms({0: 1, 1: -1}) + IntPolynomial.from_terms({k: 1})
    return expand_rational(num, den, order)


def congruent_series(k: int, r: int, s: int, order: int) -> TruncatedSeries:
    """(1-x^r) / (1-x^r+x^(k+s)): signed congruence-class counts."""
    if k < 1:
        raise ValueError(f"requires k >= 1, got k={k}")
    if r < 1 or not 0 <= s < r:
        raise ValueError(f"requires 0 <= s < r and r >= 1, got r={r}, s={s}")
    num = IntPolynomial.from_terms({0: 1, r: -1})
    den = IntPolynomial.from_terms({0: 1, r: -1}) + IntPolynomial.from_terms({k + s: 1})
    return expand_rational(num, den, order)


def periodic_series(r: int, order: int) -> TruncatedSeries:
    """(1-x^(2r)) / (1+x^(3r)), the k = 2r-s generating function.

    Expands as sum of (-1)^i x^(3ri) minus sum of (-1)^j x^(2r+3rj), which
    makes the period-6r structure of the coefficients plain.
    """
    if r < 1:
        raise ValueError(f"requires r >= 1, got r={r}")
    num = IntPolynomial.from_terms({0: 1, 2 * r: -1})
    den = IntPolynomial.from_terms({0: 1, 3 * r: 1})
    return expand_rational(num, den, order)


def pentagonal_product(order: int) -> TruncatedSeries:
    """Product of (1 - x^n) for n = 1..order, truncated at x^order."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    c = [0] * (order + 1)
    c[0] = 1
    for n in range(1, order + 1):
        for t in range(order, n - 1, -1):
            c[t] -= c[t - n]
    return TruncatedSeries(tuple(c))


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
# bivariate series for the small-part statistic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BivariateSeries:
    """Series in x and y truncated to a rectangle.

    coeffs[a][b] is the coefficient of x^a y^b, 0 <= a <= x_order and
    0 <= b <= y_order.
    """

    coeffs: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.coeffs or not self.coeffs[0]:
            raise ValueError("bivariate series needs at least the constant term")
        width = len(self.coeffs[0])
        if any(len(row) != width for row in self.coeffs):
            raise ValueError("ragged coefficient rows")

    @classmethod
    def zero(cls, x_order: int, y_order: int) -> "BivariateSeries":
        return cls(tuple((0,) * (y_order + 1) for _ in range(x_order + 1)))

    @classmethod
    def one(cls, x_order: int, y_order: int) -> "BivariateSeries":
        rows = [[0] * (y_order + 1) for _ in range(x_order + 1)]
        rows[0][0] = 1
        return cls(tuple(tuple(r) for r in rows))

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

    def __add__(self, other: "BivariateSeries") -> "BivariateSeries":
        xo = min(self.x_order, other.x_order)
        yo = min(self.y_order, other.y_order)
        return BivariateSeries(
            tuple(
                tuple(self.coeffs[a][b] + other.coeffs[a][b] for b in range(yo + 1))
                for a in range(xo + 1)
            )
        )

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        xo = min(self.x_order, other.x_order)
        yo = min(self.y_order, other.y_order)
        out = [[0] * (yo + 1) for _ in range(xo + 1)]
        for a in range(xo + 1):
            row = self.coeffs[a]
            for b in range(yo + 1):
                v = row[b]
                if not v:
                    continue
                for c in range(xo - a + 1):
                    orow = other.coeffs[c]
                    for d in range(yo - b + 1):
                        w = orow[d]
                        if w:
                            out[a + c][b + d] += v * w
        return BivariateSeries(tuple(tuple(r) for r in out))


def small_parts_series(k: int, x_order: int, y_order: int) -> BivariateSeries:
    """Geometric sum of T = -y(x+..+x^(k-1)) - (x^k+x^(k+1)+..).

    Each factor of T selects one part: small parts (< k) carry a marker y,
    every part carries a sign -1.  Summing T^i over i >= 0 gives, at
    x^(n+k-1) y^m, minus the signed count of compositions of n+k-1 with
    exactly m parts < k.  Since every monomial of T is divisible by x the
    sum terminates at i = x_order.
    """
    if k < 1:
        raise ValueError(f"requires k >= 1, got k={k}")
    if x_order < 0 or y_order < 0:
        raise ValueError(f"orders must be >= 0, got ({x_order},{y_order})")
    rows = [[0] * (y_order + 1) for _ in range(x_order + 1)]
    for a in range(1, x_order + 1):
        if a < k:
            if y_order >= 1:
                rows[a][1] = -1
        else:
            rows[a][0] = -1
    t = BivariateSeries(tuple(tuple(r) for r in rows))
    total = BivariateSeries.one(x_order, y_order)
    power = BivariateSeries.one(x_order, y_order)
    for _ in range(x_order):
        power = power * t
        total = total + power
    return total


def bivariate_signed_value(series: BivariateSeries, k: int, n: int, m: int) -> int:
    """Signed small-part count at (n, m): minus the x^(n+k-1) y^m coefficient."""
    if k < 1 or n < 1:
        raise ValueError(f"requires k >= 1 and n >= 1, got k={k}, n={n}")
    return -series.coefficient(n + k - 1, m)


# ---------------------------------------------------------------------------
# cyclotomic comparison and the shift check for the period-6r sequences
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, by dividing x^n - 1 by the others."""
    if n < 1:
        raise ValueError(f"requires n >= 1, got n={n}")
    num = IntPolynomial.from_terms({n: 1, 0: -1})
    for d in range(1, n):
        if n % d == 0:
            num = poly_divexact(num, cyclotomic(d))
    return num


@dataclass(frozen=True)
class ShiftCheckReport:
    """Outcome of the inverse/periodicity check for a k = 2r-s sequence."""

    r: int
    s: int
    k: int
    inverse_ok: bool
    preperiod: int | None
    period: int | None
    period_divides: bool

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
    is the 6r-th cyclotomic polynomial (see ``cyclotomic``); that is
    checked in the test suite and not decided here for general r.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    k = 2 * r - s
    if k < 1:
        raise ValueError(f"requires 2r - s >= 1, got r={r}, s={s}")
    window = 6 * 6 * r
    need = max(order + s + 1, window)
    vals = [congruent_periodic(k, n, r, s) for n in range(1, need + 1)]

    shifted = TruncatedSeries(tuple(vals[s : s + order + 1]))
    phi_like = IntPolynomial.from_terms({0: 1, r: -1, 2 * r: 1})
    product = shifted * phi_like.as_series(order)
    inverse_ok = product.coeffs == TruncatedSeries.one(order).coeffs

    found = detect_period(vals[:window])
    if found is None:
        preperiod: int | None = None
        period: int | None = None
        divides = False
    else:
        preperiod, period = found
        divides = (6 * r) % period == 0 and preperiod == 0
    return ShiftCheckReport(r, s, k, inverse_ok, preperiod, period, divides)
