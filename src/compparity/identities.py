"""The identities: one entry each, behind both the sweeps and the CLI tokens.

The paper states each composition identity in an index n, while its class
lives on size n + offset(k) = n+k-1; ``offset`` is the one place that says
so.  An entry's ``params`` maps a row's leading axes to the parameters
(k, ...) of such an identity, which starts at n = 1.  An entry without
``params`` lives on size n, starts at n = 0 and passes its axes on as
they are.

An entry declares its routes by kind, each named from ``verify.ROUTES``:
``row_form`` (a ``formulas`` function listing n = 1..count, and the name
of its per-n form), ``per_n`` (a function of one instance), ``tally`` (a
class, counted by the enumeration oracle) and ``coefficient`` (a
``series`` expansion, read at each size).  The offset is applied once per
kind.  Functions are looked up on their module when called, so a function
replaced since is the one called.

``verify`` runs the sweep of every entry with a grid: it compares the
routes, and ``also`` adds a (quantity, routes) pair per further quantity;
an entry with a ``check`` runs that ``verify`` function on its rows
instead.  ``cli`` serves the entry's tokens: ``value`` names the route
that ``formula`` prints and that a sequence without a row reads term by
term; ``tokens`` holds each sequence token's quantity, the route that
serves its ``bfile`` and ``period`` rows, and its stderr note; ``series``
holds each series token, with its flags and the ``series`` function that
its "series" route reads.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence

from compparity import compositions, formulas, partition_theorems, partitions, series
from compparity._value import Value


def offset(k: int) -> int:
    """The class of a composition identity at index n lives on size n + offset(k)."""
    return k - 1


class Route(Value):
    """One route to an identity's values.

    ``values(rows, p, shift, ns)`` gives its values at each n of a row, the
    ascending ``ns``, at parameters ``p``, the class of index n living on
    size n + shift.  ``rows(fn, *lead, size=...)`` gives ``fn(*lead,
    *size)``, or a stored row that is at least that large.  ``when`` takes
    one instance, every grid axis: the route is asked only for the n it
    accepts, or for every n of the row when it is None.  ``value(*p, n)``
    is its per-n form, where it has one.  ``values.__wrapped__`` is the
    function the route is declared with, which takes p first.
    """

    __slots__ = ("name", "values", "when", "value")

    def __init__(self, name: str, values: Callable[..., list],
                 when: Callable[..., bool] | None = None,
                 value: Callable[..., object] | None = None) -> None:
        super().__init__(name, values, when, value)


def row_form(name: str, attr: str, per_n: str | None = None) -> Route:
    """``formulas.<attr>(*p, count)``, which lists n = 1..count; one row serves a sweep row.

    ``per_n`` names its per-n form, ``formulas.<per_n>(k, n, ...)``.  A
    binomial-sum row form steps each term from one n to the next, and is
    charged and refused as its per-n calls would be, largest n first.
    """
    def values(rows, p, shift, ns):
        row = rows(getattr(formulas, attr), *p, size=(ns[-1],))
        return [row[n - 1] for n in ns]

    values.__wrapped__ = getattr(formulas, attr)
    value = per_n and (lambda k, *a: getattr(formulas, per_n)(k, a[-1], *a[:-1]))
    return Route(name, values, value=value)


def per_n(name: str, fn: Callable[..., object], when: Callable[..., bool] | None = None) -> Route:
    """``fn(*p, n)`` at each n, asked largest n first.

    For per-n routes that cost O(1) or read a tally: largest first, so that
    one that reads a tally, such as euler's signed closed form, tallies its
    class once.
    """
    @functools.wraps(fn)
    def values(rows, p, shift, ns):
        return [fn(*p, n) for n in reversed(ns)][::-1]

    return Route(name, values, when, fn)


def tally(name: str, make: Callable[..., object], side=compositions, sign: int = 1,
          at_n: bool = False, when: Callable[..., bool] | None = None,
          singletons: bool = False, value: Callable[..., object] | None = None) -> Route:
    """The members of the class ``make(*p)`` at size n + shift, or at n with ``at_n``.

    ``side`` is the module of the class, ``compositions`` or ``partitions``.
    Compositions count odd + ``sign`` * even length, partitions even +
    ``sign`` * odd: at ``sign`` -1, the signed orientation of each side.
    With ``singletons`` a partition's parity is that of its values of
    multiplicity one.  One tally, at the row's largest size, serves the
    row; ``value`` is the per-n form, where it has one.
    """
    def values(rows, p, shift, ns):
        if at_n:
            shift = 0
        by_size = partitions.singleton_counts_by_size if singletons else side.counts_by_size
        counts = by_size(ns[-1] + shift, make(*p))
        pairs = [counts[n + shift] for n in ns]
        if side is partitions:
            return [even + sign * odd for odd, even in pairs]
        return [odd + sign * even for odd, even in pairs]

    values.__wrapped__ = make
    return Route(name, values, when, value)


def coefficient(name: str, attr: str, args: Callable[..., tuple] | None = None, sign: int = 1,
                at_n: bool = False, y: bool = False,
                reach: Callable[..., int] | None = None) -> Route:
    """``sign`` times the x^(n+shift) coefficient of ``series.<attr>(*args(*p), order)``.

    ``args`` defaults to p itself, and ``at_n`` reads x^n.  With ``y`` the
    expansion is a table to x^order y^m, m the last parameter, read at
    x^(n+shift) y^m.  One expansion, to the row's largest size, serves the
    row; ``reach(*p)``, where given, is the largest shift of any parameters
    that share ``args(*p)``, so that it is expanded once for all of them.
    """
    def values(rows, p, shift, ns):
        if at_n:
            shift = 0
        lead = p if args is None else args(*p)
        top = ns[-1] + (shift if reach is None else reach(*p))
        coeffs = rows(getattr(series, attr), *lead, size=(top, p[-1]) if y else (top,)).coeffs
        if y:
            return [sign * coeffs[n + shift][p[-1]] for n in ns]
        return [sign * coeffs[n + shift] for n in ns]

    values.__wrapped__ = getattr(series, attr) if args is None else args
    return Route(name, values)


def _lead(*lead: int) -> tuple[int, ...]:
    """The leading axes themselves, k first: an identity on size n+k-1 with a k axis."""
    return lead


def grid_terms(grid: str) -> list[tuple[str, str, str, str]]:
    """(axis, first, "..", last) per grid term; "" where a part is absent."""
    terms = (term.partition("=") for term in grid.split())
    return [(axis, *value.rpartition("..")) for axis, _, value in terms]


class Identity(Value):
    """One identity: its sweep and the CLI tokens it serves.

    ``grid`` reads as the sweep's ranges, or is None for an identity with
    no sweep.  A term ``a=first..last`` is an axis whose integer ``last``
    is the default that ``SweepConfig`` overrides; ``s=0..r-1`` bounds an
    axis by an earlier one; ``order=100`` is a single point; any other term
    (``k=r-s``) is text only.  The points, in axis order, pass through
    ``instances``, which may add instances of another kind; ``note``
    extends the ranges text from the axes' effective last values.

    ``routes`` holds the reference route, then the routes compared with it;
    ``check``, where given, names the ``verify`` function that checks each
    row in their place.  ``value`` is a route name, or a function of p
    giving one.  A token of ``tokens`` is (token, quantity, row route or
    None, note or None), the note a function of n and p; one of ``series``
    is (token, flags, the ``series`` function it expands).
    """

    __slots__ = ("grid", "params", "routes", "also", "instances", "note", "check", "value",
                 "tokens", "series")

    def __init__(
        self,
        grid: str | None,
        params: Callable[..., tuple] | None = None,
        routes: tuple[Route, ...] = (),
        also: tuple[tuple[str, tuple[Route, ...]], ...] = (),
        instances: Callable[[list[tuple]], list[tuple]] = lambda points: points,
        note: Callable[[dict[str, int]], str] = lambda last: "",
        check: str | None = None,
        value: str | Callable[..., str] = "closed form",
        tokens: tuple[tuple, ...] = (),
        series: tuple[tuple[str, str, str], ...] = (),
    ) -> None:
        super().__init__(grid, params, routes, also, instances, note, check, value, tokens,
                         series)

    @property
    def axes(self) -> list[str]:
        """The grid's axes, n last: the parameters of one instance."""
        return [axis for axis, _, dots, last in grid_terms(self.grid or "")
                if dots or last.isdigit()]

    @property
    def flags(self) -> str:
        """The CLI flags of its sequence tokens: the leading axes, and --k if derived."""
        lead = self.axes[:-1]
        return " ".join(lead + ["k?"] * (self.params is not None and "k" not in lead))

    @property
    def first(self) -> int:
        """The first index of its sequences."""
        return 0 if self.params is None else 1

    def at(self, lead: Sequence[int], k: int | None = None) -> tuple[tuple, int]:
        """The parameters at a row's leading axes, k replaced when given, and their shift."""
        if self.params is None:
            return tuple(lead), 0
        p = self.params(*lead)
        if k is not None:
            p = (k, *p[1:])
        return p, offset(p[0])

    def route(self, quantity: str, name: str) -> Route:
        """The first route of that name of a quantity, "" the first one."""
        routes = dict((("", self.routes),) + self.also)[quantity]
        return next(route for route in routes if route.name == name)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

_THM1_ENUMERATED = 20  # thm1 enumerates the class only up to this n
_SHIFT_ORDER = 60  # series order of the cor-period shift/period checks


def _with_shift_checks(points: list[tuple]) -> list[tuple]:
    """Tag the value instances and add one shift/period check per (r, s)."""
    shifts = {("shift", r, s, _SHIFT_ORDER) for r, s, _ in points}
    return [("value", *p) for p in points] + list(shifts)


IDENTITIES = {
    "thm1": Identity("n=1..60", lambda: (2,), (
        row_form("closed form", "min_part_signed_row", "min_part_signed"),
        per_n("second closed form", lambda k, n: 0 if n % 3 == 0 else (-1) ** ((n - 1) // 3)),
        row_form("recurrence", "min_part_signed_sequence"),
        tally("enumeration", compositions.MinPart, sign=-1,
              when=lambda n: n <= _THM1_ENUMERATED),
    ), note=lambda last: f" (enumeration to n={min(last['n'], _THM1_ENUMERATED)})"),
    "thm2": Identity("k=1..6 n=1..20", _lead, (
        row_form("closed form", "min_part_signed_row", "min_part_signed"),
        tally("enumeration", compositions.MinPart, sign=-1),
        row_form("recurrence", "min_part_signed_sequence"),
        coefficient("series", "min_part_series", sign=-1),
    ), tokens=(("thm2", "", "series", lambda n, k: f"n={n}, k={k}: signed compositions of "
                f"{n + offset(k)} with parts >= {k}"),),
        series=(("thm2", "k", "min_part_series"),)),
    "thm3": Identity("k=1..6 r=1..5 s=0..r-1 n=1..18", _lead, (
        row_form("closed form", "congruent_signed_row", "congruent_signed"),
        tally("enumeration", compositions.MinPartCongruent, sign=-1),
        coefficient("series", "congruent_series", sign=-1),
        per_n("second closed form", lambda k, r, s, n: formulas.congruent_indicator(k, n, r, s),
              lambda k, r, s, n: k == r - s),
        per_n("second closed form", lambda k, r, s, n: formulas.congruent_periodic(k, n, r, s),
              lambda k, r, s, n: k == 2 * r - s),
        row_form("recurrence", "congruent_signed_sequence"),
    ), tokens=(("thm3", "", "recurrence", lambda n, k, r, s: f"n={n}, k={k}: signed "
                f"compositions of {n + offset(k)} with parts >= {k} congruent to {k + s} mod "
                f"{r}"),), series=(("thm3", "k r s", "congruent_series"),)),
    "cor-rs": Identity("r=1..5 s=0..r-1 k=r-s n=1..18", lambda r, s: (r - s, r, s), (
        per_n("closed form", lambda k, r, s, n: formulas.congruent_indicator(k, n, r, s)),
        row_form("second closed form", "congruent_signed_row"),
        tally("enumeration", compositions.MinPartCongruent, sign=-1),
    ), tokens=(("cor-rs", "", None, lambda n, k, r, s:
                f"n={n}, k={k}=r-s: class on size {n + offset(k)}"),)),
    "cor-period": Identity("r=1..5 s=0..r-1 k=2r-s n=1..18", lambda r, s: (2 * r - s, r, s), (
        per_n("closed form", lambda k, r, s, n: formulas.congruent_periodic(k, n, r, s)),
        row_form("second closed form", "congruent_signed_row"),
        tally("enumeration", compositions.MinPartCongruent, sign=-1),
        # periodic_series(r) has no s: one expansion, to the size of s = 0, serves every s
        coefficient("series", "periodic_series", lambda k, r, s: (r,), sign=-1,
                    reach=lambda k, r, s: offset(2 * r)),
    ), instances=_with_shift_checks, note=lambda last: f"; shift/period to order {_SHIFT_ORDER}",
        check="_check_cor_period",
        tokens=(("cor-period", "", None, lambda n, k, r, s: f"n={n}, k={k}=2r-s: class on "
                 f"size {n + offset(k)}, period {6 * r}"),),
        series=(("cor-period", "r", "periodic_series"),)),
    "thm4": Identity("k=2..4 m=0..3 n=1..16", _lead, (
        row_form("closed form", "guarded_signed_boxed_row", "guarded_signed_boxed"),
        row_form("second closed form", "guarded_signed_sum_row", "guarded_signed_sum"),
        tally("enumeration", compositions.GuardedSmall, sign=-1),
        coefficient("series", "guarded_series", lambda k, m: (k, m, -1), sign=-1),
    ), also=(("unsigned", (
        row_form("closed form", "guarded_count_boxed_row", "guarded_count_boxed"),
        row_form("second closed form", "guarded_count_sum_row", "guarded_count_sum"),
        tally("enumeration", compositions.GuardedSmall),
        coefficient("series", "guarded_series", lambda k, m: (k, m, 1)),
    )),), value=lambda k, m: "closed form" if k >= 2 else "second closed form",  # boxed: k >= 2
        tokens=(("thm4", "", "series", lambda n, k, m: f"n={n}, k={k}: signed compositions of "
                 f"{n + offset(k)} with exactly {m} guarded parts < {k}"),
                ("thm4a", "unsigned", "series", lambda n, k, m: f"n={n}, k={k}: compositions "
                 f"of {n + offset(k)} with exactly {m} guarded parts < {k} (equivalently of "
                 f"{n} with {m} parts > {k} not 1 mod {k})"))),
    "thm4bar": Identity("k=1..4 m=0..3 n=1..16", _lead, (
        row_form("closed form", "small_parts_signed_row", "small_parts_signed"),
        tally("enumeration", compositions.ExactSmall, sign=-1),
        coefficient("series", "small_parts_series", lambda k, m: (k,), sign=-1, y=True),
    ), tokens=(("thm4bar", "", "series", lambda n, k, m: f"n={n}, k={k}: signed compositions "
                f"of {n + offset(k)} with exactly {m} parts < {k}"),),
        series=(("thm4bar", "k y_order?", "small_parts_series"),)),
    # odd-part compositions of n and compositions of n+1 = n+k-1 into parts >= k = 2
    "comp1": Identity("n=1..22", lambda: (2,), (
        tally("enumeration", lambda k: compositions.OddParts(), at_n=True),
        tally("companion class", compositions.MinPart),
        coefficient("series", "parts_in_series", lambda k: (1, 2, (1,), 1), at_n=True),
    )),
    "comp2": Identity("k=1..5 n=1..20", _lead, (
        tally("enumeration", lambda k: compositions.MinPartCongruent(1, k, 0), at_n=True),
        # at k = 1 both classes are all compositions of n: one tally
        tally("companion class", compositions.MinPart, when=lambda k, n: k >= 2),
        row_form("closed form", "min_part_count_row", "min_part_count"),
        # min_part_series(k, order, +1): parts >= k, each weighted +1
        coefficient("series", "parts_in_series", lambda k: (k, 1, (0,), 1)),
    ), tokens=(("munagi", "", "series", lambda n, k: f"n={n}, k={k}: compositions of "
                f"{n + offset(k)} with parts >= {k}"),)),
    "comp3": Identity("k=1..4 m=0..3 n=1..16", _lead, (
        tally("enumeration", compositions.ModOneExcept, at_n=True),
        tally("companion class", compositions.GuardedSmall),
        coefficient("series", "guarded_series", lambda k, m: (k, m, 1)),
    )),
    "legendre": Identity("n=0..50", None, (
        per_n("closed form", lambda n: partition_theorems.legendre_closed(n)),
        tally("enumeration", partitions.DistinctParts, partitions, sign=-1),
        coefficient("series", "pentagonal_product"),
    ), tokens=(("legendre", "", None, None),), series=(("pentagonal", "", "pentagonal_product"),)),
    "pentagonal": Identity("order=100", check="_check_pentagonal"),
    "euler": Identity("n=0..30", None, (
        tally("enumeration", partitions.DistinctParts, partitions),
        tally("companion class", partitions.OddParts, partitions),
    ), also=(("signed", (
        per_n("closed form", lambda n:
              (-1) ** n * partitions.count_partitions(n, partitions.OddParts())),
        tally("enumeration", partitions.OddParts, partitions, sign=-1,
              value=lambda n: partition_theorems.odd_parts_signed(n)),
    )),), value="enumeration", tokens=(("odd-parts", "signed", None, None),)),
    "glaisher": Identity("k=1..4 n=0..30", None, (
        tally("enumeration", lambda k: partitions.MaxMultiplicity(k), partitions),
        tally("companion class", partitions.NoPartDivisibleBy, partitions),
    )),
    "franklin": Identity("k=1..3 m=0..3 n=0..25", None, (
        tally("enumeration", partitions.FranklinRepeated, partitions),
        tally("companion class", partitions.FranklinDivisible, partitions),
        coefficient("series", "franklin_series", lambda k, m: (k,), y=True),
    )),
    "nyirenda-d": Identity("r=1..3 n=0..40", None, (
        per_n("closed form", lambda r, n: partition_theorems.nyirenda_d_closed(n, r)),
        tally("enumeration", partition_theorems.nyirenda_d_class, partitions, sign=-1),
    )),
    "nyirenda-c": Identity("r=1..3 n=0..40", None, (
        per_n("closed form", lambda r, n: partition_theorems.nyirenda_c_closed(n, r)),
        tally("enumeration", partition_theorems.nyirenda_c_class, partitions, sign=-1),
        per_n("second closed form", lambda r, n: partition_theorems.legendre_closed(n),
              lambda r, n: r == 1),
    )),
    "andrews": Identity("k=1..3 n=0..30", None, (
        tally("enumeration", partitions.InitialKReps, partitions),
        tally("companion class", lambda k: partitions.NoPartDivisibleBy(2 * k), partitions),
        tally("companion class", lambda k: partitions.MaxMultiplicity(2 * k), partitions),
    )),
    "andrews-d": Identity("m=0..7 n=0..30", None, (
        per_n("closed form", lambda m, n: partition_theorems.andrews_singleton_closed(n, m)),
        tally("enumeration", partitions.InitialTwoRepsWithMarks, partitions, sign=-1,
              singletons=True),
    )),
    # no sweep yet: the tally is its one route
    "distinct": Identity(None, None, (
        per_n("enumeration", lambda n: compositions.signed_count_distinct(n)),
    ), value="enumeration", tokens=(("distinct", "", None, None),)),
}

_TOKENS = {token: (ident, *rest) for ident in IDENTITIES.values() for token, *rest in ident.tokens}
# token -> (entry, quantity, row route, note), in the order the CLI lists them
SEQUENCES = {token: _TOKENS[token] for token in (
    "thm2", "munagi", "thm3", "cor-rs", "cor-period", "thm4", "thm4a", "thm4bar", "distinct",
    "odd-parts", "legendre")}
# token -> (entry, flags, series function)
SERIES = {token: (ident, *rest) for ident in IDENTITIES.values() for token, *rest in ident.series}
