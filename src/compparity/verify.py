"""Named verification sweeps: every route to a value must give the same integer.

Each sweep covers a parameter grid and derives its values along
independent routes, named from ``ROUTES``: enumeration (the
membership-automaton tally of the class), closed forms, recurrence,
generating function and companion classes.  A sweep declares its routes
once, in ``_SWEEPS``: a reference route, then the routes compared with it,
each optionally limited by a guard.

A sweep's unit of work is a row: one value of the leading axes, with n,
the last axis, running over its range.  Each route is asked once per row
for its values at the row's n, in order.  An enumeration or companion
route reads one tally at the row's largest size, and a series or
recurrence route one ``_row``, kept and grown on demand.  So does a
binomial-sum closed form, through its row form in ``formulas``, which
steps each term from one n to the next; an O(1) or tally-backed closed
form keeps its per-n definition, which ``_each`` lifts to the row.  A guard
takes one instance, every grid axis: its route is asked only for the n it
accepts, and is compared with the reference there.  ``_compare`` checks
each route's values against the reference's with one list equality.  Only
when two differ does it look for the smallest failing n, and at that n it
reports the first quantity and then the first route in order that fails,
as ``<route> vs <reference>``: what comparing instance by instance would
report.  The two checks that are not value comparisons, cor-period's
shift/period check and the pentagonal coefficient scan, are written out
and run on rows too.

A sweep may run its rows in a process pool; rows are pure functions of
their parameters and results are reassembled in parameter order, so
reports are byte-identical regardless of scheduling.  Rows run in reverse
parameter order, so the rows of the largest parameters, usually the
costliest, start first.
"""

from __future__ import annotations

import functools
import itertools
import os
from collections.abc import Callable, Sequence

from compparity import compositions, formulas, partition_theorems, partitions, series
from compparity._value import Value
from compparity.compositions import (
    ExactSmall,
    GuardedSmall,
    MinPart,
    MinPartCongruent,
    ModOneExcept,
    OddParts,
)


class SweepConfig(Value):
    """Range overrides for a sweep; None keeps the check's default.

    ``jobs`` may not exceed the CPUs this process may run on.
    """

    __slots__ = ("max_n", "max_k", "max_r", "max_m", "jobs")

    def __init__(self, max_n: int | None = None, max_k: int | None = None,
                 max_r: int | None = None, max_m: int | None = None, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # the platform reports no affinity: count every CPU
            cpus = os.cpu_count() or 1
        if jobs > cpus:
            raise ValueError(f"jobs must be <= {cpus}, the number of CPUs, got {jobs}")
        object.__setattr__(self, "max_n", max_n)
        object.__setattr__(self, "max_k", max_k)
        object.__setattr__(self, "max_r", max_r)
        object.__setattr__(self, "max_m", max_m)
        object.__setattr__(self, "jobs", jobs)


class Counterexample(Value):
    """A failing instance: its parameters, the two values and what was compared."""

    __slots__ = ("params", "expected", "actual", "detail")

    def __init__(self, params: tuple[tuple[str, int], ...], expected: object, actual: object,
                 detail: str = "") -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "actual", actual)
        object.__setattr__(self, "detail", detail)

    def describe(self) -> str:
        where = " ".join(f"{k}={v}" for k, v in self.params)
        out = f"{where}: expected {self.expected}, got {self.actual}"
        if self.detail:
            out += f" ({self.detail})"
        return out


class VerificationReport(Value):
    """One sweep's outcome: a failed report carries its first counterexample."""

    __slots__ = ("name", "ranges", "instances", "passed", "counterexample")

    def __init__(self, name: str, ranges: str, instances: int, passed: bool,
                 counterexample: Counterexample | None) -> None:
        if not passed and counterexample is None:
            raise ValueError("failed report must carry a counterexample")
        if passed and counterexample is not None:
            raise ValueError("passed report must not carry a counterexample")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "instances", instances)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "counterexample", counterexample)


def render_report(report: VerificationReport, fmt: str = "plain") -> str:
    status = "pass" if report.passed else "fail"
    if fmt == "plain":
        lines = [
            f"check={report.name} ranges=\"{report.ranges}\" "
            f"instances={report.instances} status={status}"
        ]
        if report.counterexample is not None:
            lines.append(f"counterexample: {report.counterexample.describe()}")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        ce = (
            report.counterexample.describe().replace(",", ";")
            if report.counterexample
            else ""
        )
        return (
            "name,ranges,instances,status,counterexample\n"
            f"{report.name},\"{report.ranges}\",{report.instances},{status},{ce}\n"
        )
    raise ValueError(f"unsupported report format {fmt!r}")


# ---------------------------------------------------------------------------
# routes and the one comparison loop
# ---------------------------------------------------------------------------

# The names a route may carry, and so the words of a failure's detail.
ROUTES = (
    "enumeration",
    "closed form",
    "second closed form",
    "recurrence",
    "series",
    "companion class",
)

# (function, leading args) -> (size, row): the series, recurrence and
# closed-form rows that many instances index into, each at the largest
# size asked so far; kept for the rest of the process
_ROWS: dict[tuple, tuple[tuple[int, ...], object]] = {}


def _row(fn: Callable, *lead: int, size: tuple[int, ...]):
    """``fn(*lead, *size)``, or the stored row when it is at least that large.

    A row's entry at an index does not depend on how far the row was
    computed, so a larger request computes the row again at the
    componentwise max of the stored and requested sizes.  A sweep asks
    once per row, at the row's largest size, so that is rare.  Callers look ``fn`` up at call time,
    so a function wrapped or replaced since gets an entry of its own.
    """
    stored = _ROWS.get((fn, lead))
    if stored is None or any(s > have for s, have in zip(size, stored[0])):
        if stored is not None:
            size = tuple(map(max, size, stored[0]))
        stored = _ROWS[fn, lead] = size, fn(*lead, *size)
    return stored[1]


class _Route(Value):
    """One route to a sweep's values, named from ``ROUTES``.

    ``values`` takes a row's leading axes, in grid order, then ``ns``, the
    ascending n at which it is asked, and returns one value per n.  ``when``
    takes one instance, every grid axis: the route is asked only for the n
    it accepts, or for every n of the row when it is None.
    """

    __slots__ = ("name", "values", "when")

    def __init__(self, name: str, values: Callable[..., list],
                 when: Callable[..., bool] | None = None) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "when", when)


def _each(value: Callable[..., object]) -> Callable[..., list]:
    """The row route of ``value``, a function of one instance, asked largest n first.

    For per-n routes that cost O(1) or read a tally.  Largest first, so
    that a per-n route that reads a tally, such as a ``partition_theorems``
    delta, tallies its class once.  A binomial-sum closed form is read
    through its row form instead (``_row_at``), which is charged and
    refused as these calls would be, largest n first.
    """
    @functools.wraps(value)
    def values(*lead_ns):
        *lead, ns = lead_ns
        return [value(*lead, n) for n in reversed(ns)][::-1]
    return values


def _at(values: Sequence, ns: Sequence[int], shift: int = 0, sign: int = 1) -> list:
    """``sign * values[n + shift]`` at each n of a row."""
    return [sign * values[n + shift] for n in ns]


def _row_at(fn: Callable, *lead: int, ns: Sequence[int]) -> list:
    """The values at each n of a row of ``fn(*lead, count)``, which lists n = 1..count.

    One ``_row`` at the row's largest n serves the row.
    """
    return _at(_row(fn, *lead, size=(ns[-1],)), ns, -1)


def _signed(cls, ns: Sequence[int], shift: int = 0) -> list[int]:
    """Odd minus even count of a composition class at size n + shift, at each n of a row.

    One tally, at the row's largest size, serves the row.
    """
    counts = compositions.counts_by_size(ns[-1] + shift, cls)
    return [counts[n + shift][0] - counts[n + shift][1] for n in ns]


def _members(side, cls, ns: Sequence[int], shift: int = 0) -> list[int]:
    """Member count of a class at size n + shift, at each n of a row.

    ``side`` is the module of the class, ``compositions`` or ``partitions``.
    One tally, at the row's largest size, serves the row.
    """
    counts = side.counts_by_size(ns[-1] + shift, cls)
    return [counts[n + shift][0] + counts[n + shift][1] for n in ns]


class _Sweep(Value):
    """One named sweep: the grid it covers and the routes compared on it.

    ``grid`` reads as the report's ranges.  A term ``a=first..last`` is an
    axis whose integer ``last`` is the default that ``SweepConfig``
    overrides; ``s=0..r-1`` bounds an axis by an earlier one; ``order=100``
    is a single point; any other term (``k=r-s``) is text only.  The
    points, in axis order, pass through ``instances``, which may add
    instances of another kind; ``note`` extends the ranges text from the
    axes' effective last values.

    ``routes`` holds the reference route, then the routes compared with
    it; ``also`` adds a (quantity, routes) pair per further quantity.  A
    sweep with a ``check`` runs it on each row, its leading parameters and
    its n, instead of comparing its routes.
    """

    __slots__ = ("grid", "routes", "instances", "note", "also", "check")

    def __init__(
        self,
        grid: str,
        routes: tuple[_Route, ...] = (),
        instances: Callable[[list[tuple]], list[tuple]] = lambda points: points,
        note: Callable[[dict[str, int]], str] = lambda last: "",
        also: tuple[tuple[str, tuple[_Route, ...]], ...] = (),
        check: Callable[[tuple, tuple[int, ...]], Counterexample | None] | None = None,
    ) -> None:
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "routes", routes)
        object.__setattr__(self, "instances", instances)
        object.__setattr__(self, "note", note)
        object.__setattr__(self, "also", also)
        object.__setattr__(self, "check", check)


def _compare(sweep: _Sweep, lead: tuple, ns: tuple[int, ...]) -> Counterexample | None:
    """The row's first disagreement in parameter order, or None.

    Each route's values at the n its guard accepts are compared with the
    reference's there by one list equality.  A route that differs is
    searched for its smallest failing n; of the failures at the smallest
    such n, the first quantity and then the first route in order is
    reported.  The detail reads ``<route> vs <reference>``, after
    ``<quantity>: `` for an ``also`` pair.
    """
    first = None  # (n, expected, got, detail) of the earliest failure found
    for quantity, (reference, *routes) in (("", sweep.routes),) + sweep.also:
        expected = reference.values(*lead, ns)
        for route in routes:
            at, want = ns, expected
            if route.when is not None:
                kept = [i for i, n in enumerate(ns) if route.when(*lead, n)]
                if not kept:
                    continue
                at, want = [ns[i] for i in kept], [expected[i] for i in kept]
            got = route.values(*lead, at)
            if got == want:
                continue
            n, e, g = next(t for t in zip(at, want, got, strict=True) if t[1] != t[2])
            if first is None or n < first[0]:
                detail = f"{route.name} vs {reference.name}"
                first = n, e, g, f"{quantity}: {detail}" if quantity else detail
    if first is None:
        return None
    n, expected, got, detail = first
    axes = [axis for axis, _, dots, last in _terms(sweep.grid) if dots or last.isdigit()]
    return Counterexample(tuple(zip(axes, (*lead, n))), expected, got, detail)


# ---------------------------------------------------------------------------
# the two checks that are not value comparisons
# ---------------------------------------------------------------------------

_SHIFT_ORDER = 60  # series order of the cor-period shift/period checks


def _check_cor_period(lead, ns):
    kind, r, s = lead
    if kind == "value":
        return _compare(_SWEEPS["cor-period"], (r, s), ns)
    (order,) = ns
    tag = (("r", r), ("s", s))
    report = series.cyclotomic_shift_check(r, s, order)
    if not report.inverse_ok:
        return Counterexample(
            tag, "series inverse of 1-x^r+x^2r", "product differs", "shift check"
        )
    if not report.period_divides:
        return Counterexample(
            tag, f"period dividing {6 * r}", (report.preperiod, report.period),
            "period check",
        )
    return None


def _check_pentagonal(lead, ns):
    (order,) = ns
    lhs = series.pentagonal_product(order)
    rhs = series.pentagonal_rhs(order)
    if lhs.coeffs != rhs.coeffs:
        mismatch = next(
            i for i, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)) if a != b
        )
        return Counterexample(
            (("order", order),),
            rhs.coeffs[mismatch],
            lhs.coeffs[mismatch],
            f"coefficient {mismatch}",
        )
    return None


# ---------------------------------------------------------------------------
# sweep definitions
# ---------------------------------------------------------------------------

_THM1_ENUMERATED = 20  # thm1 enumerates the class only up to this n

# The SweepConfig field that overrides each axis's last value; the single
# series order of the pentagonal sweep is set by max_n.
_OVERRIDE = {"n": "max_n", "order": "max_n", "k": "max_k", "r": "max_r", "m": "max_m"}


def _guarded_coefficients(k: int, m: int, t: int, ns: Sequence[int], sign: int = 1) -> list[int]:
    """``sign`` times the x^(n+k-1) coefficient of G_m at weight t, at each n of a row.

    G_m is the guarded class's series.
    """
    row = _row(series.guarded_series, k, m, t, size=(ns[-1] + k - 1,))
    return _at(row.coeffs, ns, k - 1, sign)


def _small_parts_values(k: int, m: int, ns: Sequence[int]) -> list[int]:
    """The signed small-part count at each n of a row, from one bivariate series."""
    table = _row(series.small_parts_series, k, size=(ns[-1] + k - 1, m))
    return [series.bivariate_signed_value(table, k, n, m) for n in ns]


def _with_shift_checks(points: list[tuple]) -> list[tuple]:
    """Tag the value instances and add one shift/period check per (r, s)."""
    shifts = {("shift", r, s, _SHIFT_ORDER) for r, s, _ in points}
    return [("value", *p) for p in points] + list(shifts)


_SWEEPS = {
    "thm1": _Sweep("n=1..60", (
        _Route("closed form", lambda ns: _row_at(formulas.min_part_signed_row, 2, ns=ns)),
        _Route("second closed form", _each(
            lambda n: 0 if n % 3 == 0 else (-1) ** ((n - 1) // 3))),
        _Route("recurrence", lambda ns: _row_at(formulas.min_part_signed_sequence, 2, ns=ns)),
        _Route("enumeration", lambda ns: _signed(MinPart(2), ns, 1),
               lambda n: n <= _THM1_ENUMERATED),
    ), note=lambda last: f" (enumeration to n={min(last['n'], _THM1_ENUMERATED)})"),
    "thm2": _Sweep("k=1..6 n=1..20", (
        _Route("closed form", lambda k, ns: _row_at(formulas.min_part_signed_row, k, ns=ns)),
        _Route("enumeration", lambda k, ns: _signed(MinPart(k), ns, k - 1)),
        _Route("recurrence", lambda k, ns: _row_at(formulas.min_part_signed_sequence, k, ns=ns)),
        _Route("series", lambda k, ns: _at(
            _row(series.min_part_series, k, size=(ns[-1] + k - 1,)).coeffs, ns, k - 1, -1)),
    )),
    "thm3": _Sweep("k=1..6 r=1..5 s=0..r-1 n=1..18", (
        _Route("closed form", lambda k, r, s, ns:
               _row_at(formulas.congruent_signed_row, k, r, s, ns=ns)),
        _Route("enumeration", lambda k, r, s, ns: _signed(MinPartCongruent(k, r, s), ns, k - 1)),
        _Route("series", lambda k, r, s, ns: _at(_row(
            series.congruent_series, k, r, s, size=(ns[-1] + k - 1,)).coeffs, ns, k - 1, -1)),
        _Route("second closed form", _each(
            lambda k, r, s, n: formulas.congruent_indicator(k, n, r, s)),
            lambda k, r, s, n: k == r - s),
        _Route("second closed form", _each(
            lambda k, r, s, n: formulas.congruent_periodic(k, n, r, s)),
            lambda k, r, s, n: k == 2 * r - s),
    )),
    "cor-rs": _Sweep("r=1..5 s=0..r-1 k=r-s n=1..18", (
        _Route("closed form", _each(
            lambda r, s, n: formulas.congruent_indicator(r - s, n, r, s))),
        _Route("second closed form", lambda r, s, ns:
               _row_at(formulas.congruent_signed_row, r - s, r, s, ns=ns)),
        _Route("enumeration", lambda r, s, ns:
               _signed(MinPartCongruent(r - s, r, s), ns, r - s - 1)),
    )),
    "cor-period": _Sweep("r=1..5 s=0..r-1 k=2r-s n=1..18", (
        _Route("closed form", _each(
            lambda r, s, n: formulas.congruent_periodic(2 * r - s, n, r, s))),
        _Route("second closed form", lambda r, s, ns:
               _row_at(formulas.congruent_signed_row, 2 * r - s, r, s, ns=ns)),
        _Route("enumeration", lambda r, s, ns:
               _signed(MinPartCongruent(2 * r - s, r, s), ns, 2 * r - s - 1)),
    ), _with_shift_checks, note=lambda last: f"; shift/period to order {_SHIFT_ORDER}",
        check=_check_cor_period),
    "thm4": _Sweep("k=2..4 m=0..3 n=1..16", (
        _Route("closed form", lambda k, m, ns:
               _row_at(formulas.guarded_signed_boxed_row, k, m, ns=ns)),
        _Route("second closed form", lambda k, m, ns:
               _row_at(formulas.guarded_signed_sum_row, k, m, ns=ns)),
        _Route("enumeration", lambda k, m, ns: _signed(GuardedSmall(k, m), ns, k - 1)),
        _Route("series", lambda k, m, ns: _guarded_coefficients(k, m, -1, ns, -1)),
    ), also=(("unsigned", (
        _Route("closed form", lambda k, m, ns:
               _row_at(formulas.guarded_count_boxed_row, k, m, ns=ns)),
        _Route("second closed form", lambda k, m, ns:
               _row_at(formulas.guarded_count_sum_row, k, m, ns=ns)),
        _Route("enumeration", lambda k, m, ns:
               _members(compositions, GuardedSmall(k, m), ns, k - 1)),
        _Route("series", lambda k, m, ns: _guarded_coefficients(k, m, 1, ns)),
    )),)),
    "thm4bar": _Sweep("k=1..4 m=0..3 n=1..16", (
        _Route("closed form", lambda k, m, ns:
               _row_at(formulas.small_parts_signed_row, k, m, ns=ns)),
        _Route("enumeration", lambda k, m, ns: _signed(ExactSmall(k, m), ns, k - 1)),
        _Route("series", _small_parts_values),
    )),
    "comp1": _Sweep("n=1..22", (
        _Route("enumeration", lambda ns: _members(compositions, OddParts(), ns)),
        _Route("companion class", lambda ns: _members(compositions, MinPart(2), ns, 1)),
        _Route("series", lambda ns:
               _at(_row(series.parts_in_series, 1, 2, (1,), 1, size=(ns[-1],)).coeffs, ns)),
    )),
    "comp2": _Sweep("k=1..5 n=1..20", (
        _Route("enumeration", lambda k, ns: _members(compositions, MinPartCongruent(1, k, 0), ns)),
        # at k = 1 both classes are all compositions of n: one tally
        _Route("companion class", lambda k, ns: _members(compositions, MinPart(k), ns, k - 1),
               lambda k, n: k >= 2),
        _Route("closed form", lambda k, ns: _row_at(formulas.min_part_count_row, k, ns=ns)),
    )),
    "comp3": _Sweep("k=1..4 m=0..3 n=1..16", (
        _Route("enumeration", lambda k, m, ns: _members(compositions, ModOneExcept(k, m), ns)),
        _Route("companion class", lambda k, m, ns:
               _members(compositions, GuardedSmall(k, m), ns, k - 1)),
        _Route("series", lambda k, m, ns: _guarded_coefficients(k, m, 1, ns)),
    )),
    "legendre": _Sweep("n=0..50", (
        _Route("closed form", _each(lambda n: partition_theorems.legendre_closed(n))),
        _Route("enumeration", _each(lambda n: partition_theorems.legendre_delta(n))),
        _Route("series", lambda ns:
               _at(_row(series.pentagonal_product, size=(ns[-1],)).coeffs, ns)),
    )),
    "pentagonal": _Sweep("order=100", check=_check_pentagonal),
    "euler": _Sweep("n=0..30", (
        _Route("enumeration", lambda ns: _members(partitions, partitions.DistinctParts(), ns)),
        _Route("companion class", lambda ns: _members(partitions, partitions.OddParts(), ns)),
    ), also=(("signed", (
        _Route("closed form", _each(lambda n:
               (-1) ** n * partitions.count_partitions(n, partitions.OddParts()))),
        _Route("enumeration", _each(lambda n: partition_theorems.odd_parts_signed(n))),
    )),)),
    "glaisher": _Sweep("k=1..4 n=0..30", (
        _Route("enumeration", lambda k, ns:
               _members(partitions, partitions.MaxMultiplicity(k), ns)),
        _Route("companion class", lambda k, ns:
               _members(partitions, partitions.NoPartDivisibleBy(k), ns)),
    )),
    "franklin": _Sweep("k=1..3 m=0..3 n=0..25", (
        _Route("enumeration", lambda k, m, ns:
               _members(partitions, partitions.FranklinRepeated(k, m), ns)),
        _Route("companion class", lambda k, m, ns:
               _members(partitions, partitions.FranklinDivisible(k, m), ns)),
    )),
    "nyirenda-d": _Sweep("r=1..3 n=0..40", (
        _Route("closed form", _each(lambda r, n: partition_theorems.nyirenda_d_closed(n, r))),
        _Route("enumeration", _each(lambda r, n: partition_theorems.nyirenda_d_delta(n, r))),
    )),
    "nyirenda-c": _Sweep("r=1..3 n=0..40", (
        _Route("closed form", _each(lambda r, n: partition_theorems.nyirenda_c_closed(n, r))),
        _Route("enumeration", _each(lambda r, n: partition_theorems.nyirenda_c_delta(n, r))),
        _Route("second closed form", _each(lambda r, n: partition_theorems.legendre_closed(n)),
               lambda r, n: r == 1),
    )),
    "andrews": _Sweep("k=1..3 n=0..30", (
        _Route("enumeration", lambda k, ns: _members(partitions, partitions.InitialKReps(k), ns)),
        _Route("companion class", lambda k, ns:
               _members(partitions, partitions.NoPartDivisibleBy(2 * k), ns)),
        _Route("companion class", lambda k, ns:
               _members(partitions, partitions.MaxMultiplicity(2 * k), ns)),
    )),
    "andrews-d": _Sweep("m=0..7 n=0..30", (
        _Route("closed form", _each(
            lambda m, n: partition_theorems.andrews_singleton_closed(n, m))),
        _Route("enumeration", _each(
            lambda m, n: partition_theorems.andrews_singleton_delta(n, m))),
    )),
}

CHECK_NAMES = tuple(_SWEEPS)


def _sweep(name: str) -> _Sweep:
    if name not in _SWEEPS:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    return _SWEEPS[name]


def _terms(grid: str) -> list[tuple[str, str, str, str]]:
    """(axis, first, "..", last) per grid term; "" where a part is absent."""
    out = []
    for term in grid.split():
        axis, _, value = term.partition("=")
        out.append((axis, *value.rpartition("..")))
    return out


def overrides(name: str) -> tuple[str, ...]:
    """The SweepConfig fields that the named sweep reads."""
    return tuple(
        _OVERRIDE[axis] for axis, _, _, last in _terms(_sweep(name).grid) if last.isdigit()
    )


def expand(name: str, config: SweepConfig) -> tuple[list[tuple], str]:
    """The sweep's instances, sorted, and the ranges text of its report.

    Raises ValueError for an unknown name and for a grid with no instances,
    so a sweep can never pass vacuously.
    """
    sweep = _sweep(name)
    points: list[tuple[int, ...]] = [()]
    position: dict[str, int] = {}  # axis -> its index in a point
    last: dict[str, int] = {}
    text: list[str] = []
    for axis, first, dots, top in _terms(sweep.grid):
        if top.isdigit():
            position[axis] = len(position)
            override = getattr(config, _OVERRIDE[axis])
            top = last[axis] = int(top) if override is None else override
            values = range(int(first) if dots else top, top + 1)
            points = [(*p, v) for p in points for v in values]
        elif dots:  # bounded by an earlier axis, as in s=0..r-1
            position[axis] = len(position)
            ref, _, minus = top.partition("-")
            at, lo, less = position[ref], int(first), int(minus)
            points = [(*p, v) for p in points for v in range(lo, p[at] - less + 1)]
        text.append(f"{axis}={first}{dots}{top}")
    instances = sweep.instances(points)
    ranges = " ".join(text) + sweep.note(last)
    if not instances:
        raise ValueError(f"check {name} has no instances over {ranges}")
    return sorted(instances), ranges


def _rows(instances: list[tuple]) -> list[tuple[tuple, tuple[int, ...]]]:
    """Sorted instances as rows: (leading parameters, the ascending n)."""
    return [(lead, tuple(p[-1] for p in group))
            for lead, group in itertools.groupby(instances, lambda p: p[:-1])]


def _dispatch(tagged):
    name, lead, ns = tagged
    sweep = _SWEEPS[name]
    return _compare(sweep, lead, ns) if sweep.check is None else sweep.check(lead, ns)


def run_check(name: str, config: SweepConfig = SweepConfig()) -> VerificationReport:
    """Run one named sweep and return its report; raises as ``expand`` does."""
    instances, ranges = expand(name, config)
    # reverse parameter order: the rows of the largest parameters start first
    rows = [(name, lead, ns) for lead, ns in reversed(_rows(instances))]
    if config.jobs > 1 and len(rows) > 1:
        import multiprocessing  # only a pool needs it, and it is slow to import

        with multiprocessing.Pool(config.jobs) as pool:
            chunk = max(1, len(rows) // (config.jobs * 4))
            results = pool.map(_dispatch, rows, chunksize=chunk)
    else:
        results = [_dispatch(row) for row in rows]
    results.reverse()
    first_failure = next((r for r in results if r is not None), None)
    return VerificationReport(
        name=name,
        ranges=ranges,
        instances=len(instances),
        passed=first_failure is None,
        counterexample=first_failure,
    )
