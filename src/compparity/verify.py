"""Named verification sweeps: every route to a value must give the same integer.

A sweep is an entry of ``identities.IDENTITIES`` with a grid.  It covers
the grid and derives its values along independent routes, named from
``ROUTES``: enumeration (the membership-automaton tally of the class),
closed forms, recurrence, generating function and companion classes.  The
entry declares them once: a reference route, then the routes compared
with it, each optionally limited by a guard.

A sweep's unit of work is a row: one value of the leading axes, with n,
the last axis, running over its range.  Each route is asked once per row
for its values at the row's n, in order.  A tally route reads one tally
at the row's largest size, and a row-form or series-coefficient route one
``_row``, kept and grown on demand; a per-n route is asked at each n,
largest first.  A guard takes one instance, every grid axis: its route is
asked only for the n it accepts, and is compared with the reference
there.  ``_compare`` checks each route's values against the reference's
with one list equality.  Only when two differ does it look for the
smallest failing n, and at that n it reports the first quantity and then
the first route in order that fails, as ``<route> vs <reference>``: what
comparing instance by instance would report.  The two checks that are not
value comparisons, cor-period's shift/period check and the pentagonal
coefficient scan, are written out here, each named by its entry's
``check``, and run on rows too.

A sweep may run its rows in a process pool; rows are pure functions of
their parameters and results are reassembled in parameter order, so
reports are byte-identical regardless of scheduling.  Rows run in reverse
parameter order, so the rows of the largest parameters, usually the
costliest, start first.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Callable

from compparity import series
from compparity._value import Value
from compparity.identities import IDENTITIES, Identity, grid_terms


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
        super().__init__(max_n, max_k, max_r, max_m, jobs)


class Counterexample(Value):
    """A failing instance: its parameters, the two values and what was compared."""

    __slots__ = ("params", "expected", "actual", "detail")

    def __init__(self, params: tuple[tuple[str, int], ...], expected: object, actual: object,
                 detail: str = "") -> None:
        super().__init__(params, expected, actual, detail)

    def describe(self) -> str:
        where = " ".join(f"{k}={v}" for k, v in self.params)
        out = f"{where}: expected {self.expected}, got {self.actual}"
        if self.detail:
            out += f" ({self.detail})"
        return out


class VerificationReport(Value):
    """One sweep's outcome: a failed report carries its first counterexample,
    a passed one None."""

    __slots__ = ("name", "ranges", "instances", "counterexample")

    @property
    def passed(self) -> bool:
        return self.counterexample is None


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
    once per row, at the row's largest size, so that is rare.  Routes look
    ``fn`` up at call time, so a function wrapped or replaced since gets an
    entry of its own.
    """
    stored = _ROWS.get((fn, lead))
    if stored is None or any(s > have for s, have in zip(size, stored[0])):
        if stored is not None:
            size = tuple(map(max, size, stored[0]))
        stored = _ROWS[fn, lead] = size, fn(*lead, *size)
    return stored[1]


def _compare(sweep: Identity, lead: tuple, ns: tuple[int, ...]) -> Counterexample | None:
    """The row's first disagreement in parameter order, or None.

    Each route's values at the n its guard accepts are compared with the
    reference's there by one list equality.  A route that differs is
    searched for its smallest failing n; of the failures at the smallest
    such n, the first quantity and then the first route in order is
    reported.  The detail reads ``<route> vs <reference>``, after
    ``<quantity>: `` for an ``also`` pair.
    """
    first = None  # (n, expected, got, detail) of the earliest failure found
    p, shift = sweep.at(lead)
    for quantity, (reference, *routes) in (("", sweep.routes),) + sweep.also:
        expected = reference.values(_row, p, shift, ns)
        for route in routes:
            at, want = ns, expected
            if route.when is not None:
                kept = [i for i, n in enumerate(ns) if route.when(*lead, n)]
                if not kept:
                    continue
                at, want = [ns[i] for i in kept], [expected[i] for i in kept]
            got = route.values(_row, p, shift, at)
            if got == want:
                continue
            n, e, g = next(t for t in zip(at, want, got, strict=True) if t[1] != t[2])
            if first is None or n < first[0]:
                detail = f"{route.name} vs {reference.name}"
                first = n, e, g, f"{quantity}: {detail}" if quantity else detail
    if first is None:
        return None
    n, expected, got, detail = first
    return Counterexample(tuple(zip(sweep.axes, (*lead, n))), expected, got, detail)


# ---------------------------------------------------------------------------
# the two checks that are not value comparisons
# ---------------------------------------------------------------------------

def _check_cor_period(sweep, lead, ns):
    kind, r, s = lead
    if kind == "value":
        return _compare(sweep, (r, s), ns)
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


def _check_pentagonal(sweep, lead, ns):
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
# sweeps: the identities with a grid
# ---------------------------------------------------------------------------

# The SweepConfig field that overrides each axis's last value; the single
# series order of the pentagonal sweep is set by max_n.
_OVERRIDE = {"n": "max_n", "order": "max_n", "k": "max_k", "r": "max_r", "m": "max_m"}

CHECK_NAMES = tuple(name for name, ident in IDENTITIES.items() if ident.grid)


def _sweep(name: str) -> Identity:
    if name not in CHECK_NAMES:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    return IDENTITIES[name]


def overrides(name: str) -> tuple[str, ...]:
    """The SweepConfig fields that the named sweep reads."""
    return tuple(
        _OVERRIDE[axis] for axis, _, _, last in grid_terms(_sweep(name).grid) if last.isdigit()
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
    for axis, first, dots, top in grid_terms(sweep.grid):
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
    sweep = IDENTITIES[name]
    return (_compare if sweep.check is None else globals()[sweep.check])(sweep, lead, ns)


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
    return VerificationReport(name, ranges, len(instances), first_failure)
