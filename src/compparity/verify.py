"""Named verification sweeps: every route to a value must give the same integer.

Each sweep covers a parameter grid and, at each instance, derives the
value along independent routes, named from ``ROUTES``: enumeration (the
membership-automaton tally of the class), closed forms, recurrence,
generating function and companion classes.  A sweep declares its routes
once, in ``_SWEEPS``, as functions of the instance parameters: a
reference route, then the routes compared with it, each optionally
limited to the instances a guard accepts.  ``_compare`` evaluates them in
that order and reports the first disagreement as ``<route> vs
<reference>``.  The two checks that are not value comparisons,
cor-period's shift/period check and the pentagonal coefficient scan, are
written out.

A sweep may run its instances in a process pool; instances are pure
functions of their parameters and results are reassembled in parameter
order, so reports are byte-identical regardless of scheduling.  Instances
run largest-first, in reverse parameter order, so that the enumeration
route tallies each class once at its largest size and reads every smaller
size from that tally.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Callable

from compparity import compositions, formulas, partition_theorems, series
from compparity.compositions import (
    ExactSmall,
    GuardedSmall,
    MinPart,
    MinPartCongruent,
    ModOneExcept,
    OddParts,
)


@dataclass(frozen=True)
class SweepConfig:
    """Range overrides for a sweep; None keeps the check's default."""

    max_n: int | None = None
    max_k: int | None = None
    max_r: int | None = None
    max_m: int | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


@dataclass(frozen=True)
class Counterexample:
    params: tuple[tuple[str, int], ...]
    expected: object
    actual: object
    detail: str = ""

    def describe(self) -> str:
        where = " ".join(f"{k}={v}" for k, v in self.params)
        out = f"{where}: expected {self.expected}, got {self.actual}"
        if self.detail:
            out += f" ({self.detail})"
        return out


@dataclass(frozen=True)
class VerificationReport:
    name: str
    ranges: str
    instances: int
    passed: bool
    counterexample: Counterexample | None

    def __post_init__(self) -> None:
        if not self.passed and self.counterexample is None:
            raise ValueError("failed report must carry a counterexample")
        if self.passed and self.counterexample is not None:
            raise ValueError("passed report must not carry a counterexample")


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

# (function, args) -> function(*args), for the series and recurrence rows
# that many instances index into; kept for the rest of the process
_MEMO: dict[tuple, object] = {}


def _memo(fn: Callable, *args):
    """``fn(*args)``, computed once per process.

    Callers look ``fn`` up at call time, so a function wrapped or replaced
    since is computed afresh rather than read from its predecessor's entry.
    """
    key = (fn, args)
    if key not in _MEMO:
        _MEMO[key] = fn(*args)
    return _MEMO[key]


@dataclass(frozen=True, slots=True)
class _Route:
    """One route to an instance's value, named from ``ROUTES``.

    ``value`` and ``when`` take the instance parameters, followed, in a
    sweep with a ``theorem``, by that function's result.  The route runs at
    the instances ``when`` accepts, or at every instance when it is None.
    """

    name: str
    value: Callable[..., object]
    when: Callable[..., bool] | None = None


@dataclass(frozen=True)
class _Sweep:
    """One named sweep: the grid it covers and the routes compared on it.

    ``grid`` reads as the report's ranges.  A term ``a=first..last`` is an
    axis whose integer ``last`` is the default that ``SweepConfig``
    overrides; ``s=0..r-1`` bounds an axis by an earlier one; ``order=100``
    is a single point; any other term (``k=r-s``) is text only.  The
    points, in axis order, pass through ``instances``, which may append
    parameters shared by the whole grid; ``note`` extends the ranges text.
    Both read the axes' effective last values.

    ``routes`` holds the reference route, then the routes compared with
    it; ``also`` adds a (quantity, routes) pair per further quantity.  In
    a partition sweep, ``theorem`` calls the ``partition_theorems``
    function that computes all its values at once, with n first and then
    the other axes in grid order; it runs once per instance.  A sweep with
    a ``check`` runs it on each instance's parameters instead of comparing
    its routes.
    """

    grid: str
    routes: tuple[_Route, ...] = ()
    instances: Callable[[list[tuple], dict[str, int]], list[tuple]] = lambda p, last: p
    note: Callable[[dict[str, int]], str] = lambda last: ""
    theorem: Callable[..., tuple] | None = None
    also: tuple[tuple[str, tuple[_Route, ...]], ...] = ()
    check: Callable[[tuple], Counterexample | None] | None = None


def _compare(sweep: _Sweep, params: tuple) -> Counterexample | None:
    """The first route, in order, that disagrees with its reference, or None.

    No route after the first disagreement is evaluated.  The detail reads
    ``<route> vs <reference>``, after ``<quantity>: `` for an ``also`` pair.
    """
    args = params if sweep.theorem is None else params + (sweep.theorem(*params),)
    for quantity, routes in (("", sweep.routes),) + sweep.also:
        reference = None
        for route in routes:
            if route.when is None or route.when(*args):
                got = route.value(*args)
                if reference is None:
                    reference, expected = route, got
                elif got != expected:
                    axes = [axis for axis, _, dots, last in _terms(sweep.grid)
                            if dots or last.isdigit()]
                    detail = f"{route.name} vs {reference.name}"
                    return Counterexample(tuple(zip(axes, params)), expected, got,
                                          f"{quantity}: {detail}" if quantity else detail)
    return None


# ---------------------------------------------------------------------------
# the two checks that are not value comparisons
# ---------------------------------------------------------------------------

_SHIFT_ORDER = 60  # series order of the cor-period shift/period checks


def _check_cor_period(params):
    if params[0] == "value":
        return _compare(_SWEEPS["cor-period"], params[1:])
    (_, r, s, order) = params
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


def _check_pentagonal(params):
    (order,) = params
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


def _with_last_n(points: list[tuple], last: dict[str, int]) -> list[tuple]:
    """Append the last n: the one row length, or series order, that covers every instance."""
    return [p + (last["n"],) for p in points]


def _with_order(points: list[tuple], last: dict[str, int]) -> list[tuple]:
    """Append the one series order, n+k, that covers every instance."""
    return [p + (last["n"] + last["k"],) for p in points]


def _with_shift_checks(points: list[tuple], last: dict[str, int]) -> list[tuple]:
    """Tag the value instances and add one shift/period check per (r, s)."""
    shifts = {("shift", r, s, _SHIFT_ORDER) for r, s, _ in points}
    return [("value", *p) for p in points] + list(shifts)


_SWEEPS = {
    "thm1": _Sweep("n=1..60", (
        _Route("closed form", lambda n, count: formulas.min_part_signed(2, n)),
        _Route("second closed form", lambda n, count:
               0 if n % 3 == 0 else (-1) ** ((n - 1) // 3)),
        _Route("recurrence", lambda n, count:
               _memo(formulas.min_part_signed_sequence, 2, count)[n - 1]),
        _Route("enumeration", lambda n, count: compositions.signed_count(n + 1, MinPart(2)).diff,
               lambda n, count: n <= _THM1_ENUMERATED),
    ), _with_last_n, note=lambda last: f" (enumeration to n={min(last['n'], _THM1_ENUMERATED)})"),
    "thm2": _Sweep("k=1..6 n=1..20", (
        _Route("closed form", lambda k, n, order: formulas.min_part_signed(k, n)),
        _Route("enumeration", lambda k, n, order:
               compositions.signed_count(n + k - 1, MinPart(k)).diff),
        _Route("recurrence", lambda k, n, order:
               _memo(formulas.min_part_signed_sequence, k, order)[n - 1]),
        _Route("series", lambda k, n, order:
               -_memo(series.min_part_series, k, order).coeffs[n + k - 1]),
    ), _with_order),
    "thm3": _Sweep("k=1..6 r=1..5 s=0..r-1 n=1..18", (
        _Route("closed form", lambda k, r, s, n, order: formulas.congruent_signed(k, n, r, s)),
        _Route("enumeration", lambda k, r, s, n, order:
               compositions.signed_count(n + k - 1, MinPartCongruent(k, r, s)).diff),
        _Route("series", lambda k, r, s, n, order:
               -_memo(series.congruent_series, k, r, s, order).coeffs[n + k - 1]),
        _Route("second closed form", lambda k, r, s, n, order:
               formulas.congruent_indicator(k, n, r, s),
               lambda k, r, s, n, order: k == r - s),
        _Route("second closed form", lambda k, r, s, n, order:
               formulas.congruent_periodic(k, n, r, s),
               lambda k, r, s, n, order: k == 2 * r - s),
    ), _with_order),
    "cor-rs": _Sweep("r=1..5 s=0..r-1 k=r-s n=1..18", (
        _Route("closed form", lambda r, s, n: formulas.congruent_indicator(r - s, n, r, s)),
        _Route("second closed form", lambda r, s, n: formulas.congruent_signed(r - s, n, r, s)),
        _Route("enumeration", lambda r, s, n:
               compositions.signed_count(n + r - s - 1, MinPartCongruent(r - s, r, s)).diff),
    )),
    "cor-period": _Sweep("r=1..5 s=0..r-1 k=2r-s n=1..18", (
        _Route("closed form", lambda r, s, n: formulas.congruent_periodic(2 * r - s, n, r, s)),
        _Route("second closed form", lambda r, s, n:
               formulas.congruent_signed(2 * r - s, n, r, s)),
        _Route("enumeration", lambda r, s, n: compositions.signed_count(
            n + 2 * r - s - 1, MinPartCongruent(2 * r - s, r, s)).diff),
    ), _with_shift_checks, note=lambda last: f"; shift/period to order {_SHIFT_ORDER}",
        check=_check_cor_period),
    "thm4": _Sweep("k=2..4 m=0..3 n=1..16", (
        _Route("closed form", lambda k, m, n: formulas.guarded_signed_boxed(k, n, m)),
        _Route("second closed form", lambda k, m, n: formulas.guarded_signed_sum(k, n, m)),
        _Route("enumeration", lambda k, m, n:
               compositions.signed_count(n + k - 1, GuardedSmall(k, m)).diff),
    ), also=(("unsigned", (
        _Route("closed form", lambda k, m, n: formulas.guarded_count_boxed(k, n, m)),
        _Route("second closed form", lambda k, m, n: formulas.guarded_count_sum(k, n, m)),
        _Route("enumeration", lambda k, m, n:
               compositions.count_compositions(n + k - 1, GuardedSmall(k, m))),
    )),)),
    "thm4bar": _Sweep("k=1..4 m=0..3 n=1..16", (
        _Route("closed form", lambda k, m, n, xo, yo: formulas.small_parts_signed(k, n, m)),
        _Route("enumeration", lambda k, m, n, xo, yo:
               compositions.signed_count(n + k - 1, ExactSmall(k, m)).diff),
        _Route("series", lambda k, m, n, xo, yo: series.bivariate_signed_value(
            _memo(series.small_parts_series, k, xo, yo), k, n, m)),
    ), lambda points, last: [(k, m, n, last["n"] + k - 1, last["m"]) for k, m, n in points]),
    "comp1": _Sweep("n=1..22", (
        _Route("enumeration", lambda n: compositions.count_compositions(n, OddParts())),
        _Route("companion class", lambda n: compositions.count_compositions(n + 1, MinPart(2))),
    )),
    "comp2": _Sweep("k=1..5 n=1..20", (
        _Route("enumeration", lambda k, n:
               compositions.count_compositions(n, MinPartCongruent(1, k, 0))),
        _Route("companion class", lambda k, n:
               compositions.count_compositions(n + k - 1, MinPart(k))),
        _Route("closed form", lambda k, n: formulas.min_part_count(k, n)),
    )),
    "comp3": _Sweep("k=1..4 m=0..3 n=1..16", (
        _Route("enumeration", lambda k, m, n:
               compositions.count_compositions(n, ModOneExcept(k, m))),
        _Route("companion class", lambda k, m, n:
               compositions.count_compositions(n + k - 1, GuardedSmall(k, m))),
    )),
    "legendre": _Sweep("n=0..50", (
        _Route("closed form", lambda n, order: partition_theorems.legendre_closed(n)),
        _Route("enumeration", lambda n, order: partition_theorems.legendre_delta(n)),
        _Route("series", lambda n, order: _memo(series.pentagonal_product, order).coeffs[n]),
    ), _with_last_n),
    "pentagonal": _Sweep("order=100", check=_check_pentagonal),
    "euler": _Sweep("n=0..30", (
        _Route("enumeration", lambda n, t: t[0]),
        _Route("companion class", lambda n, t: t[1]),
    ), theorem=lambda n: partition_theorems.euler_distinct_odd(n), also=(("signed", (
        _Route("closed form", lambda n, t: (-1) ** n * t[1]),
        _Route("enumeration", lambda n, t: partition_theorems.odd_parts_signed(n)),
    )),)),
    "glaisher": _Sweep("k=1..4 n=0..30", (
        _Route("enumeration", lambda k, n, t: t[0]),
        _Route("companion class", lambda k, n, t: t[1]),
    ), theorem=lambda k, n: partition_theorems.glaisher_check(n, k)),
    "franklin": _Sweep("k=1..3 m=0..3 n=0..25", (
        _Route("enumeration", lambda k, m, n, t: t[0]),
        _Route("companion class", lambda k, m, n, t: t[1]),
    ), theorem=lambda k, m, n: partition_theorems.franklin_check(n, k, m)),
    "nyirenda-d": _Sweep("r=1..3 n=0..40", (
        _Route("closed form", lambda r, n, t: t[1]),
        _Route("enumeration", lambda r, n, t: t[0]),
    ), theorem=lambda r, n: partition_theorems.nyirenda_d(n, r)),
    "nyirenda-c": _Sweep("r=1..3 n=0..40", (
        _Route("closed form", lambda r, n, t: t[1]),
        _Route("enumeration", lambda r, n, t: t[0]),
        _Route("second closed form", lambda r, n, t: partition_theorems.legendre_closed(n),
               lambda r, n, t: r == 1),
    ), theorem=lambda r, n: partition_theorems.nyirenda_c(n, r)),
    "andrews": _Sweep("k=1..3 n=0..30", (
        _Route("enumeration", lambda k, n, t: t[0]),
        _Route("companion class", lambda k, n, t: t[1]),
        _Route("companion class", lambda k, n, t: t[2]),
    ), theorem=lambda k, n: partition_theorems.andrews_counts(n, k)),
    "andrews-d": _Sweep("m=0..7 n=0..30", (
        _Route("closed form", lambda m, n, t: t[1]),
        _Route("enumeration", lambda m, n, t: t[0]),
    ), theorem=lambda m, n: partition_theorems.andrews_singleton_delta(n, m)),
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


def _expand(name: str, config: SweepConfig) -> tuple[list[tuple], str]:
    """The sweep's instances, sorted, and the ranges text of its report."""
    sweep = _sweep(name)
    points: list[dict[str, int]] = [{}]
    last: dict[str, int] = {}
    text: list[str] = []
    for axis, first, dots, top in _terms(sweep.grid):
        if top.isdigit():
            override = getattr(config, _OVERRIDE[axis])
            top = last[axis] = int(top) if override is None else override
            lo = int(first) if dots else top
            points = [{**p, axis: v} for p in points for v in range(lo, top + 1)]
        elif dots:  # bounded by an earlier axis, as in s=0..r-1
            ref, _, minus = top.partition("-")
            points = [
                {**p, axis: v} for p in points for v in range(int(first), p[ref] - int(minus) + 1)
            ]
        text.append(f"{axis}={first}{dots}{top}")
    instances = sweep.instances([tuple(p.values()) for p in points], last)
    return sorted(instances), " ".join(text) + sweep.note(last)


def _dispatch(tagged):
    name, params = tagged
    sweep = _SWEEPS[name]
    return _compare(sweep, params) if sweep.check is None else sweep.check(params)


def run_check(name: str, config: SweepConfig = SweepConfig()) -> VerificationReport:
    """Run one named sweep and return its report.

    Raises ValueError for an unknown name and for a grid with no instances,
    so a sweep can never pass vacuously.
    """
    instances, ranges = _expand(name, config)
    if not instances:
        raise ValueError(f"check {name} has no instances over {ranges}")
    # n is the last axis of every grid, so the reversed order asks for each
    # class's largest size first and one tally serves all its smaller sizes
    tagged = [(name, p) for p in reversed(instances)]
    if config.jobs > 1 and len(tagged) > 1:
        with multiprocessing.Pool(config.jobs) as pool:
            chunk = max(1, len(tagged) // (config.jobs * 4))
            results = pool.map(_dispatch, tagged, chunksize=chunk)
    else:
        results = [_dispatch(t) for t in tagged]
    results.reverse()
    first_failure = next((r for r in results if r is not None), None)
    return VerificationReport(
        name=name,
        ranges=ranges,
        instances=len(instances),
        passed=first_failure is None,
        counterexample=first_failure,
    )
