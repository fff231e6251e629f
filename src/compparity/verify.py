"""Named verification sweeps: formula vs enumeration vs series.

Each check sweeps a parameter grid, re-deriving every quantity along
independent routes (closed formula, recurrence, generating function,
enumeration, i.e. the membership-automaton tally of the class) and
comparing exactly.  A sweep may run its
instances in a process pool; instances are pure functions of their
parameters and results are reassembled in parameter order, so reports are
byte-identical regardless of scheduling.  Each sweep is one entry of
``_SWEEPS``: its checker and its grid, written as the report's ranges.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from compparity import compositions, formulas, partition_theorems, series
from compparity.compositions import (
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
# cached heavy intermediates (per process)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _min_part_gf(k: int, order: int) -> tuple[int, ...]:
    return series.min_part_series(k, order).coeffs


@lru_cache(maxsize=None)
def _congruent_gf(k: int, r: int, s: int, order: int) -> tuple[int, ...]:
    return series.congruent_series(k, r, s, order).coeffs


@lru_cache(maxsize=None)
def _small_parts_gf(k: int, x_order: int, y_order: int) -> series.BivariateSeries:
    return series.small_parts_series(k, x_order, y_order)


@lru_cache(maxsize=None)
def _recurrence_row(k: int, count: int) -> tuple[int, ...]:
    return tuple(formulas.min_part_signed_sequence(k, count))


# ---------------------------------------------------------------------------
# instance checkers (top level so they pickle for the process pool)
# ---------------------------------------------------------------------------

_THM1_ENUMERATED = 20  # thm1 enumerates the class only up to this n
_SHIFT_ORDER = 60  # series order of the cor-period shift/period checks


def _check_thm1(params):
    (n,) = params
    tag = (("n", n),)
    j = (n - 1) // 3
    pattern = 0 if n % 3 == 0 else (-1) ** j
    val = formulas.min_part_signed(2, n)
    if val != pattern:
        return Counterexample(tag, pattern, val, "period-6 pattern vs formula")
    rec = _recurrence_row(2, n)[n - 1]
    if rec != val:
        return Counterexample(tag, val, rec, "recurrence vs formula")
    if n <= _THM1_ENUMERATED:
        diff = compositions.signed_count(n + 1, MinPart(2)).diff
        if diff != val:
            return Counterexample(tag, val, diff, "enumeration vs formula")
    return None


def _check_thm2(params):
    (k, n, order) = params
    tag = (("k", k), ("n", n))
    val = formulas.min_part_signed(k, n)
    diff = compositions.signed_count(n + k - 1, MinPart(k)).diff
    if diff != val:
        return Counterexample(tag, val, diff, "enumeration vs formula")
    rec = _recurrence_row(k, n)[n - 1]
    if rec != val:
        return Counterexample(tag, val, rec, "recurrence vs formula")
    gf = -_min_part_gf(k, order)[n + k - 1]
    if gf != val:
        return Counterexample(tag, val, gf, "series vs formula")
    return None


def _check_thm3(params):
    (k, r, s, n, order) = params
    tag = (("k", k), ("r", r), ("s", s), ("n", n))
    val = formulas.congruent_signed(k, n, r, s)
    diff = compositions.signed_count(n + k - 1, MinPartCongruent(k, r, s)).diff
    if diff != val:
        return Counterexample(tag, val, diff, "enumeration vs formula")
    gf = -_congruent_gf(k, r, s, order)[n + k - 1]
    if gf != val:
        return Counterexample(tag, val, gf, "series vs formula")
    if k == r - s:
        ind = formulas.congruent_indicator(k, n, r, s)
        if ind != val:
            return Counterexample(tag, val, ind, "indicator special case")
    if k == 2 * r - s:
        per = formulas.congruent_periodic(k, n, r, s)
        if per != val:
            return Counterexample(tag, val, per, "periodic special case")
    return None


def _check_cor_rs(params):
    (r, s, n) = params
    k = r - s
    tag = (("r", r), ("s", s), ("n", n))
    val = formulas.congruent_indicator(k, n, r, s)
    form = formulas.congruent_signed(k, n, r, s)
    if form != val:
        return Counterexample(tag, val, form, "general formula vs indicator")
    diff = compositions.signed_count(n + k - 1, MinPartCongruent(k, r, s)).diff
    if diff != val:
        return Counterexample(tag, val, diff, "enumeration vs indicator")
    return None


def _check_cor_period(params):
    if params[0] == "value":
        (_, r, s, n) = params
        k = 2 * r - s
        tag = (("r", r), ("s", s), ("n", n))
        val = formulas.congruent_periodic(k, n, r, s)
        form = formulas.congruent_signed(k, n, r, s)
        if form != val:
            return Counterexample(tag, val, form, "general formula vs periodic form")
        diff = compositions.signed_count(n + k - 1, MinPartCongruent(k, r, s)).diff
        if diff != val:
            return Counterexample(tag, val, diff, "enumeration vs periodic form")
        return None
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


def _check_thm4(params):
    (k, m, n) = params
    tag = (("k", k), ("m", m), ("n", n))
    val = formulas.guarded_signed_boxed(k, n, m)
    alt = formulas.guarded_signed_sum(k, n, m)
    if alt != val:
        return Counterexample(tag, val, alt, "quadruple sum vs boxed form")
    diff = compositions.signed_count(n + k - 1, GuardedSmall(k, m)).diff
    if diff != val:
        return Counterexample(tag, val, diff, "enumeration vs boxed form")
    cnt = formulas.guarded_count_boxed(k, n, m)
    cnt_alt = formulas.guarded_count_sum(k, n, m)
    if cnt_alt != cnt:
        return Counterexample(tag, cnt, cnt_alt, "unsigned quadruple vs boxed")
    total = compositions.count_compositions(n + k - 1, GuardedSmall(k, m))
    if total != cnt:
        return Counterexample(tag, cnt, total, "unsigned enumeration vs boxed")
    return None


def _check_thm4bar(params):
    (k, m, n, x_order, y_order) = params
    tag = (("k", k), ("m", m), ("n", n))
    val = formulas.small_parts_signed(k, n, m)
    diff = compositions.signed_count(n + k - 1, compositions.ExactSmall(k, m)).diff
    if diff != val:
        return Counterexample(tag, val, diff, "enumeration vs formula")
    gf = series.bivariate_signed_value(_small_parts_gf(k, x_order, y_order), k, n, m)
    if gf != val:
        return Counterexample(tag, val, gf, "bivariate series vs formula")
    return None


def _check_comp1(params):
    (n,) = params
    tag = (("n", n),)
    a = compositions.count_compositions(n, OddParts())
    b = compositions.count_compositions(n + 1, MinPart(2))
    if a != b:
        return Counterexample(tag, a, b, "odd parts vs parts >= 2")
    return None


def _check_comp2(params):
    (k, n) = params
    tag = (("k", k), ("n", n))
    a = compositions.count_compositions(n, MinPartCongruent(1, k, 0))
    b = compositions.count_compositions(n + k - 1, MinPart(k))
    if a != b:
        return Counterexample(tag, a, b, "parts = 1 mod k vs parts >= k")
    f = formulas.min_part_count(k, n)
    if f != a:
        return Counterexample(tag, a, f, "count formula vs enumeration")
    return None


def _check_comp3(params):
    (k, m, n) = params
    tag = (("k", k), ("m", m), ("n", n))
    a = compositions.count_compositions(n, ModOneExcept(k, m))
    b = compositions.count_compositions(n + k - 1, GuardedSmall(k, m))
    if a != b:
        return Counterexample(tag, a, b, "mod-one-except vs guarded class")
    return None


def _check_legendre(params):
    (n, order) = params
    tag = (("n", n),)
    val = partition_theorems.legendre_closed(n)
    delta = partition_theorems.legendre_delta(n)
    if delta != val:
        return Counterexample(tag, val, delta, "enumeration vs closed form")
    coeff = _pentagonal_coeffs(order)[n]
    if coeff != val:
        return Counterexample(tag, val, coeff, "product coefficient vs closed form")
    return None


@lru_cache(maxsize=None)
def _pentagonal_coeffs(order: int) -> tuple[int, ...]:
    return series.pentagonal_product(order).coeffs


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


def _check_euler(params):
    (n,) = params
    d, o, ok = partition_theorems.euler_distinct_odd(n)
    if not ok:
        return Counterexample((("n", n),), d, o, "distinct vs odd")
    signed = partition_theorems.odd_parts_signed(n)
    expected = (-1) ** n * o
    if signed != expected:
        return Counterexample((("n", n),), expected, signed, "signed odd-part count")
    return None


def _check_glaisher(params):
    (k, n) = params
    a, b, ok = partition_theorems.glaisher_check(n, k)
    if not ok:
        return Counterexample((("k", k), ("n", n)), a, b, "multiplicity vs divisibility")
    return None


def _check_franklin(params):
    (k, m, n) = params
    a, b, ok = partition_theorems.franklin_check(n, k, m)
    if not ok:
        return Counterexample(
            (("k", k), ("m", m), ("n", n)), a, b, "repeated vs divisible values"
        )
    return None


def _check_nyirenda_d(params):
    (r, n) = params
    delta, closed, ok = partition_theorems.nyirenda_d(n, r)
    if not ok:
        return Counterexample((("r", r), ("n", n)), closed, delta, "d-class")
    return None


def _check_nyirenda_c(params):
    (r, n) = params
    delta, closed, ok = partition_theorems.nyirenda_c(n, r)
    if not ok:
        return Counterexample((("r", r), ("n", n)), closed, delta, "c-class")
    if r == 1:
        leg = partition_theorems.legendre_closed(n)
        if leg != closed:
            return Counterexample((("r", r), ("n", n)), leg, closed, "r=1 vs Legendre")
    return None


def _check_andrews(params):
    (k, n) = params
    a, b, c, ok = partition_theorems.andrews_counts(n, k)
    if not ok:
        return Counterexample(
            (("k", k), ("n", n)), a, (b, c), "initial reps vs companions"
        )
    return None


def _check_andrews_d(params):
    (m, n) = params
    delta, closed, ok = partition_theorems.andrews_singleton_delta(n, m)
    if not ok:
        return Counterexample((("m", m), ("n", n)), closed, delta, "singleton signs")
    return None


# ---------------------------------------------------------------------------
# sweep definitions
# ---------------------------------------------------------------------------

# The SweepConfig field that overrides each axis's last value; the single
# series order of the pentagonal sweep is set by max_n.
_OVERRIDE = {"n": "max_n", "order": "max_n", "k": "max_k", "r": "max_r", "m": "max_m"}


@dataclass(frozen=True)
class _Sweep:
    """One named sweep: the check run on each instance and the grid it covers.

    ``grid`` reads as the report's ranges.  A term ``a=first..last`` is an
    axis whose integer ``last`` is the default that ``SweepConfig``
    overrides; ``s=0..r-1`` bounds an axis by an earlier one; ``order=100``
    is a single point; any other term (``k=r-s``) is text only.  The
    points, in axis order, pass through ``instances``, which may append
    parameters shared by the whole grid; ``note`` extends the ranges text.
    Both read the axes' effective last values.
    """

    check: Callable[[tuple], Counterexample | None]
    grid: str
    instances: Callable[[list[tuple], dict[str, int]], list[tuple]] = lambda p, last: p
    note: Callable[[dict[str, int]], str] = lambda last: ""


def _with_order(points: list[tuple], last: dict[str, int]) -> list[tuple]:
    """Append the one series order, n+k, that covers every instance."""
    return [p + (last["n"] + last["k"],) for p in points]


def _with_shift_checks(points: list[tuple], last: dict[str, int]) -> list[tuple]:
    """Tag the value instances and add one shift/period check per (r, s)."""
    shifts = {("shift", r, s, _SHIFT_ORDER) for r, s, _ in points}
    return [("value", *p) for p in points] + list(shifts)


_SWEEPS = {
    "thm1": _Sweep(_check_thm1, "n=1..60",
                   note=lambda last: f" (enumeration to n={min(last['n'], _THM1_ENUMERATED)})"),
    "thm2": _Sweep(_check_thm2, "k=1..6 n=1..20", _with_order),
    "thm3": _Sweep(_check_thm3, "k=1..6 r=1..5 s=0..r-1 n=1..18", _with_order),
    "cor-rs": _Sweep(_check_cor_rs, "r=1..5 s=0..r-1 k=r-s n=1..18"),
    "cor-period": _Sweep(_check_cor_period, "r=1..5 s=0..r-1 k=2r-s n=1..18", _with_shift_checks,
                         note=lambda last: f"; shift/period to order {_SHIFT_ORDER}"),
    "thm4": _Sweep(_check_thm4, "k=2..4 m=0..3 n=1..16"),
    "thm4bar": _Sweep(_check_thm4bar, "k=1..4 m=0..3 n=1..16", lambda points, last: [
        (k, m, n, last["n"] + k - 1, last["m"]) for k, m, n in points]),
    "comp1": _Sweep(_check_comp1, "n=1..22"),
    "comp2": _Sweep(_check_comp2, "k=1..5 n=1..20"),
    "comp3": _Sweep(_check_comp3, "k=1..4 m=0..3 n=1..16"),
    "legendre": _Sweep(_check_legendre, "n=0..50",
                       lambda points, last: [p + (last["n"],) for p in points]),
    "pentagonal": _Sweep(_check_pentagonal, "order=100"),
    "euler": _Sweep(_check_euler, "n=0..30"),
    "glaisher": _Sweep(_check_glaisher, "k=1..4 n=0..30"),
    "franklin": _Sweep(_check_franklin, "k=1..3 m=0..3 n=0..25"),
    "nyirenda-d": _Sweep(_check_nyirenda_d, "r=1..3 n=0..40"),
    "nyirenda-c": _Sweep(_check_nyirenda_c, "r=1..3 n=0..40"),
    "andrews": _Sweep(_check_andrews, "k=1..3 n=0..30"),
    "andrews-d": _Sweep(_check_andrews_d, "m=0..7 n=0..30"),
}

CHECK_NAMES = tuple(_SWEEPS)


def _sweep(name: str) -> _Sweep:
    if name not in _SWEEPS:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    return _SWEEPS[name]


def _terms(sweep: _Sweep) -> list[tuple[str, str, str, str]]:
    """(axis, first, "..", last) per grid term; "" where a part is absent."""
    out = []
    for term in sweep.grid.split():
        axis, _, value = term.partition("=")
        out.append((axis, *value.rpartition("..")))
    return out


def overrides(name: str) -> tuple[str, ...]:
    """The SweepConfig fields that the named sweep reads."""
    return tuple(_OVERRIDE[axis] for axis, _, _, last in _terms(_sweep(name)) if last.isdigit())


def _expand(name: str, config: SweepConfig) -> tuple[list[tuple], str]:
    """The sweep's instances, sorted, and the ranges text of its report."""
    sweep = _sweep(name)
    points: list[dict[str, int]] = [{}]
    last: dict[str, int] = {}
    text: list[str] = []
    for axis, first, dots, top in _terms(sweep):
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
    return _SWEEPS[name].check(params)


def run_check(name: str, config: SweepConfig = SweepConfig()) -> VerificationReport:
    """Run one named sweep and return its report.

    Raises ValueError for an unknown name and for a grid with no instances,
    so a sweep can never pass vacuously.
    """
    instances, ranges = _expand(name, config)
    if not instances:
        raise ValueError(f"check {name} has no instances over {ranges}")
    tagged = [(name, p) for p in instances]
    if config.jobs > 1 and len(tagged) > 1:
        with multiprocessing.Pool(config.jobs) as pool:
            chunk = max(1, len(tagged) // (config.jobs * 4))
            results = pool.map(_dispatch, tagged, chunksize=chunk)
    else:
        results = [_dispatch(t) for t in tagged]
    first_failure = next((r for r in results if r is not None), None)
    return VerificationReport(
        name=name,
        ranges=ranges,
        instances=len(instances),
        passed=first_failure is None,
        counterexample=first_failure,
    )
