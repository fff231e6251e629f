"""Verification sweep registry: every check runs, reports are stable."""

import inspect
import itertools
import time
from collections import Counter

import pytest

from compparity import (
    _automaton, compositions, formulas, partition_theorems, partitions, series, verify)
from compparity.verify import (
    CHECK_NAMES,
    Counterexample,
    SweepConfig,
    VerificationReport,
    overrides,
    render_report,
    run_check,
)

TINY = SweepConfig(max_n=8, max_k=3, max_r=2, max_m=2)


def test_registry_is_complete():
    assert len(CHECK_NAMES) == 19
    assert "thm2" in CHECK_NAMES and "andrews-d" in CHECK_NAMES


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_every_check_passes_on_tiny_ranges(name):
    report = run_check(name, TINY)
    assert report.passed, render_report(report, "plain")
    assert report.instances > 0
    assert report.counterexample is None


def test_unknown_check_rejected():
    with pytest.raises(ValueError, match="unknown check"):
        run_check("thm99", TINY)


def product_instances(name, config):
    """The sweep's instances from the product of its axes, s < r filtered after.

    A grid term ``axis=a..b`` or ``axis=b`` is a range, its top overridden by
    ``config``; ``s=0..r-1`` is taken below the largest r and cut to s < r;
    a term like ``k=r-s`` is no axis.
    """
    sweep = verify._SWEEPS[name]
    axes, ranges = [], []
    for term in sweep.grid.split():
        axis, _, text = term.partition("=")
        first, dots, last = text.rpartition("..")
        if text == "0..r-1":
            ranges.append(range(max(ranges[axes.index("r")], default=0)))
        elif last.isdigit():
            override = getattr(config, verify._OVERRIDE[axis])
            top = int(last) if override is None else override
            ranges.append(range(int(first) if dots else top, top + 1))
        else:
            continue
        axes.append(axis)
    points = list(itertools.product(*ranges))
    if "s" in axes:
        r, s = axes.index("r"), axes.index("s")
        points = [p for p in points if p[s] < p[r]]
    return sorted(sweep.instances(points))


@pytest.mark.parametrize("config", [SweepConfig(), TINY], ids=["default", "tiny"])
@pytest.mark.parametrize("name", CHECK_NAMES)
def test_expand_lists_the_product_of_the_axes(name, config):
    assert verify.expand(name, config)[0] == product_instances(name, config)


def test_parallel_reports_are_byte_identical():
    for name in ("thm3", "franklin"):
        serial = run_check(name, SweepConfig(max_n=8, max_k=3, max_r=2, max_m=2, jobs=1))
        parallel = run_check(name, SweepConfig(max_n=8, max_k=3, max_r=2, max_m=2, jobs=2))
        for fmt in ("plain", "csv"):
            assert render_report(serial, fmt) == render_report(parallel, fmt)


def test_report_invariants():
    ce = Counterexample(params=(("k", 2), ("n", 5)), expected=1, actual=0, detail="x")
    with pytest.raises(ValueError):
        VerificationReport(
            name="thm2", ranges="k=1 n=1", instances=1, passed=True, counterexample=ce
        )
    with pytest.raises(ValueError):
        VerificationReport(
            name="thm2", ranges="k=1 n=1", instances=1, passed=False, counterexample=None
        )


def test_jobs_are_bounded_by_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert SweepConfig(jobs=2).jobs == 2
    with pytest.raises(ValueError, match=r"^jobs must be <= 2, the number of CPUs, got 3$"):
        SweepConfig(jobs=3)
    # where the affinity is unknown, every CPU counts
    monkeypatch.delattr(verify.os, "sched_getaffinity")
    assert SweepConfig(jobs=64).jobs == 64
    with pytest.raises(ValueError, match=r"^jobs must be <= 64, the number of CPUs, got 65$"):
        SweepConfig(jobs=65)


def test_counterexample_describe():
    ce = Counterexample(params=(("k", 2), ("n", 5)), expected=1, actual=0, detail="why")
    text = ce.describe()
    assert "k=2" in text and "n=5" in text
    assert "expected 1" in text and "got 0" in text and "why" in text


def test_render_plain_shape():
    report = run_check("thm2", SweepConfig(max_n=6, max_k=2))
    text = render_report(report, "plain")
    assert text.startswith("check=thm2 ")
    assert 'ranges="k=1..2 n=1..6"' in text
    assert "instances=12" in text
    assert "status=pass" in text


def test_render_csv_shape():
    report = run_check("thm2", SweepConfig(max_n=6, max_k=2))
    text = render_report(report, "csv")
    lines = text.splitlines()
    assert lines[0] == "name,ranges,instances,status,counterexample"
    assert lines[1].startswith("thm2,")


def test_render_rejects_unknown_format():
    report = run_check("thm2", SweepConfig(max_n=4, max_k=1))
    with pytest.raises(ValueError):
        render_report(report, "yaml")


@pytest.mark.parametrize(
    "name, config",
    [
        ("thm1", SweepConfig(max_n=0)),
        ("thm1", SweepConfig(max_n=-3)),
        ("thm4", SweepConfig(max_k=1)),
        ("cor-rs", SweepConfig(max_r=0)),
    ],
)
def test_empty_grid_rejected(name, config):
    with pytest.raises(ValueError, match="no instances"):
        run_check(name, config)


def test_zero_overrides_are_honoured():
    report = run_check("andrews-d", SweepConfig(max_m=0, max_n=0))
    assert (report.ranges, report.instances) == ("m=0..0 n=0..0", 1)


def test_absent_axes_are_ignored():
    # one config may be shared by every sweep, as `compparity verify all` does
    assert overrides("legendre") == ("max_n",)
    report = run_check("legendre", SweepConfig(max_n=5, max_k=9, max_r=9, max_m=9))
    assert report.ranges == "n=0..5"
    assert {f for name in CHECK_NAMES for f in overrides(name)} == {
        "max_n", "max_k", "max_r", "max_m"
    }


# ---------------------------------------------------------------------------
# rows run largest-first; reports keep parameter order
# ---------------------------------------------------------------------------

FAILING = {(1, 3), (2, 5)}


def fail_at_two_instances(lead, ns):
    (k,) = lead
    n = next((n for n in ns if (k, n) in FAILING), None)
    return None if n is None else Counterexample((("k", k), ("n", n)), 0, 1, "planted")


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_first_counterexample_in_parameter_order_is_reported(monkeypatch, jobs):
    sweep = verify._Sweep(verify._SWEEPS["thm2"].grid, check=fail_at_two_instances)
    monkeypatch.setitem(verify._SWEEPS, "thm2", sweep)
    report = run_check("thm2", SweepConfig(max_n=6, max_k=2, jobs=jobs))
    assert (report.passed, report.instances) == (False, 12)
    assert report.counterexample.describe() == "k=1 n=3: expected 0, got 1 (planted)"


def test_every_class_is_tallied_once_per_sweep(monkeypatch, tallies):
    """A serial run of the 19 default sweeps, with every tally recorded.

    Within a sweep no (side, class, statistic) is tallied twice, and a later
    sweep tallies a class again only to reach a larger size than any stored.
    A statistic made afresh on every call shows up as one name tallied over
    and over, so keys are compared by the statistic's qualified name.
    """
    stored = []  # (key, largest size) of every tally, in order

    class Recording(dict):
        def __setitem__(self, key, counts):
            side, cls, stat = key
            stored.append(((side, cls, getattr(stat, "__qualname__", stat)), len(counts) - 1))
            super().__setitem__(key, counts)

    monkeypatch.setattr(_automaton, "_COUNTS", Recording())
    for name in CHECK_NAMES:
        before = len(stored)
        assert run_check(name).passed, name
        keys = [key for key, _ in stored[before:]]
        assert [k for k, times in Counter(keys).items() if times > 1] == [], name

    assert len(tallies) == len(stored)
    largest = {}
    for key, size in stored:
        assert size > largest.get(key, -1), (key, size)
        largest[key] = size


def test_partition_sweeps_pass_on_wide_grids(monkeypatch):
    """The partition sweeps at grids several times their defaults, from an empty store."""
    monkeypatch.setattr(_automaton, "_COUNTS", {})
    t0 = time.perf_counter()
    for name, max_n, instances in [("franklin", 80, 972), ("andrews-d", 80, 648),
                                   ("glaisher", 120, 484), ("legendre", 200, 201)]:
        report = run_check(name, SweepConfig(max_n=max_n))
        assert (report.passed, report.instances) == (True, instances), name
    assert time.perf_counter() - t0 < 5.0


# Pairs of routes that read one stored tally: (sweep, quantity, route,
# route).  euler's signed closed form counts odd-part partitions with the
# tally that its enumeration signs; it needs a product of its own (ROADMAP
# item 3).
SHARED_TALLIES = {("euler", "signed", "closed form", "enumeration")}


def value_rows(name, config=SweepConfig()):
    """The sweep's rows of route values: cor-period's without the shift checks."""
    rows = verify._rows(verify.expand(name, config)[0])
    if name == "cor-period":
        rows = [(lead[1:], ns) for lead, ns in rows if lead[0] == "value"]
    return rows


def accepted(route, lead, ns):
    """The n of the row at which the route is asked."""
    return [n for n in ns if route.when is None or route.when(*lead, n)]


def test_no_two_routes_read_one_tally(monkeypatch):
    """Every route on every default row, with the tally keys it reads.

    Equal classes share one tally, so two routes whose classes are equal
    would compare a number with itself.  The pairs found must be exactly
    the declared ones, so the list can neither grow nor go stale.
    """
    read = set()
    real = _automaton._counts

    def recording(key, *args):
        read.add(key)
        return real(key, *args)

    monkeypatch.setattr(_automaton, "_counts", recording)
    found = set()
    for name, sweep in verify._SWEEPS.items():
        if not sweep.routes:
            continue
        for lead, ns in value_rows(name):
            for quantity, routes in (("", sweep.routes), *sweep.also):
                keys = []
                for route in routes:
                    read.clear()
                    if at := accepted(route, lead, ns):
                        route.values(*lead, at)
                    keys.append((route.name, set(read)))
                for (a, ka), (b, kb) in itertools.combinations(keys, 2):
                    if ka & kb:
                        found.add((name, quantity, a, b))
    assert found == SHARED_TALLIES


# ---------------------------------------------------------------------------
# routes: one comparison loop, a fixed vocabulary
# ---------------------------------------------------------------------------

def recorded(calls, name, value, when=None):
    """A route that records each row it is asked for and returns ``value(n)`` at each n."""
    def call(*args):
        calls.append((name, args))
        return [value(n) for n in args[-1]]
    return verify._Route(name, call, when)


def test_compare_asks_each_route_once_per_row_and_reports_the_smallest_failing_n():
    calls = []
    sweep = verify._Sweep("k=1..2 n=1..3", (
        recorded(calls, "closed form", lambda n: 5),
        recorded(calls, "enumeration", lambda n: 5 + (n == 3)),
        recorded(calls, "series", lambda n: 5 - (n >= 2)),
        recorded(calls, "recurrence", lambda n: 5 - 2 * (n == 2)),
    ))
    found = verify._compare(sweep, (2,), (1, 2, 3))
    assert calls == [(name, (2, (1, 2, 3)))
                     for name in ("closed form", "enumeration", "series", "recurrence")]
    # series and recurrence both fail at n = 2: the first in order is reported
    assert found == Counterexample((("k", 2), ("n", 2)), 5, 4, "series vs closed form")
    assert found.describe() == "k=2 n=2: expected 5, got 4 (series vs closed form)"
    calls.clear()
    assert verify._compare(sweep, (1,), (1,)) is None
    assert [args for _, args in calls] == [(1, (1,))] * 4


def test_compare_asks_guarded_routes_only_where_accepted_and_prefixes_a_second_quantity():
    calls = []
    sweep = verify._Sweep("r=1..5 s=0..r-1 k=r-s n=1..18", (
        recorded(calls, "closed form", lambda n: 1),
        recorded(calls, "enumeration", lambda n: 7, lambda r, s, n: r == 9),
        # wrong past n = 2, where its guard keeps it from being asked
        recorded(calls, "second closed form", lambda n: 1 + (n > 2), lambda r, s, n: n <= 2),
    ), also=(("unsigned", (
        recorded(calls, "closed form", lambda n: 2),
        recorded(calls, "enumeration", lambda n: 2 + (n >= 4)),
    )),))
    found = verify._compare(sweep, (3, 1), (1, 2, 3, 4, 5))
    assert calls == [("closed form", (3, 1, (1, 2, 3, 4, 5))),
                     ("second closed form", (3, 1, [1, 2])),
                     ("closed form", (3, 1, (1, 2, 3, 4, 5))),
                     ("enumeration", (3, 1, (1, 2, 3, 4, 5)))]
    assert found.describe() == "r=3 s=1 n=4: expected 2, got 3 (unsigned: enumeration vs closed form)"


def planted_sweep(planted):
    """A sweep whose routes give k*100 + m*10 + n, plus 1 at each planted instance.

    ``planted`` holds (quantity, route, k, m, n); the second closed form is
    asked only for n <= 3, as thm1's enumeration only for n <= 20.
    """
    def route(quantity, name, when=None):
        def values(k, m, ns):
            return [k * 100 + m * 10 + n + ((quantity, name, k, m, n) in planted) for n in ns]
        return verify._Route(name, values, when)

    return verify._Sweep("k=1..3 m=0..2 n=1..6", (
        route("", "closed form"),
        route("", "enumeration"),
        route("", "second closed form", lambda k, m, n: n <= 3),
        route("", "series"),
    ), also=(("unsigned", (
        route("unsigned", "closed form"),
        route("unsigned", "enumeration"),
    )),))


TWO_ROWS = {("", "enumeration", 3, 0, 2), ("", "enumeration", 2, 1, 5)}
TWO_NS = {("", "series", 2, 1, 4), ("", "series", 2, 1, 6)}


@pytest.mark.parametrize("planted, describe", [
    (TWO_ROWS, "k=2 m=1 n=5: expected 215, got 216 (enumeration vs closed form)"),
    (TWO_ROWS | TWO_NS, "k=2 m=1 n=4: expected 214, got 215 (series vs closed form)"),
    # at one n the first quantity is reported, then the first route
    (TWO_NS | {("unsigned", "enumeration", 2, 1, 4)},
     "k=2 m=1 n=4: expected 214, got 215 (series vs closed form)"),
    (TWO_NS | {("unsigned", "enumeration", 2, 1, 2)},
     "k=2 m=1 n=2: expected 212, got 213 (unsigned: enumeration vs closed form)"),
    # past its guard a route is not asked, so a wrong value there passes
    ({("", "second closed form", 2, 1, 5)}, None),
    ({("", "second closed form", 2, 1, 5), ("", "second closed form", 2, 1, 3)},
     "k=2 m=1 n=3: expected 213, got 214 (second closed form vs closed form)"),
    ({("", "second closed form", 2, 1, 3), ("", "series", 2, 1, 3)},
     "k=2 m=1 n=3: expected 213, got 214 (second closed form vs closed form)"),
])
@pytest.mark.parametrize("jobs", [1, 2])
def test_planted_disagreements_report_the_first_instance_then_quantity_then_route(
        monkeypatch, planted, describe, jobs):
    monkeypatch.setitem(verify._SWEEPS, "thm4", planted_sweep(planted))
    report = run_check("thm4", SweepConfig(max_k=3, max_m=2, max_n=6, jobs=jobs))
    assert report.instances == 54
    assert (report.counterexample and report.counterexample.describe()) == describe


def compare_instance(sweep, params):
    """The first disagreement at one instance, asking each route for that n alone.

    The comparison loop as it was before sweeps compared rows: quantities
    and routes in order, stopping at the first route that differs from its
    quantity's reference.
    """
    *lead, n = params
    axes = [axis for axis, _, dots, last in verify._terms(sweep.grid) if dots or last.isdigit()]
    for quantity, routes in (("", sweep.routes), *sweep.also):
        reference = None
        for route in routes:
            if route.when is None or route.when(*params):
                (got,) = route.values(*lead, (n,))
                if reference is None:
                    reference, expected = route, got
                elif got != expected:
                    detail = f"{route.name} vs {reference.name}"
                    return Counterexample(tuple(zip(axes, params)), expected, got,
                                          f"{quantity}: {detail}" if quantity else detail)
    return None


def check_instance_by_instance(name, config):
    """The report of a sweep run one instance at a time, largest first."""
    sweep = verify._SWEEPS[name]
    instances, ranges = verify.expand(name, config)
    results = []
    for params in reversed(instances):
        if name == "cor-period" and params[0] == "value":
            results.append(compare_instance(sweep, params[1:]))
        elif sweep.check is not None:
            results.append(sweep.check(params[:-1], params[-1:]))
        else:
            results.append(compare_instance(sweep, params))
    failure = next((r for r in reversed(results) if r is not None), None)
    return VerificationReport(name, ranges, len(instances), failure is None, failure)


def plus_one_at(module, name, where):
    """Patch ``module.name`` to add 1 to its value at the arguments ``where``."""
    real = getattr(module, name)
    return module, name, lambda *args: real(*args) + (args == where)


# three of the point defects that pass every default sweep; each fails its
# sweeps once n reaches 60
POINT_DEFECTS = {
    "clean": None,
    "min_part_signed": (formulas, "min_part_signed", (3, 25)),
    "legendre_closed": (partition_theorems, "legendre_closed", (60,)),
    "andrews_singleton_closed": (partition_theorems, "andrews_singleton_closed", (40, 3)),
}


@pytest.mark.parametrize("defect", POINT_DEFECTS)
def test_rows_report_what_an_instance_at_a_time_loop_reports(monkeypatch, defect):
    if POINT_DEFECTS[defect] is not None:
        monkeypatch.setattr(*plus_one_at(*POINT_DEFECTS[defect]))
    failing = set()
    for config in (SweepConfig(), SweepConfig(max_n=60)):
        for name in CHECK_NAMES:
            rows = run_check(name, config)
            assert rows == check_instance_by_instance(name, config), (name, config)
            if not rows.passed:
                failing.add((name, config.max_n))
    assert failing == {
        "clean": set(),
        "min_part_signed": {("thm2", 60)},
        "legendre_closed": {("legendre", 60), ("nyirenda-c", 60)},
        "andrews_singleton_closed": {("andrews-d", 60)},
    }[defect]


def test_every_route_is_named_from_the_vocabulary_and_compared_with_another():
    assert len(set(verify.ROUTES)) == len(verify.ROUTES) == 6
    assert {name for name, s in verify._SWEEPS.items() if s.check} == {"cor-period", "pentagonal"}
    for name, sweep in verify._SWEEPS.items():
        if not sweep.routes:
            assert sweep.check is not None, name
            continue
        for quantity, routes in (("", sweep.routes), *sweep.also):
            # a reference alone would let the sweep pass by comparing nothing
            assert len(routes) >= 2, (name, quantity)
            assert routes[0].when is None, (name, quantity)
            assert {route.name for route in routes} <= set(verify.ROUTES), (name, quantity)


def test_every_route_takes_exactly_its_sweeps_grid_axes():
    # a route lifted from one instance takes the axes; a row route takes the
    # leading axes and the row's n; a guard takes one instance
    for name, sweep in verify._SWEEPS.items():
        axes = [axis for axis, _, dots, last in verify._terms(sweep.grid)
                if dots or last.isdigit()]
        for quantity, routes in (("", sweep.routes), *sweep.also):
            for route in routes:
                lifted = getattr(route.values, "__wrapped__", None)
                if lifted is None:
                    assert list(inspect.signature(route.values).parameters) == axes[:-1] + [
                        "ns"], (name, quantity, route.name)
                else:
                    assert list(inspect.signature(lifted).parameters) == axes, (
                        name, quantity, route.name)
                if route.when is not None:
                    assert list(inspect.signature(route.when).parameters) == axes, (
                        name, quantity, route.name)


def test_an_enumeration_off_by_one_fails_thm2_at_the_first_instance(monkeypatch):
    real = compositions.counts_by_size

    def off_by_one(n, cls):
        counts = list(real(n, cls))
        if n >= 10:
            odd, even = counts[10]
            counts[10] = odd + 1, even
        return tuple(counts)

    monkeypatch.setattr(compositions, "counts_by_size", off_by_one)
    report = run_check("thm2")
    assert not report.passed
    assert report.counterexample.describe() == (
        "k=1 n=10: expected 0, got 1 (enumeration vs closed form)")


def test_a_partition_count_off_by_one_fails_glaisher_at_the_first_instance(monkeypatch):
    real = partitions.counts_by_size
    capped = {partitions.MaxMultiplicity(k) for k in range(1, 5)}

    def off_by_one(n, cls):
        counts = list(real(n, cls))
        if n >= 7 and cls in capped:
            odd, even = counts[7]
            counts[7] = odd + 1, even
        return tuple(counts)

    monkeypatch.setattr(partitions, "counts_by_size", off_by_one)
    report = run_check("glaisher")
    assert not report.passed
    assert report.counterexample.describe() == (
        "k=1 n=7: expected 1, got 0 (companion class vs enumeration)")


@pytest.mark.parametrize("name, closed_form, where, describe", [
    ("nyirenda-d", "nyirenda_d_closed", (2, 14),
     "r=2 n=14: expected 2, got 1 (enumeration vs closed form)"),
    ("nyirenda-c", "nyirenda_c_closed", (3, 13),
     "r=3 n=13: expected 2, got 1 (enumeration vs closed form)"),
    ("andrews-d", "andrews_singleton_closed", (3, 6),
     "m=3 n=6: expected 0, got -1 (enumeration vs closed form)"),
])
def test_a_closed_form_off_by_one_at_one_instance_fails_its_sweep_there(
        monkeypatch, name, closed_form, where, describe):
    right = getattr(partition_theorems, closed_form)
    monkeypatch.setattr(partition_theorems, closed_form,
                        lambda n, a: right(n, a) + ((a, n) == where))
    report = run_check(name)
    assert not report.passed
    assert report.counterexample.describe() == describe


def test_a_product_coefficient_off_by_one_fails_pentagonal_and_legendre_there(monkeypatch):
    real = series.pentagonal_product

    def off_by_one(order):
        coeffs = list(real(order).coeffs)
        if order >= 37:
            coeffs[37] += 1
        return series.TruncatedSeries(tuple(coeffs))

    monkeypatch.setattr(series, "pentagonal_product", off_by_one)
    monkeypatch.setattr(verify, "_ROWS", {})
    report = run_check("pentagonal")
    assert not report.passed
    assert report.counterexample.detail == "coefficient 37"
    report = run_check("legendre")
    assert not report.passed
    assert report.counterexample.describe() == (
        "n=37: expected 0, got 1 (series vs closed form)")


# ---------------------------------------------------------------------------
# series and recurrence rows: kept per (function, leading args), grown on demand
# ---------------------------------------------------------------------------

class RecordingRows(dict):
    """A row store that lists the key of every row it is given."""

    def __init__(self):
        super().__init__()
        self.computed = []

    def __setitem__(self, key, stored):
        self.computed.append(key)
        super().__setitem__(key, stored)


def test_every_row_is_computed_once_over_the_default_sweeps(monkeypatch):
    rows = RecordingRows()
    monkeypatch.setattr(verify, "_ROWS", rows)
    for name in CHECK_NAMES:
        assert run_check(name).passed, name
    assert [key for key, times in Counter(rows.computed).items() if times > 1] == []
    assert Counter(fn.__name__ for fn, _ in rows.computed) == {
        "min_part_signed_sequence": 6,  # k=1..6, thm1's k=2 row serving thm2
        "min_part_series": 6,
        "congruent_series": 90,  # one per (k, r, s)
        "small_parts_series": 4,
        "guarded_series": 28,  # thm4's (k, m, t), 3 x 4 x 2, and comp3's k=1 rows
        "pentagonal_product": 1,  # legendre's; the pentagonal sweep builds its own
        "parts_in_series": 1,  # comp1's odd parts
    }


def test_rows_asked_for_in_ascending_order_give_the_same_values(monkeypatch):
    # each sweep row asked for one n more at a time, so every stored row grows
    monkeypatch.setattr(verify, "_ROWS", {})
    for name in ("thm1", "thm2", "thm3", "thm4bar", "legendre"):
        sweep = verify._SWEEPS[name]
        for lead, ns in value_rows(name):
            assert [ns[:end] for end in range(1, len(ns) + 1)
                    if verify._compare(sweep, lead, ns[:end])] == [], (name, lead)
    # a two-dimensional row grows to the componentwise max of the sizes asked
    rows = RecordingRows()
    monkeypatch.setattr(verify, "_ROWS", rows)
    whole = series.small_parts_series(3, 12, 4)
    stored_sizes = []
    for x, y in [(2, 4), (5, 1), (12, 0), (3, 3)]:
        row = verify._row(series.small_parts_series, 3, size=(x, y))
        assert [r[:y + 1] for r in row.coeffs[:x + 1]] == [r[:y + 1] for r in whole.coeffs[:x + 1]]
        stored_sizes.append(rows[series.small_parts_series, (3,)][0])
    assert stored_sizes == [(2, 4), (5, 4), (12, 4), (12, 4)]
    assert len(rows.computed) == 3
