"""Verification sweep registry: every check runs, reports are stable."""

import dataclasses
import time
from collections import Counter

import pytest

from compparity import _automaton, compositions, partitions, verify
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
# instances run largest-first; reports keep parameter order
# ---------------------------------------------------------------------------

FAILING = {(1, 3), (2, 5)}


def fail_at_two_instances(params):
    k, n, _ = params
    if (k, n) in FAILING:
        return Counterexample((("k", k), ("n", n)), 0, 1, "planted")
    return None


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_first_counterexample_in_parameter_order_is_reported(monkeypatch, jobs):
    sweep = dataclasses.replace(verify._SWEEPS["thm2"], check=fail_at_two_instances)
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


# ---------------------------------------------------------------------------
# routes: one comparison loop, a fixed vocabulary
# ---------------------------------------------------------------------------

def recorded(calls, name, value, when=None):
    """A route that records its name when evaluated and returns ``value``."""
    def call(*args):
        calls.append((name, args))
        return value
    return verify._Route(name, call, when)


def test_compare_evaluates_routes_in_order_and_stops_at_the_first_disagreement():
    calls = []
    sweep = verify._Sweep("k=1..2 n=1..3", (
        recorded(calls, "closed form", 5),
        recorded(calls, "enumeration", 5),
        recorded(calls, "series", 4),
        recorded(calls, "recurrence", 3),
    ))
    found = verify._compare(sweep, (2, 3, 99))  # a trailing shared parameter
    assert [name for name, _ in calls] == ["closed form", "enumeration", "series"]
    assert calls[0][1] == (2, 3, 99)
    assert found == Counterexample((("k", 2), ("n", 3)), 5, 4, "series vs closed form")
    assert found.describe() == "k=2 n=3: expected 5, got 4 (series vs closed form)"


def test_compare_skips_guarded_routes_and_prefixes_a_second_quantity():
    calls = []
    sweep = verify._Sweep("r=1..5 s=0..r-1 k=r-s n=1..18", (
        recorded(calls, "closed form", 1),
        recorded(calls, "enumeration", 7, lambda r, s, n: r == 9),
        recorded(calls, "second closed form", 1),
    ), also=(("unsigned", (
        recorded(calls, "closed form", 2),
        recorded(calls, "enumeration", 3),
    )),))
    found = verify._compare(sweep, (3, 1, 4))
    assert [name for name, _ in calls] == [
        "closed form", "second closed form", "closed form", "enumeration"]
    assert found.describe() == "r=3 s=1 n=4: expected 2, got 3 (unsigned: enumeration vs closed form)"


def test_compare_passes_the_theorem_result_after_the_parameters():
    calls = []
    sweep = verify._Sweep("k=1..4 n=0..30", (
        recorded(calls, "enumeration", 1),
        recorded(calls, "companion class", 1),
    ), theorem=lambda k, n: (n, k))
    assert verify._compare(sweep, (3, 8)) is None
    assert calls == [("enumeration", (3, 8, (8, 3))), ("companion class", (3, 8, (8, 3)))]


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


def test_an_enumeration_off_by_one_fails_thm2_at_the_first_instance(monkeypatch):
    real = compositions.signed_count

    def off_by_one(n, cls):
        counts = real(n, cls)
        return compositions.SignedCount(counts.odd_count + (n == 10), counts.even_count)

    monkeypatch.setattr(compositions, "signed_count", off_by_one)
    report = run_check("thm2")
    assert not report.passed
    assert report.counterexample.describe() == (
        "k=1 n=10: expected 0, got 1 (enumeration vs closed form)")


def test_a_partition_count_off_by_one_fails_glaisher_at_the_first_instance(monkeypatch):
    real = partitions.count_partitions

    def off_by_one(n, cls):
        return real(n, cls) + (n == 7 and isinstance(cls, partitions.MaxMultiplicity))

    monkeypatch.setattr(partitions, "count_partitions", off_by_one)
    report = run_check("glaisher")
    assert not report.passed
    assert report.counterexample.describe() == (
        "k=1 n=7: expected 1, got 0 (companion class vs enumeration)")
