"""Verification sweep registry: every check runs, reports are stable."""

import pytest

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
    # one config may be shared by every sweep, as scripts/run_all_checks.py does
    assert overrides("legendre") == ("max_n",)
    report = run_check("legendre", SweepConfig(max_n=5, max_k=9, max_r=9, max_m=9))
    assert report.ranges == "n=0..5"
    assert {f for name in CHECK_NAMES for f in overrides(name)} == {
        "max_n", "max_k", "max_r", "max_m"
    }
