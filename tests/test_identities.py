"""The identity table behind the sweeps and the CLI tokens."""

import pytest

from compparity import cli, formulas, identities, series, verify
from compparity.identities import IDENTITIES, SEQUENCES, SERIES
from compparity.verify import CHECK_NAMES, run_check


def quantities(ident):
    return (("", ident.routes), *ident.also)


def test_every_token_is_declared_by_one_entry_and_listed_once():
    declared = [token for ident in IDENTITIES.values() for token, *_ in ident.tokens]
    assert sorted(declared) == sorted(SEQUENCES)
    assert cli.FORMULA_NAMES == (
        "thm2", "munagi", "thm3", "cor-rs", "cor-period", "thm4", "thm4a", "thm4bar")
    assert tuple(SERIES) == ("thm2", "thm3", "cor-period", "thm4bar", "pentagonal")


def test_every_row_and_series_the_cli_prints_comes_from_a_route_a_sweep_compares():
    # a route no sweep compares could print a wrong row that no check sees
    name_of = {id(ident): name for name, ident in IDENTITIES.items()}
    compared = {id(route) for name in CHECK_NAMES
                for _, routes in quantities(IDENTITIES[name]) if len(routes) >= 2
                for route in routes}
    served = {("bfile", token): (name_of[id(ident)], quantity, row)
              for token, (ident, quantity, row, _) in SEQUENCES.items() if row}
    served |= {("series", token): (name_of[id(ident)], "", "series")
               for token, (ident, *_) in SERIES.items()}
    assert served == {
        ("bfile", "thm2"): ("thm2", "", "series"),
        ("bfile", "munagi"): ("comp2", "", "series"),
        ("bfile", "thm3"): ("thm3", "", "recurrence"),
        ("bfile", "thm4"): ("thm4", "", "series"),
        ("bfile", "thm4a"): ("thm4", "unsigned", "series"),
        ("bfile", "thm4bar"): ("thm4bar", "", "series"),
        ("series", "thm2"): ("thm2", "", "series"),
        ("series", "thm3"): ("thm3", "", "series"),
        ("series", "cor-period"): ("cor-period", "", "series"),
        ("series", "thm4bar"): ("thm4bar", "", "series"),
        ("series", "pentagonal"): ("legendre", "", "series"),
    }
    for served_as, (name, quantity, row) in served.items():
        assert id(IDENTITIES[name].route(quantity, row)) in compared, served_as
    # the one token whose entry has no sweep yet, until distinct gets more routes
    assert [token for token, (ident, *_) in SEQUENCES.items() if not ident.grid] == ["distinct"]


def test_each_series_token_expands_the_function_its_entrys_series_route_reads(monkeypatch):
    # the token names its series function; the compared route must read it
    for token, (ident, _, attr) in SERIES.items():
        name = next(name for name, entry in IDENTITIES.items() if entry is ident)
        real, read = getattr(series, attr), []
        monkeypatch.setattr(series, attr, lambda *a, real=real: read.append(a) or real(*a))
        lead, ns = verify._rows(verify.expand(name, verify.SweepConfig())[0])[-1]
        p, shift = ident.at(lead[1:] if lead[:1] == ("value",) else lead)  # cor-period
        ident.route("", "series").values(verify._row, p, shift, ns)
        assert read, token


def test_every_per_n_term_the_cli_prints_comes_from_a_route_of_its_entry():
    for token, (ident, quantity, _, _) in SEQUENCES.items():
        names = {ident.value} if isinstance(ident.value, str) else {
            ident.value(k, 0) for k in (1, 2)}  # thm4's boxed form starts at k = 2
        for name in names:
            assert ident.route(quantity, name).value is not None, (token, name)


def test_the_flags_and_first_index_of_each_token():
    assert {token: (ident.flags, ident.first) for token, (ident, *_) in SEQUENCES.items()} == {
        "thm2": ("k", 1), "munagi": ("k", 1), "thm3": ("k r s", 1), "cor-rs": ("r s k?", 1),
        "cor-period": ("r s k?", 1), "thm4": ("k m", 1), "thm4a": ("k m", 1),
        "thm4bar": ("k m", 1), "distinct": ("", 0), "odd-parts": ("", 0), "legendre": ("", 0),
    }


def test_a_size_offset_shifted_by_one_fails_every_sweep_that_reads_it(monkeypatch, capsys):
    # the index n of a composition identity counts its class on size n+k-1;
    # the mutant reads size n+k instead, in every route kind at once
    monkeypatch.setattr(identities, "offset", lambda k: k)
    monkeypatch.setattr(verify, "_ROWS", {})
    caught = {}
    for name in CHECK_NAMES:
        report = run_check(name)
        if not report.passed:
            caught[name] = report.counterexample.describe()
    assert caught == {
        "thm1": "n=2: expected 1, got 0 (enumeration vs closed form)",
        "thm2": "k=1 n=1: expected 1, got 0 (enumeration vs closed form)",
        "thm3": "k=1 r=1 s=0 n=1: expected 1, got 0 (enumeration vs closed form)",
        "cor-rs": "r=1 s=0 n=1: expected 1, got 0 (enumeration vs closed form)",
        "cor-period": "r=1 s=0 n=2: expected 1, got 0 (enumeration vs closed form)",
        "thm4": "k=2 m=0 n=2: expected 1, got 0 (enumeration vs closed form)",
        "thm4bar": "k=1 m=0 n=1: expected 1, got 0 (enumeration vs closed form)",
        # odd-part compositions of n against parts >= 2 at n+1: k = 2
        "comp1": "n=2: expected 1, got 2 (companion class vs enumeration)",
        "comp2": "k=1 n=1: expected 1, got 2 (series vs enumeration)",
        "comp3": "k=1 m=0 n=1: expected 1, got 2 (companion class vs enumeration)",
    }
    # the rows the CLI serves read the same offset, and fail their spot checks
    assert cli.main("bfile emit --seq thm2 --k 2 --max-n 40".split()) == 1
    assert capsys.readouterr().err.startswith("error: sequence thm2: the series gives")


@pytest.mark.parametrize("name, module, attr, route", [
    ("thm3", formulas, "congruent_signed_sequence", "recurrence"),
    ("comp2", series, "parts_in_series", "series"),
    ("cor-period", series, "periodic_series", "series"),
])
def test_a_wrong_value_in_a_served_route_fails_its_sweep(monkeypatch, name, module, attr, route):
    # the rows of bfile thm3 and munagi and the series cor-period prints
    real = getattr(module, attr)

    def planted(*args):  # one value off: the fourth of a list, x^5 of a series
        got = real(*args)
        if isinstance(got, list):
            return got[:3] + [got[3] + 1] + got[4:]
        return type(got)(got.coeffs[:5] + (got.coeffs[5] + 1,) + got.coeffs[6:])

    monkeypatch.setattr(module, attr, planted)
    monkeypatch.setattr(verify, "_ROWS", {})
    report = run_check(name)
    assert not report.passed
    assert report.counterexample.detail.startswith(f"{route} vs ")
