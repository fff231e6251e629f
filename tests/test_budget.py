"""The one work budget: one limit, one message, each layer at its own price.

Every layer charges its work on ``_budget`` at a price of its own.  Set
the limit to a served call's cost and the call is served; lower it by
one price and the same call is refused, with the one message naming that
cost.  So each edge moves by exactly one of the layer's units.
"""

import re

import pytest

from compparity import _automaton, _budget, cli, verify
from compparity import compositions as C
from compparity import formulas as F
from compparity import partitions as P
from compparity import series as S

SHAPE = r"(.+) needs at least (\d+) units of work, past the budget of (\d+)"


def test_a_cost_at_the_limit_is_served_and_one_past_it_refused(monkeypatch):
    _budget.charge(_budget.LIMIT, "anything")
    with pytest.raises(ValueError) as refused:
        _budget.charge(_budget.LIMIT + 1, "work of {} and {}", 3, "x")
    assert str(refused.value) == ("work of 3 and x needs at least 80000001 units of work, "
                                  "past the budget of 80000000")
    assert re.fullmatch(SHAPE, str(refused.value))
    # the limit is read at every charge
    monkeypatch.setattr(_budget, "LIMIT", 10)
    with pytest.raises(ValueError, match="^work needs at least 11 units of work, "
                                         "past the budget of 10$"):
        _budget.charge(11, "work")


def test_the_message_is_formatted_only_on_refusal():
    class Unprintable:
        def __format__(self, spec):
            raise AssertionError("formatted")

    _budget.charge(_budget.LIMIT, "work of {}", Unprintable())
    with pytest.raises(AssertionError):
        _budget.charge(_budget.LIMIT + 1, "work of {}", Unprintable())


def served_at_its_cost_refused_one_price_below(monkeypatch, call, price, units, what):
    """``call`` costs ``units`` at ``price``: served at that limit, refused one price below."""
    monkeypatch.setattr(_budget, "LIMIT", price * units)
    served = call()
    monkeypatch.setattr(_budget, "LIMIT", price * (units - 1))
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == (f"{what} needs at least {price * units} units of work, "
                                  f"past the budget of {price * (units - 1)}")
    return served


def test_a_tally_edge_moves_by_one_trial(monkeypatch):
    # a one-state class with a nonempty row at every size: each row's
    # charge is 30 * 31 / 2 trials, the start row's too
    cls = C.All()
    served = served_at_its_cost_refused_one_price_below(
        monkeypatch, lambda: _automaton._tally(30, cls, cls.accept), _automaton._TRIAL,
        30 * 31 // 2, "the tally to size 30 of this class")
    assert (served[True][0][30], served[True][1][30]) == (2 ** 28, 2 ** 28)  # odd, even


def test_a_partition_tally_edge_moves_by_one_trial(monkeypatch):
    # each multiplicity c of each value v of all partitions of 30 costs
    # 31 - c*v trials, the last value's moves charged last
    cls = P.All()
    trials = sum(31 - c * v for v in range(1, 31) for c in range(30 // v + 1))
    served = served_at_its_cost_refused_one_price_below(
        monkeypatch, lambda: _automaton._tally_by_value(30, cls, cls.accept, P._flips_length),
        _automaton._TRIAL, trials, "the tally to size 30 of this class")
    assert served[True][0][30] + served[True][1][30] == 5604  # p(30)


def test_a_closed_form_edge_moves_by_one_unit_of_terms_times_bits(monkeypatch):
    # 10 terms C(19 - j, j), upper index up to 19, width up to 19 // 3 = 6:
    # each 16 + 6 bitlen(19 // 6 + 1)
    served = served_at_its_cost_refused_one_price_below(
        monkeypatch, lambda: F.min_part_count(2, 20), F._TERM_BITS, 10 * (16 + 6 * 3),
        "the sum of at least 10 terms of C(a, b) with a <= 19, min(b, a-b) <= 6")
    assert served == 6765  # Fibonacci


def test_the_product_edge_moves_by_one_addition(monkeypatch):
    # levels j = 1..7 to x^30 add 30 - j(j-1)/2 coefficients each
    served = served_at_its_cost_refused_one_price_below(
        monkeypatch, lambda: S.pentagonal_product(30), S._ADDITION,
        sum(30 - j * (j - 1) // 2 for j in range(1, 8)), "the product to x^30 (154 additions)")
    assert served == S.pentagonal_rhs(30)


def test_a_cli_table_edge_moves_by_one_cell(monkeypatch, capsys):
    def table():
        code = cli.main("series thm2 --k 2 --order 99".split())
        out, err = capsys.readouterr()
        if code == 2:
            raise ValueError(err.removeprefix("error: ").removesuffix("\n"))
        return code, out

    served = served_at_its_cost_refused_one_price_below(
        monkeypatch, table, verify._CELL, 100, "series thm2 to x^99 (100 coefficients)")
    assert served == (0, ",".join(map(str, S.min_part_series(2, 99).coeffs)) + "\n")


def test_a_grid_edge_moves_by_one_point(monkeypatch):
    served = served_at_its_cost_refused_one_price_below(
        monkeypatch, lambda: verify.expand("legendre", verify.SweepConfig(max_n=99)),
        verify._CELL, 100, "check legendre over 100 points")
    assert served[0] == [(n,) for n in range(100)]
