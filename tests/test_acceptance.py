"""Acceptance gate: eight binary criteria, exact equality, hard budgets.

Each criterion prints one [PASS]/[FAIL] line (visible with ``pytest -s``)
and fails the suite on any mismatch or budget overrun.  Criteria run in
definition order; the last one audits the accumulated time and parallel
determinism.
"""

import functools
import time

from compparity import compositions as C
from compparity import formulas as F
from compparity import partition_theorems as PT
from compparity import partitions as P
from compparity import sequences as Q
from compparity import series as S
from compparity.verify import SweepConfig, render_report, run_check

_TIMES = {}


def criterion(idx, label, budget):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"[FAIL] criterion {idx}: {label}")
                raise
            elapsed = time.monotonic() - t0
            _TIMES[idx] = elapsed
            if elapsed >= budget:
                print(
                    f"[FAIL] criterion {idx}: {label} "
                    f"(time {elapsed:.1f}s, budget {budget:.0f}s)"
                )
                raise AssertionError(
                    f"criterion {idx} exceeded budget: {elapsed:.1f}s >= {budget}s"
                )
            print(f"[PASS] criterion {idx}: {label} ({elapsed:.1f}s < {budget:.0f}s)")

        return wrapper

    return deco


@criterion(1, "min-part signed count: formula = enumeration = recurrence = series", 5)
def test_criterion_1():
    for k in range(1, 7):
        row = F.min_part_signed_sequence(k, 20)
        gf = S.min_part_series(k, 20 + k - 1)
        for n in range(1, 21):
            diff = C.signed_count(n + k - 1, C.MinPart(k)).diff
            b = F.min_part_signed(k, n)
            assert b == diff
            assert b == row[n - 1]
            assert b == -gf.coefficient(n + k - 1)
    # k = 2 follows the period-6 pattern out to n = 60
    for n in range(1, 61):
        assert F.min_part_signed(2, n) == F.congruent_periodic(2, n, 1, 0)


@criterion(2, "odd-part compositions match min-part classes; unsigned formula", 10)
def test_criterion_2():
    for n in range(1, 23):
        assert C.count_compositions(n, C.OddParts()) == C.count_compositions(
            n + 1, C.MinPart(2)
        )
    for k in range(1, 6):
        for n in range(1, 21):
            lhs = C.count_compositions(n, C.MinPartCongruent(1, k, 0))
            rhs = C.count_compositions(n + k - 1, C.MinPart(k))
            assert lhs == rhs
            assert F.min_part_count(k, n) == rhs


@criterion(3, "congruence classes: formula = enumeration = series + corollaries", 30)
def test_criterion_3():
    for r in range(1, 6):
        for s in range(0, r):
            for k in range(1, 7):
                gf = S.congruent_series(k, r, s, 18 + k - 1)
                for n in range(1, 19):
                    b = F.congruent_signed(k, n, r, s)
                    diff = C.signed_count(
                        n + k - 1, C.MinPartCongruent(k, r, s)
                    ).diff
                    assert b == diff
                    assert b == -gf.coefficient(n + k - 1)
                    if k == r - s:
                        assert b == F.congruent_indicator(k, n, r, s)
                    if k == 2 * r - s:
                        assert b == F.congruent_periodic(k, n, r, s)
            if 2 * r - s <= 6:
                rep = S.cyclotomic_shift_check(r, s, 60)
                assert rep.passed, rep
                assert rep.period_divides


@criterion(4, "guarded small parts: both closed forms = enumeration, both classes", 30)
def test_criterion_4():
    assert F.guarded_signed_boxed(2, 5, 1) == 2
    assert F.guarded_signed_boxed(2, 8, 2) == 1
    assert F.guarded_signed_boxed(2, 6, 2) == 0
    for k in range(2, 5):
        for m in range(0, 4):
            for n in range(1, 17):
                sc = C.signed_count(n + k - 1, C.GuardedSmall(k, m))
                b = F.guarded_signed_boxed(k, n, m)
                assert b == F.guarded_signed_sum(k, n, m)
                assert b == sc.diff
                unsigned = F.guarded_count_boxed(k, n, m)
                assert unsigned == F.guarded_count_sum(k, n, m)
                assert unsigned == sc.total
                assert unsigned == C.count_compositions(n, C.ModOneExcept(k, m))


@criterion(5, "exact small parts: formula = enumeration = bivariate series", 20)
def test_criterion_5():
    assert F.small_parts_signed(2, 2, 1) == -2
    for k in range(1, 5):
        bs = S.small_parts_series(k, 16 + k - 1, 3)
        for m in range(0, 4):
            for n in range(1, 17):
                b = F.small_parts_signed(k, n, m)
                assert b == C.signed_count(n + k - 1, C.ExactSmall(k, m)).diff
                assert b == -bs.coefficient(n + k - 1, m)  # the class lives on n+k-1


@criterion(6, "partition identities: Legendre through Andrews", 60)
def test_criterion_6():
    coeffs = S.pentagonal_product(50).coeffs
    for n in range(0, 51):
        closed = PT.legendre_closed(n)
        assert PT.legendre_delta(n) == closed
        assert coeffs[n] == closed
    assert S.pentagonal_product(100).coeffs == S.pentagonal_rhs(100).coeffs
    for n in range(0, 31):
        assert P.count_partitions(n, P.DistinctParts()) == P.count_partitions(n, P.OddParts())
    for k in range(2, 5):
        for n in range(0, 31):
            assert P.count_partitions(n, P.MaxMultiplicity(k)) == P.count_partitions(
                n, P.NoPartDivisibleBy(k))
    for k in range(2, 4):
        for m in range(0, 4):
            for n in range(0, 26):
                assert P.count_partitions(n, P.FranklinRepeated(k, m)) == P.count_partitions(
                    n, P.FranklinDivisible(k, m))
    for r in range(1, 4):
        for n in range(0, 41):
            assert PT.nyirenda_d_delta(n, r) == PT.nyirenda_d_closed(n, r)
            assert PT.nyirenda_c_delta(n, r) == PT.nyirenda_c_closed(n, r)
    for n in range(0, 26):
        assert PT.nyirenda_c_delta(n, 1) == PT.legendre_closed(n)
    for k in range(1, 4):
        for n in range(0, 31):
            assert (P.count_partitions(n, P.InitialKReps(k))
                    == P.count_partitions(n, P.NoPartDivisibleBy(2 * k))
                    == P.count_partitions(n, P.MaxMultiplicity(2 * k)))
    for m in range(0, 8):
        for n in range(0, 31):
            assert PT.andrews_singleton_delta(n, m) == PT.andrews_singleton_closed(n, m)


@criterion(7, "sequence fixtures reproduce; b-file round trip is byte exact", 5)
def test_criterion_7():
    import pathlib

    fixtures = pathlib.Path(__file__).parent / "fixtures"

    rec = Q.parse_bfile((fixtures / "a339435.txt").read_text())
    assert rec.offset == 0
    assert list(rec.values) == [C.signed_count_distinct(n) for n in range(18)]

    rec = Q.parse_bfile((fixtures / "a081360.txt").read_text())
    assert rec.offset == 0
    assert list(rec.values) == [PT.odd_parts_signed(n) for n in range(18)]

    rec = Q.parse_bfile((fixtures / "minpart2_signed.txt").read_text())
    assert rec.offset == 1
    assert list(rec.values) == [F.min_part_signed(2, n) for n in range(1, 61)]

    values = [F.min_part_signed(3, n) for n in range(1, 41)]
    text = Q.emit_bfile(values, 1)
    back = Q.parse_bfile(text)
    assert Q.emit_bfile(back.values, back.offset) == text


@criterion(8, "accumulated time inside budget; parallel reports byte-identical", 40)
def test_criterion_8():
    total = sum(_TIMES.values())
    assert set(_TIMES) == {1, 2, 3, 4, 5, 6, 7}, "criteria must run in order"
    assert total < 180, f"criteria 1-7 took {total:.1f}s, budget 180s"
    for name in ("thm3", "glaisher"):
        serial = run_check(name, SweepConfig(max_n=10, max_k=3, max_r=3, jobs=1))
        parallel = run_check(name, SweepConfig(max_n=10, max_k=3, max_r=3, jobs=2))
        for fmt in ("plain", "csv"):
            assert render_report(serial, fmt) == render_report(parallel, fmt)
