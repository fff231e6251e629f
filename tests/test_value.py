"""Value semantics of every immutable class: equality, hash, repr, pickling."""

import pickle

import pytest

from compparity import cli, compositions, partitions, sequences, series, verify
from compparity._value import OrderedValue, Value


def route_values(*lead_ns):
    return []


def identity_value(a, n):
    return n


CE = verify.Counterexample((("k", 2), ("n", 5)), 1, 0, "why")
ROUTE = verify._Route("series", route_values)

# (class, a function building one instance, the repr a frozen dataclass gives it)
SAMPLES = [
    (compositions.Composition, lambda: compositions.Composition((2, 1)),
     "Composition(parts=(2, 1))"),
    (compositions.SignedCount, lambda: compositions.SignedCount(3, 5),
     "SignedCount(odd_count=3, even_count=5)"),
    (compositions.PartsIn, lambda: compositions.PartsIn(2, 3, (2, 0, 2)),
     "PartsIn(least=2, period=3, residues=(0, 2))"),
    (compositions.DistinctParts, compositions.DistinctParts, "DistinctParts()"),
    (compositions.MarkedParts, lambda: compositions.ModOneExcept(3, 2),
     "MarkedParts(plain=PartsIn(least=1, period=3, residues=(1,)), least=4, m=2)"),
    (compositions.GuardedSmall, lambda: compositions.GuardedSmall(2, 1),
     "GuardedSmall(k=2, m=1)"),
    (partitions.Partition, lambda: partitions.Partition((3, 1, 1)),
     "Partition(parts=(3, 1, 1))"),
    (partitions.PartsIn, lambda: partitions.PartsIn(4, (3, 1), 2),
     "PartsIn(period=4, residues=(1, 3), most=2)"),
    (partitions.FranklinRepeated, lambda: partitions.FranklinRepeated(2, 1),
     "FranklinRepeated(k=2, m=1)"),
    (partitions.FranklinDivisible, lambda: partitions.FranklinDivisible(2, 1),
     "FranklinDivisible(k=2, m=1)"),
    (partitions.InitialKReps, lambda: partitions.InitialKReps(2), "InitialKReps(k=2)"),
    (partitions.InitialTwoRepsWithMarks, lambda: partitions.InitialTwoRepsWithMarks(3),
     "InitialTwoRepsWithMarks(m=3)"),
    (series.IntPolynomial, lambda: series.IntPolynomial([1, -1, 0, 0]),
     "IntPolynomial(coeffs=(1, -1))"),
    (series.TruncatedSeries, lambda: series.TruncatedSeries((1, 0, 2)),
     "TruncatedSeries(coeffs=(1, 0, 2))"),
    (series.BivariateSeries, lambda: series.BivariateSeries(((1, 0), (0, -1))),
     "BivariateSeries(coeffs=((1, 0), (0, -1)))"),
    (series.ShiftCheckReport, lambda: series.cyclotomic_shift_check(2, 1, 10),
     "ShiftCheckReport(r=2, s=1, k=3, inverse_ok=True, preperiod=0, period=12, "
     "period_divides=True)"),
    (sequences.IntegerSequence, lambda: sequences.parse_bfile("1 4\n2 5\n"),
     "IntegerSequence(offset=1, values=(4, 5))"),
    (sequences.MatchReport, lambda: sequences.MatchReport(False, 1, 3, (2, 5, 6)),
     "MatchReport(matched=False, overlap_start=1, overlap_end=3, first_mismatch=(2, 5, 6))"),
    (verify.SweepConfig, lambda: verify.SweepConfig(max_n=8),
     "SweepConfig(max_n=8, max_k=None, max_r=None, max_m=None, jobs=1)"),
    (verify.Counterexample, lambda: verify.Counterexample((("k", 2), ("n", 5)), 1, 0, "why"),
     "Counterexample(params=(('k', 2), ('n', 5)), expected=1, actual=0, detail='why')"),
    (verify.VerificationReport, lambda: verify.VerificationReport("thm2", "k=1", 1, False, CE),
     "VerificationReport(name='thm2', ranges='k=1', instances=1, passed=False, "
     f"counterexample={CE!r})"),
    (verify._Route, lambda: verify._Route("series", route_values),
     f"_Route(name='series', values={route_values!r}, when=None)"),
    (verify._Sweep, lambda: verify._Sweep("n=1..3", (ROUTE,), route_values, route_values),
     f"_Sweep(grid='n=1..3', routes=({ROUTE!r},), instances={route_values!r}, "
     f"note={route_values!r}, also=(), check=None)"),
    (cli._Identity, lambda: cli._Identity("k", 1, identity_value),
     f"_Identity(flags='k', offset=1, value={identity_value!r}, note=None, k_default=None, "
     "row=None)"),
]

# the classes no value is built from: the bases of the restriction classes
BASES = {OrderedValue, compositions.CompositionClass, partitions.PartitionClass}


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_value_class_has_a_sample():
    assert {sub for sub in subclasses(Value) if sub.__module__.startswith("compparity.")} \
        == {cls for cls, _, _ in SAMPLES} | BASES


@pytest.mark.parametrize("cls, make, text", SAMPLES,
                         ids=[f"{cls.__module__[11:]}.{cls.__name__}" for cls, _, _ in SAMPLES])
def test_value_semantics(cls, make, text):
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    fields = tuple(getattr(a, name) for name in cls.__slots__)
    assert hash(a) == hash(fields)  # as a frozen dataclass hashes
    assert a != fields and a.__eq__(fields) is NotImplemented
    assert repr(a) == text
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is cls and copy == a
    for name in cls.__slots__ + ("other",):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(a, name)
    assert tuple(getattr(a, name) for name in cls.__slots__) == fields
    assert not hasattr(a, "__dict__")


def test_classes_with_equal_fields_differ():
    # tallies are stored by class, so two classes must never share a key
    guarded, repeated = compositions.GuardedSmall(2, 1), partitions.FranklinRepeated(2, 1)
    assert guarded != repeated and repeated != guarded
    assert guarded != (2, 1) and len({guarded: 0, repeated: 1, (2, 1): 2}) == 3


@pytest.mark.parametrize("cls, parts", [
    (compositions.Composition, [(2, 1), (1, 1, 1), (3,), (1, 2)]),
    (partitions.Partition, [(2, 1), (1, 1, 1), (3,), (2, 2)]),
])
def test_compositions_and_partitions_sort_by_parts(cls, parts):
    values = [cls(p) for p in parts]
    assert [v.parts for v in sorted(values)] == sorted(parts)
    a, b = cls((1, 1, 1)), cls((2, 1))
    assert a < b and a <= b and b > a and b >= a and a <= cls((1, 1, 1)) and a >= cls((1, 1, 1))
    assert not (b < a or b <= a or a > b or a >= b)
    with pytest.raises(TypeError):
        a < (2, 1)
    with pytest.raises(TypeError):
        sorted([compositions.Composition((1,)), partitions.Partition((1,))])


def test_unordered_values_do_not_sort():
    with pytest.raises(TypeError):
        compositions.SignedCount(1, 2) < compositions.SignedCount(2, 1)
