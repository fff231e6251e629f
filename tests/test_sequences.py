"""Sequence utilities: period detection, b-file I/O, comparison."""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compparity import sequences as Q


def test_detect_period_pure():
    assert Q.detect_period([1, 1, 0, -1, -1, 0] * 5) == (0, 6)
    assert Q.detect_period([5] * 10) == (0, 1)


def test_detect_period_with_preperiod():
    assert Q.detect_period([7, 1, 2, 1, 2, 1, 2, 1, 2]) == (1, 2)
    assert Q.detect_period([9, 9, 3, 3, 3, 3, 3, 3]) == (2, 1)


def test_detect_period_aperiodic():
    assert Q.detect_period([1, 2, 3, 4, 5]) is None
    assert Q.detect_period([1]) is None
    with pytest.raises(ValueError, match="empty window"):
        Q.detect_period([])


def test_detect_period_needs_two_full_cycles():
    # one and a half repetitions are not admissible evidence
    assert Q.detect_period([1, 2, 3, 1, 2]) is None
    assert Q.detect_period([1, 2, 3, 1, 2, 3]) == (0, 3)


def test_detect_period_prefers_smallest():
    # (0, 2) beats (0, 4) and beats (2, 2)
    assert Q.detect_period([1, 2, 1, 2, 1, 2, 1, 2]) == (0, 2)


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=6), st.integers(2, 4))
def test_detect_period_on_true_repetition(block, reps):
    q, p = Q.detect_period(block * reps)
    assert q == 0
    assert p <= len(block)
    # the reported period must actually divide into the data
    data = block * reps
    assert all(data[i] == data[i + p] for i in range(len(data) - p))


@pytest.mark.parametrize("window, want", [
    ([1, 1, 0, -1, -1, 0] * (40_000 // 6) + [1, 1, 0, -1], (0, 6)),
    ([1] + [0] * 39_999, (1, 1)),
    (list(range(40_000)), None),
])
def test_detect_period_is_fast_on_a_long_window(window, want):
    start = time.perf_counter()
    assert Q.detect_period(window) == want
    assert time.perf_counter() - start < 1.0


def _smallest_admissible(vals):
    """Brute force: the least (q, p) with vals[i] == vals[i+p] for i >= q."""
    pairs = [(q, p) for q in range(len(vals)) for p in range(1, len(vals))
             if q + 2 * p <= len(vals)
             and all(vals[i] == vals[i + p] for i in range(q, len(vals) - p))]
    return min(pairs, default=None)


@given(st.lists(st.integers(0, 2), max_size=5),
       st.lists(st.integers(0, 2), min_size=1, max_size=4),
       st.integers(1, 4), st.lists(st.integers(0, 2), max_size=3))
def test_detect_period_is_the_smallest_admissible_pair(prefix, block, reps, tail):
    window = prefix + block * reps + tail
    assert Q.detect_period(window) == _smallest_admissible(window)


def test_integer_sequence_period_descriptor():
    with pytest.raises(ValueError):
        Q.IntegerSequence(0, ())


def test_integer_sequence_term_bounds():
    seq = Q.IntegerSequence(5, (10, 11, 12))
    assert seq.last_index == 7
    assert seq.term(6) == 11
    with pytest.raises(ValueError):
        seq.term(8)
    with pytest.raises(ValueError):
        seq.term(4)


def test_emit_bfile_canonical():
    assert Q.emit_bfile([1, -1, 0], 0) == "0 1\n1 -1\n2 0\n"
    assert Q.emit_bfile([7], 3) == "3 7\n"


def test_parse_bfile_comments_and_blanks():
    rec = Q.parse_bfile("# header\n\n3 7\n4 -2\n")
    assert rec == Q.IntegerSequence(3, (7, -2))
    assert rec.term(4) == -2


def test_parse_bfile_errors():
    with pytest.raises(ValueError, match="no entries"):
        Q.parse_bfile("# only a comment\n")
    with pytest.raises(ValueError, match="line 2"):
        Q.parse_bfile("1 2\n3 4\n")
    with pytest.raises(ValueError, match="line 1"):
        Q.parse_bfile("a b\n")
    with pytest.raises(ValueError, match="line 1"):
        Q.parse_bfile("0 1.5\n")


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=30), st.integers(-3, 5))
def test_bfile_round_trip(values, offset):
    text = Q.emit_bfile(values, offset)
    rec = Q.parse_bfile(text)
    assert rec.offset == offset
    assert list(rec.values) == values
    assert Q.emit_bfile(rec.values, rec.offset) == text


def test_compare_match():
    seq = Q.IntegerSequence(0, (1, 2, 3, 4, 5))
    rec = Q.IntegerSequence(2, (3, 4))
    rep = Q.compare(seq, rec)
    assert rep.matched
    assert (rep.overlap_start, rep.overlap_end) == (2, 3)
    assert rep.first_mismatch is None
    assert "match" in rep.describe()


def test_compare_mismatch():
    seq = Q.IntegerSequence(0, (1, 2, 3))
    rec = Q.IntegerSequence(1, (2, 9))
    rep = Q.compare(seq, rec)
    assert not rep.matched
    assert rep.first_mismatch == (2, 3, 9)
    assert "mismatch at index 2" in rep.describe()


def test_compare_empty_overlap():
    seq = Q.IntegerSequence(0, (1, 2))
    rec = Q.IntegerSequence(5, (9,))
    with pytest.raises(ValueError):
        Q.compare(seq, rec)
