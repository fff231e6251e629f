"""Integer sequence utilities: period detection, b-files, comparison.

The b-file format is the OEIS exchange format: one "index value" pair per
line, indices consecutive.  Emission is canonical and byte-exact: LF line
endings, a single space between index and value, no trailing whitespace,
values in decimal with a leading "-" only.  Parsing is slightly looser
(comments starting with "#" and blank lines are ignored, any whitespace
separates the two fields) so that annotated fixture files still load.
"""

from __future__ import annotations

from collections.abc import Sequence

from compparity._value import Value


def detect_period(values: Sequence[int]) -> tuple[int, int] | None:
    """Minimal (preperiod, period) for the window, or None if aperiodic.

    A pair (q, p) is admissible when values[i] == values[i+p] for every
    i >= q inside the window and at least two full periods are visible
    after the preperiod (q + 2p <= window length); in particular p never
    exceeds half the window.  Among admissible pairs the lexicographically
    smallest is returned: shortest preperiod first, then shortest period.
    """
    vals = list(values)
    length = len(vals)
    if length == 0:
        raise ValueError("cannot detect a period in an empty window")
    # (q, p) is admissible when the last m = length - q values have period
    # p <= m/2.  Their least period is m minus their longest border (a
    # proper prefix that is also a suffix), so the least admissible p for
    # each q is that one or none.  Borders of the reversed window's
    # prefixes (Knuth-Morris-Pratt) give every q in one linear pass.
    rev = vals[::-1]
    border = [0] * (length + 1)
    for m in range(2, length + 1):
        b = border[m - 1]
        while b and rev[m - 1] != rev[b]:
            b = border[b]
        border[m] = b + 1 if rev[m - 1] == rev[b] else b
    for q in range(length):
        m = length - q
        if 2 * (m - border[m]) <= m:
            return (q, m - border[m])
    return None


class IntegerSequence(Value):
    """Values with an offset: values[i] is the term at index offset + i.

    Computed sequences and parsed b-files (``parse_bfile``) alike.
    """

    __slots__ = ("offset", "values")

    def __init__(self, offset: int, values: tuple[int, ...]) -> None:
        if not values:
            raise ValueError("sequence must contain at least one term")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "values", values)

    @property
    def last_index(self) -> int:
        return self.offset + len(self.values) - 1

    def term(self, index: int) -> int:
        if index < self.offset:
            raise ValueError(f"index {index} precedes offset {self.offset}")
        if index > self.last_index:
            raise ValueError(f"index {index} outside {self.offset}..{self.last_index}")
        return self.values[index - self.offset]


def emit_bfile(values: Sequence[int], offset: int) -> str:
    """Render values as canonical b-file text (see module doc)."""
    if not values:
        raise ValueError("refusing to emit an empty b-file")
    return "".join(f"{offset + i} {v}\n" for i, v in enumerate(values))


def parse_bfile(text: str) -> IntegerSequence:
    """Parse b-file text; comments and blank lines are ignored.

    Raises ValueError naming the line number for malformed lines and for
    indices that are not consecutive.
    """
    offset: int | None = None
    values: list[int] = []
    expected: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(
                f"line {lineno}: expected 'index value', got {raw!r}"
            )
        try:
            index, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-integer field in {raw!r}"
            ) from None
        if expected is not None and index != expected:
            raise ValueError(
                f"line {lineno}: index {index} not consecutive "
                f"(expected {expected})"
            )
        if offset is None:
            offset = index
        values.append(value)
        expected = index + 1
    if offset is None:
        raise ValueError("b-file contains no entries")
    return IntegerSequence(offset, tuple(values))


class MatchReport(Value):
    """Result of comparing a computed sequence against a b-file.

    ``first_mismatch`` is (index, computed, file value), or None on a match.
    """

    __slots__ = ("matched", "overlap_start", "overlap_end", "first_mismatch")

    def __init__(self, matched: bool, overlap_start: int, overlap_end: int,
                 first_mismatch: tuple[int, int, int] | None) -> None:
        object.__setattr__(self, "matched", matched)
        object.__setattr__(self, "overlap_start", overlap_start)
        object.__setattr__(self, "overlap_end", overlap_end)
        object.__setattr__(self, "first_mismatch", first_mismatch)

    def describe(self) -> str:
        if self.matched:
            return f"match over indices {self.overlap_start}..{self.overlap_end}"
        index, computed, in_file = self.first_mismatch  # type: ignore[misc]
        return (
            f"mismatch at index {index}: computed={computed} file={in_file} "
            f"(overlap {self.overlap_start}..{self.overlap_end})"
        )


def compare(seq: IntegerSequence, record: IntegerSequence) -> MatchReport:
    """Compare over the overlapping index range; empty overlap is an error."""
    lo = max(seq.offset, record.offset)
    hi = min(seq.last_index, record.last_index)
    if lo > hi:
        raise ValueError(
            f"no overlapping indices: sequence covers {seq.offset}.."
            f"{seq.last_index}, file covers {record.offset}..{record.last_index}"
        )
    for i in range(lo, hi + 1):
        a, b = seq.term(i), record.term(i)
        if a != b:
            return MatchReport(False, lo, hi, (i, a, b))
    return MatchReport(True, lo, hi, None)
