"""Integer sequence utilities: period detection, b-files, comparison.

The b-file format is the OEIS exchange format: one "index value" pair per
line, indices consecutive.  Emission is canonical and byte-exact: LF line
endings, a single space between index and value, no trailing whitespace,
values in decimal with a leading "-" only.  Parsing is slightly looser
(comments starting with "#" and blank lines are ignored, any whitespace
separates the two fields) so that annotated fixture files still load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def detect_period(values: "Sequence[int] | IntegerSequence") -> tuple[int, int] | None:
    """Minimal (preperiod, period) for the window, or None if aperiodic.

    A pair (q, p) is admissible when values[i] == values[i+p] for every
    i >= q inside the window and at least two full periods are visible
    after the preperiod (q + 2p <= window length); in particular p never
    exceeds half the window.  Among admissible pairs the lexicographically
    smallest is returned: shortest preperiod first, then shortest period.
    """
    if isinstance(values, IntegerSequence):
        values = values.values
    vals = list(values)
    length = len(vals)
    if length == 0:
        raise ValueError("cannot detect a period in an empty window")
    best: tuple[int, int] | None = None
    for p in range(1, length // 2 + 1):
        q = 0
        for i in range(length - p - 1, -1, -1):
            if vals[i] != vals[i + p]:
                q = i + 1
                break
        if q + 2 * p <= length and (best is None or (q, p) < best):
            best = (q, p)
    return best


@dataclass(frozen=True)
class IntegerSequence:
    """Values with an offset: values[i] is the term at index offset + i.

    Computed sequences and parsed b-files (``parse_bfile``) alike.

    An optional (preperiod, period) descriptor may be attached; it is
    validated against the values on construction.
    """

    offset: int
    values: tuple[int, ...]
    period: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("sequence must contain at least one term")
        if self.period is not None:
            q, p = self.period
            if q < 0 or p < 1:
                raise ValueError(f"bad period descriptor {self.period}")
            if q + p > len(self.values):
                raise ValueError(
                    f"period descriptor {self.period} needs at least "
                    f"{q + p} stored terms, have {len(self.values)}"
                )
            for i in range(q, len(self.values) - p):
                if self.values[i] != self.values[i + p]:
                    raise ValueError(
                        f"period descriptor {self.period} fails at index "
                        f"{self.offset + i}"
                    )

    @property
    def last_index(self) -> int:
        return self.offset + len(self.values) - 1

    def term(self, index: int) -> int:
        """Stored term, or the periodic extension when a descriptor is set."""
        if index < self.offset:
            raise ValueError(f"index {index} precedes offset {self.offset}")
        if index > self.last_index:
            if self.period is None:
                raise ValueError(
                    f"index {index} outside {self.offset}..{self.last_index}"
                )
            q, p = self.period
            i = index - self.offset
            return self.values[q + (i - q) % p]
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


@dataclass(frozen=True)
class MatchReport:
    """Result of comparing a computed sequence against a b-file."""

    matched: bool
    overlap_start: int
    overlap_end: int
    first_mismatch: tuple[int, int, int] | None  # (index, computed, file)

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
