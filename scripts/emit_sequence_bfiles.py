#!/usr/bin/env python3
"""Emit b-files for the named sequences into an output directory.

Covers the standard set (min-part signed/unsigned rows, congruence
classes, guarded and exact small-part rows, distinct compositions,
odd-part partitions, Legendre deltas) plus two OEIS alignment candidates
whose offsets could not be pinned down from published data; those two
carry a warning header and are meant for eyeball comparison, not as
regression fixtures.

Every row is the one ``compparity bfile emit`` writes, on the same route:
the signed min-part and small-part rows from the generating function,
spot-checked against the closed form; the other closed-form rows term by
term; the distinct-composition and odd-part rows from one tally of their
class to the last index.  --terms below 1, or past what a route can
reach, exits 2 with an ``error:`` line and writes nothing.
"""

import argparse
import pathlib
import sys

from compparity import cli
from compparity import sequences as Q


def _row(seq: str, terms: int, *flags: str) -> list[int]:
    """The row ``compparity bfile emit --seq <seq> <flags>`` writes, same route."""
    args = cli.build_parser().parse_args(
        ["bfile", "emit", "--seq", seq, *flags, "--max-n", str(terms)])
    return cli.sequence_terms(args, terms)


def standard_files(terms: int):
    yield (
        "minpart2_signed.txt",
        "Odd-length minus even-length compositions of n+1 with parts >= 2.",
        1,
        _row("thm2", terms, "--k", "2"),
    )
    yield (
        "minpart3_signed.txt",
        "Odd-length minus even-length compositions of n+2 with parts >= 3.",
        1,
        _row("thm2", terms, "--k", "3"),
    )
    yield (
        "minpart2_count.txt",
        "Compositions of n+1 with parts >= 2 (Fibonacci numbers).",
        1,
        _row("munagi", terms, "--k", "2"),
    )
    yield (
        "congruent_2mod3_signed.txt",
        "Signed compositions of n+1, parts >= 2 and congruent to 0 mod 3.",
        1,
        _row("thm3", terms, "--k", "2", "--r", "3", "--s", "1"),
    )
    yield (
        "guarded_k2_m1_signed.txt",
        "Signed compositions of n+1 with exactly one guarded part below 2.",
        1,
        _row("thm4", terms, "--k", "2", "--m", "1"),
    )
    yield (
        "smallparts_k2_m1_signed.txt",
        "Signed compositions of n+1 with exactly one part below 2.",
        1,
        _row("thm4bar", terms, "--k", "2", "--m", "1"),
    )
    yield (
        "distinct_compositions_signed.txt",
        "Even-length minus odd-length compositions into distinct parts (OEIS A339435).",
        0,
        _row("distinct", terms),
    )
    yield (
        "odd_partitions_signed.txt",
        "Even-length minus odd-length partitions into odd parts (OEIS A081360).",
        0,
        _row("odd-parts", terms),
    )
    yield (
        "legendre_delta.txt",
        "Even minus odd distinct partitions (Legendre/pentagonal deltas).",
        0,
        _row("legendre", terms),
    )


def candidate_files(terms: int):
    # offsets here are guesses; compare by eye before trusting an alignment
    yield (
        "candidate_a281862.txt",
        "CANDIDATE alignment for OEIS A281862: signed compositions of n+1 with "
        "exactly two guarded parts below 2; offset not confirmed.",
        1,
        _row("thm4", terms, "--k", "2", "--m", "2"),
    )
    yield (
        "candidate_a122918.txt",
        "CANDIDATE alignment for OEIS A122918: signed compositions of n with "
        "exactly two parts below 1; identically zero, so the match is dubious.",
        1,
        _row("thm4bar", terms, "--k", "1", "--m", "2"),
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("bfiles"))
    ap.add_argument("--terms", type=int, default=60)
    args = ap.parse_args()
    if args.terms < 1:
        print(f"error: --terms must be >= 1, got {args.terms}", file=sys.stderr)
        return 2

    try:
        files = list(standard_files(args.terms)) + list(candidate_files(args.terms))
    except ValueError as exc:  # e.g. a size past the enumeration tally's limit
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a row disagrees with its closed form
        print(f"error: {exc}", file=sys.stderr)
        return 1

    args.out.mkdir(parents=True, exist_ok=True)
    count = 0
    for name, blurb, offset, values in files:
        path = args.out / name
        header = f"# {blurb}\n"
        path.write_text(header + Q.emit_bfile(values, offset), encoding="ascii")
        print(f"wrote {path} ({len(values)} terms)")
        count += 1
    print(f"{count} files in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
