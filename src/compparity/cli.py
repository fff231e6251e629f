"""Command line interface.

Subcommands: count, signed, formula, series, verify, period, bfile.
``verify all`` runs every sweep and prints one line per sweep, a failing
sweep's report after its line, and a summary line; with ``--format csv``
stdout holds one csv table, a row per sweep, and the timed lines go to
stderr.
Exit codes: 0 success, 1 verification or comparison failure, 2 usage or
parameter error.  ``--format plain|csv|bfile`` selects rendering; bfile
rendering only applies to univariate series output, and ``bfile`` takes
plain only.

Formula and verify subcommands index theorems by n while the underlying
composition class lives on size n+k-1; a note restating the actual size
is printed to stderr so stdout stays scriptable.

Each class, formula, sequence and series token is one entry of a table
(``_CLASSES``, ``_IDENTITIES``, ``_SERIES``) naming its flags; a missing
flag, and a flag the token does not use, is a parameter error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from collections.abc import Callable

from compparity import compositions, formulas, partition_theorems, sequences, series
from compparity._value import Value
from compparity.verify import CHECK_NAMES, SweepConfig, expand, overrides, render_report, run_check

# Parameter flags a token may use; any other one given is rejected.
_TOKEN_FLAGS = ("k", "r", "s", "m", "y_order", "num", "den")

# class token: (constructor, its flags in argument order)
_CLASSES = {
    "all": (compositions.All, ""),
    "minpart": (compositions.MinPart, "k"),
    "congruent": (compositions.MinPartCongruent, "k r s"),
    "distinct": (compositions.DistinctParts, ""),
    "odd": (compositions.OddParts, ""),
    "small": (compositions.ExactSmall, "k m"),
    "guarded": (compositions.GuardedSmall, "k m"),
    "modone": (compositions.ModOneExcept, "k m"),
}
CLASS_NAMES = tuple(_CLASSES)


def _flags(
    args: argparse.Namespace, spec: str, context: str, known: tuple[str, ...] = _TOKEN_FLAGS
) -> None:
    """Require the flags in ``spec`` and reject any other flag in ``known``.

    A trailing ``?`` in ``spec`` marks an optional flag.
    """
    names = spec.split()
    missing = [n for n in names if not n.endswith("?") and getattr(args, n) is None]
    if missing:
        raise ValueError(f"{context} requires {_options(missing)}")
    allowed = {n.rstrip("?") for n in names}
    unused = [n for n in known if n not in allowed and getattr(args, n, None) is not None]
    if unused:
        raise ValueError(f"{context} does not use {_options(unused)}")


def _options(names: list[str]) -> str:
    return ", ".join("--" + n.replace("_", "-") for n in names)


def _composition_class(args: argparse.Namespace) -> compositions.CompositionClass:
    make, spec = _CLASSES[args.class_name]
    _flags(args, spec, f"class {args.class_name!r}")
    return make(*(getattr(args, f) for f in spec.split()))


# ---------------------------------------------------------------------------
# named formulas and sequences
# ---------------------------------------------------------------------------

class _Identity(Value):
    """A formula or sequence token.

    ``flags`` names its parameters (``?`` marks an optional one) and
    ``offset`` its first index.  ``value(a, n)`` is the term at index n and
    ``note(a, n)`` the stderr line of ``formula``, or None for a sequence
    with no formula; ``a`` holds the flags once ``k_default`` has filled an
    absent --k.  ``row(a, count)``, where given, is the first ``count``
    terms from the generating function or its recurrence, on a route
    ``value`` does not take.
    """

    __slots__ = ("flags", "offset", "value", "note", "k_default", "row")

    def __init__(
        self,
        flags: str,
        offset: int,
        value: Callable[[argparse.Namespace, int], int],
        note: Callable[[argparse.Namespace, int], str] | None = None,
        k_default: Callable[[argparse.Namespace], int] | None = None,
        row: Callable[[argparse.Namespace, int], list[int]] | None = None,
    ) -> None:
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "note", note)
        object.__setattr__(self, "k_default", k_default)
        object.__setattr__(self, "row", row)


_IDENTITIES = {
    "thm2": _Identity(
        "k", 1, lambda a, n: formulas.min_part_signed(a.k, n),
        lambda a, n: f"n={n}, k={a.k}: signed compositions of {n + a.k - 1} with parts >= {a.k}",
        row=lambda a, count: series.signed_values(
            series.min_part_series(a.k, count + a.k - 1), a.k, count)),
    "munagi": _Identity(
        "k", 1, lambda a, n: formulas.min_part_count(a.k, n),
        lambda a, n: f"n={n}, k={a.k}: compositions of {n + a.k - 1} with parts >= {a.k}",
        row=lambda a, count: list(series.min_part_series(a.k, count + a.k - 1, 1).coeffs[a.k:])),
    "thm3": _Identity(
        "k r s", 1, lambda a, n: formulas.congruent_signed(a.k, n, a.r, a.s),
        lambda a, n: f"n={n}, k={a.k}: signed compositions of {n + a.k - 1} with parts >= "
        f"{a.k} congruent to {a.k + a.s} mod {a.r}",
        row=lambda a, count: formulas.congruent_signed_sequence(a.k, a.r, a.s, count)),
    "cor-rs": _Identity(
        "r s k?", 1, lambda a, n: formulas.congruent_indicator(a.k, n, a.r, a.s),
        lambda a, n: f"n={n}, k={a.k}=r-s: class on size {n + a.k - 1}",
        k_default=lambda a: a.r - a.s),
    "cor-period": _Identity(
        "r s k?", 1, lambda a, n: formulas.congruent_periodic(a.k, n, a.r, a.s),
        lambda a, n: f"n={n}, k={a.k}=2r-s: class on size {n + a.k - 1}, period {6 * a.r}",
        k_default=lambda a: 2 * a.r - a.s),
    "thm4": _Identity(
        "k m", 1, lambda a, n: (
            formulas.guarded_signed_boxed if a.k >= 2 else formulas.guarded_signed_sum
        )(a.k, n, a.m),
        lambda a, n: f"n={n}, k={a.k}: signed compositions of {n + a.k - 1} with exactly "
        f"{a.m} guarded parts < {a.k}",
        row=lambda a, count: series.signed_values(
            series.guarded_series(a.k, a.m, -1, count + a.k - 1), a.k, count)),
    "thm4a": _Identity(
        "k m", 1, lambda a, n: (
            formulas.guarded_count_boxed if a.k >= 2 else formulas.guarded_count_sum
        )(a.k, n, a.m),
        lambda a, n: f"n={n}, k={a.k}: compositions of {n + a.k - 1} with exactly {a.m} "
        f"guarded parts < {a.k} (equivalently of {n} with {a.m} parts > {a.k} not 1 mod {a.k})",
        row=lambda a, count: list(
            series.guarded_series(a.k, a.m, 1, count + a.k - 1).coeffs[a.k:])),
    "thm4bar": _Identity(
        "k m", 1, lambda a, n: formulas.small_parts_signed(a.k, n, a.m),
        lambda a, n: f"n={n}, k={a.k}: signed compositions of {n + a.k - 1} with exactly "
        f"{a.m} parts < {a.k}",
        row=lambda a, count: series.signed_values(
            series.small_parts_series(a.k, count + a.k - 1, a.m).y_slice(a.m), a.k, count)),
    "distinct": _Identity("", 0, lambda a, n: compositions.signed_count_distinct(n)),
    "odd-parts": _Identity("", 0, lambda a, n: partition_theorems.odd_parts_signed(n)),
    "legendre": _Identity("", 0, lambda a, n: partition_theorems.legendre_closed(n)),
}
FORMULA_NAMES = tuple(name for name, ident in _IDENTITIES.items() if ident.note)


def _resolve(args: argparse.Namespace, ident: _Identity, context: str) -> argparse.Namespace:
    """Check the token's flags; the flags with any default --k filled in."""
    _flags(args, ident.flags, context)
    if ident.k_default is None or args.k is not None:
        return args
    return argparse.Namespace(**{**vars(args), "k": ident.k_default(args)})


# Indices, from the first, at which a row is checked against ``value``.
_SPOT_CHECKS = 32
# Most coefficients a row's series may compute, (count+k) x (m+1): the
# thm4bar table holds that many, and the thm4 series divides a row of
# count+k coefficients by m+1 factors.  A longer row, which a large k or m
# pads with slices nobody reads, is not built; its terms come from
# ``value``.  ``series thm4bar`` refuses a table of more cells than this.
_ROW_CELLS = 2_000_000


def sequence_terms(args: argparse.Namespace, count: int) -> list[int]:
    """The first ``count`` terms of the sequence named by ``args.seq``.

    ``args`` holds every token flag, None when absent, as the parser sets
    them.  A token with a ``row`` is served whole from it, once its first
    ``_SPOT_CHECKS`` terms agree with ``value``; a mismatch raises
    ArithmeticError.  Otherwise, and past ``_ROW_CELLS``, every term comes
    from ``value``, the last index first, so that a tallied class such as
    ``distinct`` is tallied once.
    """
    ident = _IDENTITIES[args.seq]
    first = ident.offset
    if count < 1:
        raise ValueError(f"empty index range {first}..{first + count - 1}")
    a = _resolve(args, ident, f"sequence {args.seq}")
    if ident.row is None or (count + a.k) * ((a.m or 0) + 1) > _ROW_CELLS:
        return [ident.value(a, n) for n in range(first + count - 1, first - 1, -1)][::-1]
    # closed form first, so that a bad parameter fails with its message
    spot = [ident.value(a, n) for n in range(first, first + min(count, _SPOT_CHECKS))]
    row = ident.row(a, count)
    for n, (want, got) in enumerate(zip(spot, row), start=first):
        if want != got:
            raise ArithmeticError(
                f"sequence {args.seq}: the generating function gives {got} at n={n}, "
                f"the closed form {want}")
    return row


# series token: (flags, expansion to --order)
_SERIES = {
    "thm2": ("k", lambda a: series.min_part_series(a.k, a.order)),
    "thm3": ("k r s", lambda a: series.congruent_series(a.k, a.r, a.s, a.order)),
    "cor-period": ("r", lambda a: series.periodic_series(a.r, a.order)),
    "thm4bar": ("k y_order?", lambda a: _small_parts_table(
        a.k, a.order, a.y_order if a.y_order is not None else 3)),
    "pentagonal": ("", lambda a: series.pentagonal_product(a.order)),
    "rational": ("num den", lambda a: series.expand_rational(
        _polynomial(a.num), _polynomial(a.den), a.order)),
}


def _small_parts_table(k: int, x_order: int, y_order: int) -> series.BivariateSeries:
    cells = (x_order + 1) * (y_order + 1)
    if cells > _ROW_CELLS:
        raise ValueError(
            f"series thm4bar to x^{x_order} y^{y_order} holds {cells} coefficients, "
            f"more than {_ROW_CELLS}")
    return series.small_parts_series(k, x_order, y_order)


def _polynomial(text: str) -> series.IntPolynomial:
    return series.IntPolynomial(tuple(int(t) for t in text.split(",")))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _no_bfile(args: argparse.Namespace) -> None:
    if args.fmt == "bfile":
        raise ValueError("--format bfile only applies to univariate series output")


def _cmd_count(args: argparse.Namespace) -> int:
    _no_bfile(args)
    cls = _composition_class(args)
    value = compositions.count_compositions(args.n, cls)
    if args.fmt == "csv":
        print("class,n,count")
        print(f"{args.class_name},{args.n},{value}")
    else:
        print(value)
    return 0


def _cmd_signed(args: argparse.Namespace) -> int:
    _no_bfile(args)
    cls = _composition_class(args)
    sc = compositions.signed_count(args.n, cls)
    if args.fmt == "csv":
        print("class,n,odd,even,diff")
        print(f"{args.class_name},{args.n},{sc.odd_count},{sc.even_count},{sc.diff}")
    else:
        print(f"odd={sc.odd_count} even={sc.even_count} diff={sc.diff}")
    return 0


def _cmd_formula(args: argparse.Namespace) -> int:
    _no_bfile(args)
    ident = _IDENTITIES[args.name]
    a = _resolve(args, ident, f"formula {args.name}")
    value = ident.value(a, args.n)
    print(f"note: {ident.note(a, args.n)}", file=sys.stderr)
    if args.fmt == "csv":
        flags = {f: getattr(args, f) for f in ("k", "r", "s", "m")}
        cols = ",".join("" if v is None else str(v) for v in flags.values())
        print("name,k,r,s,m,n,value")
        print(f"{args.name},{cols},{args.n},{value}")
    else:
        print(value)
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    if args.order < 0:
        raise ValueError(f"--order must be >= 0, got {args.order}")
    spec, expand = _SERIES[args.name]
    _flags(args, spec, f"series {args.name}")
    ts = expand(args)
    if isinstance(ts, series.BivariateSeries):
        if args.fmt == "csv":
            print("x,y,coefficient")
            for a in range(ts.x_order + 1):
                for b in range(ts.y_order + 1):
                    print(f"{a},{b},{ts.coeffs[a][b]}")
        elif args.fmt == "bfile":
            raise ValueError("--format bfile only applies to univariate series output")
        else:
            for b in range(ts.y_order + 1):
                print(f"y^{b}: " + ",".join(str(c) for c in ts.y_slice(b).coeffs))
    elif args.fmt == "csv":
        print("index,coefficient")
        for i, c in enumerate(ts.coeffs):
            print(f"{i},{c}")
    elif args.fmt == "bfile":
        sys.stdout.write(sequences.emit_bfile(ts.coeffs, 0))
    else:
        print(",".join(str(c) for c in ts.coeffs))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _no_bfile(args)
    fields = ("max_n", "max_k", "max_r", "max_m")
    axes = fields if args.name == "all" else overrides(args.name)
    _flags(args, " ".join(f + "?" for f in axes), f"verify {args.name}", known=fields)
    config = SweepConfig(jobs=args.jobs, **{f: getattr(args, f) for f in fields})
    if args.name != "all":
        report = run_check(args.name, config)
        sys.stdout.write(render_report(report, args.fmt))
        return 0 if report.passed else 1
    for name in CHECK_NAMES:  # an empty grid exits 2 before any sweep prints
        expand(name, config)
    # csv: stdout is one table, a row per sweep; the timed lines go to stderr
    csv = args.fmt == "csv"
    timed = sys.stderr if csv else sys.stdout
    failing = 0
    start = time.monotonic()
    for number, name in enumerate(CHECK_NAMES):
        t0 = time.monotonic()
        report = run_check(name, config)
        status = "pass" if report.passed else "FAIL"
        print(f"{name:12s} {status}  instances={report.instances:5d}  "
              f"{time.monotonic() - t0:6.2f}s", file=timed)
        failing += not report.passed
        if csv:
            header, row = render_report(report, "csv").splitlines(keepends=True)
            sys.stdout.write(row if number else header + row)
        elif not report.passed:
            sys.stdout.write(render_report(report, args.fmt))
    print(f"{len(CHECK_NAMES)} sweeps, {failing} failing, {time.monotonic() - start:.1f}s",
          file=timed)
    return 1 if failing else 0


def _cmd_period(args: argparse.Namespace) -> int:
    _no_bfile(args)
    vals = sequence_terms(args, args.max_n - _IDENTITIES[args.seq].offset + 1)
    found = sequences.detect_period(vals)
    if args.fmt == "csv":
        print("preperiod,period")
        if found is None:
            print("aperiodic,aperiodic")
        else:
            print(f"{found[0]},{found[1]}")
    else:
        if found is None:
            print(f"aperiodic within window of {len(vals)} terms")
        else:
            print(f"preperiod={found[0]} period={found[1]}")
    return 0


def _cmd_bfile(args: argparse.Namespace) -> int:
    if args.fmt != "plain":
        raise ValueError(f"bfile does not use --format {args.fmt}")
    offset = args.offset
    if offset is None:
        offset = _IDENTITIES[args.seq].offset

    if args.action == "emit":
        if args.max_n is None:
            raise ValueError("bfile emit requires --max-n (last index to emit)")
        text = sequences.emit_bfile(sequence_terms(args, args.max_n - offset + 1), offset)
        if args.file:
            with open(args.file, "w", encoding="ascii") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0

    # check
    if args.max_n is not None:
        raise ValueError("bfile check does not use --max-n")
    if not args.file:
        raise ValueError("bfile check requires --file")
    with open(args.file, "r", encoding="ascii") as fh:
        record = sequences.parse_bfile(fh.read())
    count = record.last_index - offset + 1
    if count < 1:
        raise ValueError(
            f"file indices end at {record.last_index}, before offset {offset}"
        )
    seq = sequences.IntegerSequence(offset, tuple(sequence_terms(args, count)))
    report = sequences.compare(seq, record)
    print(report.describe())
    return 0 if report.matched else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    rendering = argparse.ArgumentParser(add_help=False)
    rendering.add_argument(
        "--format",
        dest="fmt",
        choices=("plain", "csv", "bfile"),
        default="plain",
        help="output rendering",
    )
    common = argparse.ArgumentParser(add_help=False, parents=[rendering])
    for flag in ("k", "r", "s", "m"):
        common.add_argument(f"--{flag}", type=int, default=None)

    parser = argparse.ArgumentParser(
        prog="compparity",
        description=(
            "Length-parity counting of compositions and partitions with "
            "restricted parts: enumeration, closed formulas, generating "
            "functions and verification sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="count a composition class")
    p.add_argument("--class", dest="class_name", required=True, choices=CLASS_NAMES)
    p.add_argument("--n", type=int, required=True, help="composition size")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser(
        "signed", parents=[common], help="odd/even length tallies for a class"
    )
    p.add_argument("--class", dest="class_name", required=True, choices=CLASS_NAMES)
    p.add_argument("--n", type=int, required=True, help="composition size")
    p.set_defaults(handler=_cmd_signed)

    p = sub.add_parser("formula", parents=[common], help="evaluate a closed formula")
    p.add_argument("name", choices=FORMULA_NAMES)
    p.add_argument("--n", type=int, required=True, help="formula index n")
    p.set_defaults(handler=_cmd_formula)

    p = sub.add_parser("series", parents=[common], help="expand a generating function")
    p.add_argument("name", choices=tuple(_SERIES))
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--y-order", type=int, default=None)
    p.add_argument("--num", type=str, default=None, help="comma-separated coefficients")
    p.add_argument("--den", type=str, default=None, help="comma-separated coefficients")
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser(
        "verify", parents=[rendering], help="run a verification sweep, or all of them")
    p.add_argument("name", choices=CHECK_NAMES + ("all",))
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--max-r", type=int, default=None)
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("period", parents=[common], help="detect a period")
    p.add_argument("--seq", required=True, choices=tuple(_IDENTITIES))
    p.add_argument("--max-n", type=int, required=True, help="last index of the window")
    p.set_defaults(handler=_cmd_period)

    p = sub.add_parser("bfile", parents=[common], help="emit or check b-files")
    p.add_argument("action", choices=("emit", "check"))
    p.add_argument("--seq", required=True, choices=tuple(_IDENTITIES))
    p.add_argument("--offset", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None, help="last index to emit")
    p.add_argument("--file", type=str, default=None)
    p.set_defaults(handler=_cmd_bfile)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process; parsing does not change it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # two routes disagree: a failed check
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
