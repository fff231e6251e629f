"""Command line interface.

Subcommands: count, signed, formula, series, verify, period, bfile.
``verify all`` runs every sweep and prints one line per sweep, a failing
sweep's report after its line, and a summary line; with ``--format csv``
stdout holds one csv table, a row per sweep, and the timed lines go to
stderr.
Exit codes: 0 success, 1 verification or comparison failure, 2 usage or
parameter error.  ``--format plain|csv|bfile`` selects rendering; bfile
rendering only applies to univariate series output, and ``bfile`` takes
plain only.  ``--format`` is checked first, before any work, for every
subcommand.  A ``series`` table, a sequence and a sweep's grid are charged
on ``compparity._budget`` at ``_CELL`` a cell before they are built, so an
output past the budget exits 2 at once.

Formula and verify subcommands index theorems by n while the underlying
composition class lives on size n+k-1; a note restating the actual size
is printed to stderr so stdout stays scriptable.

A class token is an entry of ``_CLASSES``.  Each formula, sequence and
series token is served by an entry of ``identities.IDENTITIES``, which
names its flags and the routes that serve it; ``series rational`` is the
CLI's own.  A missing flag, and a flag the token does not use, is a
parameter error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from collections.abc import Callable

from compparity import _budget, compositions, sequences, series
from compparity.identities import SEQUENCES, SERIES, Identity
from compparity.verify import (_CELL, CHECK_NAMES, SweepConfig, expand, overrides,
                               render_report, run_check)

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
# formula, sequence and series tokens: entries of ``identities.IDENTITIES``
# ---------------------------------------------------------------------------

FORMULA_NAMES = tuple(token for token, (*_, note) in SEQUENCES.items() if note)


def _resolve(args: argparse.Namespace, ident: Identity, quantity: str,
             context: str) -> tuple[tuple, int, str, Callable[[int], object]]:
    """Check the token's flags; its parameters, with a --k given in place of the
    default, their size shift, and the name of the route whose term at index n
    ``formula`` prints, with that term."""
    _flags(args, ident.flags, context)
    p, shift = ident.at([getattr(args, axis) for axis in ident.axes[:-1]], args.k)
    name = ident.value(*p) if callable(ident.value) else ident.value
    return p, shift, name, functools.partial(ident.route(quantity, name).value, *p)


def _fresh(fn: Callable, *lead: int, size: tuple[int, ...]):
    """``fn(*lead, *size)``, computed afresh: a command keeps no row."""
    return fn(*lead, *size)


# Indices, from the first, at which a row is checked against the per-n form.
_SPOT_CHECKS = 32


def sequence_terms(args: argparse.Namespace, count: int) -> list[int]:
    """The first ``count`` terms of the sequence named by ``args.seq``.

    ``args`` holds every token flag, None when absent, as the parser sets
    them.  The terms are charged on ``_budget`` at ``_CELL`` a term before
    any is computed.  A token with a row route is served whole from it,
    once its first ``_SPOT_CHECKS`` terms agree with the per-n form; a
    mismatch raises ArithmeticError, which names both routes.  The row's
    series computes (count+k) x (m+1) coefficients: the thm4bar table holds
    that many, and the thm4 series divides a row of count+k coefficients by
    m+1 factors.  A row past the budget at ``_CELL`` a coefficient, which a
    large k or m pads with slices nobody reads, is not built.  Then, and
    for a token with no row route, every term comes from the per-n form,
    the last index first, so that a tallied class such as ``distinct`` is
    tallied once.
    """
    ident, quantity, row, _ = SEQUENCES[args.seq]
    first = ident.first
    if count < 1:
        raise ValueError(f"empty index range {first}..{first + count - 1}")
    p, shift, name, value = _resolve(args, ident, quantity, f"sequence {args.seq}")
    _budget.charge(_CELL * count, "sequence {} of {} terms", args.seq, count)
    if row is None or _CELL * (count + p[0]) * ((args.m or 0) + 1) > _budget.LIMIT:
        return [value(n) for n in range(first + count - 1, first - 1, -1)][::-1]
    # closed form first, so that a bad parameter fails with its message
    spot = [value(n) for n in range(first, first + min(count, _SPOT_CHECKS))]
    terms = ident.route(quantity, row).values(_fresh, p, shift, range(first, first + count))
    for n, (want, got) in enumerate(zip(spot, terms), start=first):
        if want != got:
            raise ArithmeticError(
                f"sequence {args.seq}: the {row} gives {got} at n={n}, the {name} {want}")
    return terms


def _polynomial(text: str) -> series.IntPolynomial:
    return series.IntPolynomial(tuple(int(t) for t in text.split(",")))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

# the series tokens whose output is one row, the ones ``--format bfile`` renders
_UNIVARIATE = {"rational"} | {
    token for token, (_, spec, _) in SERIES.items() if "y_order?" not in spec}


def _check_format(args: argparse.Namespace) -> None:
    """Refuse a ``--format`` the command cannot render; ``main`` calls it first."""
    if args.command == "bfile" and args.fmt != "plain":
        raise ValueError(f"bfile does not use --format {args.fmt}")
    if args.fmt == "bfile" and not (args.command == "series" and args.name in _UNIVARIATE):
        raise ValueError("--format bfile only applies to univariate series output")


def _one_row(fmt: str, header: str, cells: tuple, plain: object) -> None:
    """Print a one-row table: the csv ``header`` and ``cells``, None as empty, or ``plain``."""
    if fmt == "csv":
        print(header)
        print(",".join("" if c is None else str(c) for c in cells))
    else:
        print(plain)


def _cmd_count(args: argparse.Namespace) -> int:
    value = compositions.count_compositions(args.n, _composition_class(args))
    _one_row(args.fmt, "class,n,count", (args.class_name, args.n, value), value)
    return 0


def _cmd_signed(args: argparse.Namespace) -> int:
    sc = compositions.signed_count(args.n, _composition_class(args))
    _one_row(args.fmt, "class,n,odd,even,diff",
             (args.class_name, args.n, sc.odd_count, sc.even_count, sc.diff),
             f"odd={sc.odd_count} even={sc.even_count} diff={sc.diff}")
    return 0


def _cmd_formula(args: argparse.Namespace) -> int:
    ident, quantity, _, note = SEQUENCES[args.name]
    p, _, _, per_n = _resolve(args, ident, quantity, f"formula {args.name}")
    # as text before the note, so that a value too long to print is refused alone
    value = str(per_n(args.n))
    print(f"note: {note(args.n, *p)}", file=sys.stderr)
    _one_row(args.fmt, "name,k,r,s,m,n,value",
             (args.name, args.k, args.r, args.s, args.m, args.n, value), value)
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    if args.order < 0:
        raise ValueError(f"--order must be >= 0, got {args.order}")
    if args.name == "rational":
        _flags(args, "num den", "series rational")
        build, lead = series.expand_rational, [_polynomial(args.num), _polynomial(args.den)]
    else:
        _, spec, attr = SERIES[args.name]
        _flags(args, spec, f"series {args.name}")
        build = getattr(series, attr)
        lead = [getattr(args, f) for f in spec.split() if not f.endswith("?")]
    orders = [args.order]
    if args.name not in _UNIVARIATE:  # a table to x^order y^y_order
        orders.append(3 if args.y_order is None else args.y_order)
    cells = math.prod(order + 1 for order in orders)
    _budget.charge(_CELL * cells, "series {} to {} ({} coefficients)", args.name,
                   " ".join(f"{v}^{order}" for v, order in zip("xy", orders)), cells)
    ts = build(*lead, *orders)
    if isinstance(ts, series.BivariateSeries):
        if args.fmt == "csv":
            print("x,y,coefficient")
            for a in range(ts.x_order + 1):
                for b in range(ts.y_order + 1):
                    print(f"{a},{b},{ts.coeffs[a][b]}")
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
    vals = sequence_terms(args, args.max_n - SEQUENCES[args.seq][0].first + 1)
    found = sequences.detect_period(vals)
    if found is None:
        _one_row(args.fmt, "preperiod,period", ("aperiodic", "aperiodic"),
                 f"aperiodic within window of {len(vals)} terms")
    else:
        _one_row(args.fmt, "preperiod,period", found,
                 f"preperiod={found[0]} period={found[1]}")
    return 0


def _cmd_bfile(args: argparse.Namespace) -> int:
    offset = args.offset
    if offset is None:
        offset = SEQUENCES[args.seq][0].first

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

    for name, handler, text in (("count", _cmd_count, "count a composition class"),
                                ("signed", _cmd_signed, "odd/even length tallies for a class")):
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument("--class", dest="class_name", required=True, choices=CLASS_NAMES)
        p.add_argument("--n", type=int, required=True, help="composition size")
        p.set_defaults(handler=handler)

    p = sub.add_parser("formula", parents=[common], help="evaluate a closed formula")
    p.add_argument("name", choices=FORMULA_NAMES)
    p.add_argument("--n", type=int, required=True, help="formula index n")
    p.set_defaults(handler=_cmd_formula)

    p = sub.add_parser("series", parents=[common], help="expand a generating function")
    p.add_argument("name", choices=tuple(SERIES) + ("rational",))
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--y-order", type=int, default=None)
    listed = "comma-separated coefficients; a list that starts with - needs =, as in --den=-1,2"
    p.add_argument("--num", type=str, default=None, help=listed)
    p.add_argument("--den", type=str, default=None, help=listed)
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
    p.add_argument("--seq", required=True, choices=tuple(SEQUENCES))
    p.add_argument("--max-n", type=int, required=True, help="last index of the window")
    p.set_defaults(handler=_cmd_period)

    p = sub.add_parser("bfile", parents=[common], help="emit or check b-files")
    p.add_argument("action", choices=("emit", "check"))
    p.add_argument("--seq", required=True, choices=tuple(SEQUENCES))
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
        _check_format(args)
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # two routes disagree: a failed check
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
