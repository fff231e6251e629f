"""Command line behavior: exact stdout, exit codes, file round trips."""

import contextlib
import csv
import io
import os
import pathlib
import re
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compparity import _budget, cli, compositions, formulas, identities, sequences, series
from compparity.verify import CHECK_NAMES

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the CPUs this process may run on, which bound `verify --jobs`
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def over_budget(what, cost):
    """The error line of work named ``what`` refused at ``cost`` units."""
    return (f"error: {what} needs at least {cost} units of work, "
            f"past the budget of {_budget.LIMIT}\n")


# the budget's refusal of a closed-form sum
SUM_OVER_BUDGET = (r"error: the sum of at least \d+ terms of C\(a, b\) with a <= \d+, "
                   r"min\(b, a-b\) <= \d+ needs at least \d+ units of work, "
                   r"past the budget of 80000000\n")


def test_signed_minpart(capsys):
    code, out, err = run_cli(capsys, "signed", "--class", "minpart", "--k", "2", "--n", "5")
    assert code == 0
    assert out == "odd=1 even=2 diff=-1\n"


def test_count_all(capsys):
    code, out, _ = run_cli(capsys, "count", "--class", "all", "--n", "4")
    assert (code, out) == (0, "8\n")


def test_count_csv(capsys):
    code, out, _ = run_cli(capsys, "count", "--class", "all", "--n", "4", "--format", "csv")
    assert code == 0
    assert out == "class,n,count\nall,4,8\n"


def test_count_missing_parameter(capsys):
    code, _, err = run_cli(capsys, "count", "--class", "minpart", "--n", "5")
    assert code == 2
    assert "requires --k" in err


def test_count_guarded(capsys):
    code, out, _ = run_cli(capsys, "count", "--class", "guarded", "--k", "2", "--m", "1", "--n", "5")
    assert (code, out) == (0, "1\n")


def test_formula_thm2(capsys):
    code, out, err = run_cli(capsys, "formula", "thm2", "--k", "2", "--n", "4")
    assert (code, out) == (0, "-1\n")
    # stdout stays scriptable; the size the class lives on goes to stderr
    assert "compositions of 5" in err


def test_formula_thm4bar(capsys):
    code, out, _ = run_cli(capsys, "formula", "thm4bar", "--k", "2", "--m", "1", "--n", "2")
    assert (code, out) == (0, "-2\n")


@pytest.mark.parametrize("argv, want", [
    ("formula thm4 --k 3 --m 2000 --n 5", "0\n"),
    ("formula thm4a --k 3 --m 2000 --n 5", "0\n"),
    ("bfile emit --seq thm4 --k 3 --m 2000 --max-n 2", "1 0\n2 0\n"),
])
def test_thm4_with_more_guarded_parts_than_the_recursion_limit(capsys, argv, want):
    # the row's series is cut at its order, so a huge m builds nothing
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv.split())
    assert time.perf_counter() - t0 < 0.25
    assert (code, out) == (0, want)


@pytest.mark.parametrize("argv, message", [
    # of the 28,926,430 partitions it would walk, the sizes count past
    # 16,000,000 // 16 before any is walked
    ("formula thm4 --k 12 --m 20 --n 400", "at least 1000001 terms"),
    # a weight row of 5 x 200,003 = 1,000,015 quadruple-sum terms, counted, not added
    ("formula thm4 --k 1 --m 4 --n 200010", "at least 1000015 terms"),
    ("formula thm4a --k 1 --m 4 --n 200010", "at least 1000015 terms"),
], ids=["boxed", "quadruple-thm4", "quadruple-thm4a"])
def test_boxed_form_past_its_term_limit_exits_2_at_once(argv, message):
    t0 = time.perf_counter()
    proc = run_capped_cli(*argv.split())
    assert time.perf_counter() - t0 < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: the sum of {message} ")
    assert re.fullmatch(SUM_OVER_BUDGET, proc.stderr)


@pytest.mark.parametrize("argv", [
    "formula thm2 --k 1 --n 20000",
    "formula munagi --k 1 --n 20000",
    "formula thm3 --k 1 --r 1 --s 0 --n 20000",
    "formula thm4bar --k 2 --m 1 --n 20000",
    # few terms, but binomials too long: 8,000 of them took 12 s
    "formula thm4 --k 2 --m 1 --n 16000",
    "formula thm4 --k 2 --m 1 --n 1000000",
    # each term of the (s, j) loop evaluates two binomials; charged as one,
    # these were served after 1.5 s
    "formula thm4 --k 2 --m 2000 --n 11647",
    "formula thm4a --k 2 --m 2000 --n 11647",
    # the sweep reads the row form, refused as its per-n call at n = 6000 is
    "verify thm1 --max-n 6000",
])
def test_binomial_sum_past_its_work_limit_exits_2_at_once(argv):
    # unbounded, the first three ran for over 60 s and the fourth for 39 s
    t0 = time.perf_counter()
    proc = run_capped_cli(*argv.split())
    assert time.perf_counter() - t0 < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert re.fullmatch(SUM_OVER_BUDGET, proc.stderr)


@pytest.mark.parametrize("argv, want", [
    # one term, C(n-1, 0), however large k and n are
    ("formula thm2 --k 1000000000 --n 1000000000", "1\n"),
    ("formula munagi --k 1000000000 --n 1000000000", "1\n"),
    ("formula thm3 --k 1000000000 --r 1 --s 0 --n 1000000000", "1\n"),
    # gcd(r, k+s) = 2 does not divide the odd target n-1-s, so no term
    ("formula thm3 --k 1 --r 2 --s 1 --n 1000000001", "0\n"),
    # 20 terms of width up to 19
    ("formula thm2 --k 1000000 --n 20000000", f"{formulas.min_part_signed(10 ** 6, 2 * 10 ** 7)}\n"),
])
def test_binomial_sum_of_few_narrow_terms_answers_at_once(capsys, argv, want):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv.split())
    assert time.perf_counter() - t0 < 0.25
    assert (code, out) == (0, want)


# every flag of a formula token, drawn over the whole range the CLI accepts
_FLAG_VALUES = st.integers(0, 40) | st.integers(0, 20_000) | st.integers(0, 10 ** 9)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_every_formula_answers_or_exits_2_within_2_s(data):
    name = data.draw(st.sampled_from(cli.FORMULA_NAMES))
    argv = ["formula", name, "--n", str(data.draw(_FLAG_VALUES))]
    for flag in identities.SEQUENCES[name][0].flags.split():
        if not flag.endswith("?") or data.draw(st.booleans()):
            argv += ["--" + flag.rstrip("?"), str(data.draw(_FLAG_VALUES))]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - t0 < 2.0, argv
    if code == 0:
        assert re.fullmatch(r"-?\d+\n", out.getvalue()), argv
    else:
        assert (code, out.getvalue()) == (2, ""), argv
        assert err.getvalue().startswith("error: "), argv


def test_formula_unknown_name(capsys):
    with pytest.raises(SystemExit):
        cli.main(["formula", "thm9", "--n", "1"])


def test_series_thm2(capsys):
    code, out, _ = run_cli(capsys, "series", "thm2", "--k", "2", "--order", "8")
    assert (code, out) == (0, "1,0,-1,-1,0,1,1,0,-1\n")


def test_series_bfile_format(capsys):
    code, out, _ = run_cli(
        capsys, "series", "thm2", "--k", "2", "--order", "3", "--format", "bfile"
    )
    assert (code, out) == (0, "0 1\n1 0\n2 -1\n3 -1\n")


def test_series_pentagonal_reaches_order_20000_within_2_s(capsys):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "series", "pentagonal", "--order", "20000")
    assert time.perf_counter() - t0 < 2.0
    assert (code, out) == (0, ",".join(map(str, series.pentagonal_rhs(20000).coeffs)) + "\n")


def test_series_pentagonal_reaches_order_100000_within_3_s():
    # timed in a child interpreter, its start included, as a user runs it
    t0 = time.perf_counter()
    proc = run_capped_cli("series", "pentagonal", "--order", "100000")
    assert time.perf_counter() - t0 < 3.0
    assert (proc.returncode, proc.stdout) == (
        0, ",".join(map(str, series.pentagonal_rhs(100000).coeffs)) + "\n")


@pytest.mark.parametrize("order, what, cost", [
    # one past the largest order the product is served at: 40,000,174 additions
    (121645, "the product to x^121645 (40000174 additions)", 2 * 40000174),
    # the row alone passes the budget, before the product is charged
    (1000000000, "series pentagonal to x^1000000000 (1000000001 coefficients)",
     40 * 1000000001),
])
def test_series_pentagonal_past_its_limit_exits_2_within_1_s(capsys, order, what, cost):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "series", "pentagonal", "--order", str(order))
    assert time.perf_counter() - t0 < 1.0
    assert (code, out, err) == (2, "", over_budget(what, cost))


def test_series_rational(capsys):
    code, out, _ = run_cli(
        capsys, "series", "rational", "--num", "1,-1", "--den", "1,-1,1", "--order", "7"
    )
    assert (code, out) == (0, "1,0,-1,-1,0,1,1,0\n")


def test_series_rational_takes_a_list_that_starts_with_a_minus_sign_after_equals(capsys):
    # argparse reads a separate value that starts with "-" and holds a comma
    # as an option, so only the "=" form passes it on
    argv = ["series", "rational", "--num", "1,2,3", "--order", "8"]
    code, out, _ = run_cli(capsys, *argv, "--den=-1,2,0,1")
    assert (code, out) == (0, "-1,-4,-11,-23,-50,-111,-245,-540,-1191\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--den", "-1,2,0,1"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "argument --den: expected one argument" in captured.err


def test_series_rational_nonunit_constant(capsys):
    code, _, err = run_cli(
        capsys, "series", "rational", "--num", "1", "--den", "2,1", "--order", "4"
    )
    assert code == 2
    assert "error:" in err


def test_series_bivariate(capsys):
    code, out, _ = run_cli(
        capsys, "series", "thm4bar", "--k", "2", "--order", "4", "--y-order", "1"
    )
    assert code == 0
    assert out == "y^0: 1,0,-1,-1,0\ny^1: 0,-1,0,2,2\n"


class Work(Exception):
    """Raised by a patched builder: the command started its work."""


UNIVARIATE_ONLY = "--format bfile only applies to univariate series output"
FIXTURE = str(ROOT / "tests" / "fixtures" / "minpart2_signed.txt")


FORMAT_REFUSALS = [
    ("count --class all --n 4", "bfile", UNIVARIATE_ONLY),
    ("signed --class minpart --k 2 --n 5", "bfile", UNIVARIATE_ONLY),
    ("formula thm2 --k 2 --n 4", "bfile", UNIVARIATE_ONLY),
    ("series thm4bar --k 2 --order 4", "bfile", UNIVARIATE_ONLY),
    ("series thm4bar --k 3 --order 999999 --y-order 1", "bfile", UNIVARIATE_ONLY),
    ("verify thm2", "bfile", UNIVARIATE_ONLY),
    ("verify all", "bfile", UNIVARIATE_ONLY),
    ("period --seq thm2 --k 2 --max-n 60", "bfile", UNIVARIATE_ONLY),
    ("bfile emit --seq thm2 --k 2 --max-n 3", "csv", "bfile does not use --format csv"),
    (f"bfile check --seq thm2 --k 2 --file {FIXTURE}", "bfile",
     "bfile does not use --format bfile"),
]


@pytest.mark.parametrize("argv, fmt, message", FORMAT_REFUSALS,
                         ids=[f"{argv.split(' --file')[0]} --format {fmt}"
                              for argv, fmt, _ in FORMAT_REFUSALS])
def test_format_is_refused_before_any_work(capsys, monkeypatch, argv, fmt, message):
    def work(*args, **kwargs):
        raise Work
    for module, name in [(series, "small_parts_series"), (cli, "sequence_terms"),
                         (cli, "run_check"), (cli, "_resolve"),
                         (compositions, "signed_count"), (compositions, "count_compositions"),
                         (sequences, "parse_bfile")]:
        monkeypatch.setattr(module, name, work)
    with pytest.raises(Work):  # a format it takes reaches the patched work
        cli.main(argv.split())
    capsys.readouterr()
    assert run_cli(capsys, *argv.split(), "--format", fmt) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    "series thm4bar --k 2 --order -1",
    "series thm4bar --order 4",
    "series thm4bar --k 2 --r 1 --order 4",
    "series thm4bar --k 2 --order 5 --y-order 1000000000",
    "series thm4bar --k 0 --order 4",
    "series thm4bar --k 2 --order 4 --y-order -1",
])
def test_series_format_error_comes_before_a_second_fault(capsys, argv):
    assert run_cli(capsys, *argv.split(), "--format", "bfile") == (
        2, "", f"error: {UNIVARIATE_ONLY}\n")


def test_period_periodic_sequence(capsys):
    code, out, _ = run_cli(capsys, "period", "--seq", "thm2", "--k", "2", "--max-n", "60")
    assert (code, out) == (0, "preperiod=0 period=6\n")


def test_period_aperiodic_sequence(capsys):
    code, out, _ = run_cli(capsys, "period", "--seq", "thm2", "--k", "3", "--max-n", "80")
    assert (code, out) == (0, "aperiodic within window of 80 terms\n")


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "cor-rs", "--max-n", "10")
    assert code == 0
    assert "status=pass" in out


def test_verify_jobs_match_serial(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "thm2", "--max-n", "8", "--max-k", "3")
    code2, out2, _ = run_cli(
        capsys, "verify", "thm2", "--max-n", "8", "--max-k", "3", "--jobs", "2"
    )
    assert (code1, code2) == (0, 0)
    assert out1 == out2


SWEEP_LINE = re.compile(r"(\S+) +(pass|FAIL)  instances= *\d+ +\d+\.\d\ds")


def test_verify_all_passes_every_sweep_in_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "all")
    lines = out.splitlines()
    assert code == 0
    assert [SWEEP_LINE.fullmatch(line).groups() for line in lines[:-1]] == [
        (name, "pass") for name in CHECK_NAMES
    ]
    assert re.fullmatch(r"19 sweeps, 0 failing, \d+\.\ds", lines[-1])


def plant_a_comp2_failure(monkeypatch):
    """Add 1 to comp2's closed form at k=2 n=5; the counterexample it gives."""
    # comp2 is the only sweep whose routes read formulas.min_part_count_row
    row = formulas.min_part_count_row

    def planted(k, count):
        values = row(k, count)
        if k == 2 and count >= 5:
            values[4] += 1
        return values

    monkeypatch.setattr(formulas, "min_part_count_row", planted)
    right = formulas.min_part_count(2, 5)
    return f"k=2 n=5: expected {right}, got {right + 1} (closed form vs enumeration)"


@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_verify_all_prints_a_failing_sweeps_report_after_its_line(capsys, monkeypatch, fmt):
    ce = plant_a_comp2_failure(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "all", "--format", fmt)
    assert code == 1
    if fmt == "csv":  # stdout is one table; the sweep lines and the summary go to stderr
        table, out = out.splitlines(), err
        assert table[0] == "name,ranges,instances,status,counterexample"
        assert table[1 + CHECK_NAMES.index("comp2")] == (
            f'comp2,"k=1..5 n=1..20",100,fail,{ce.replace(",", ";")}')
    lines = out.splitlines()
    failing = [i for i, line in enumerate(lines) if " FAIL " in line]
    assert [lines[i].split()[0] for i in failing] == ["comp2"]
    if fmt == "plain":
        assert lines[failing[0] + 1:failing[0] + 3] == [
            'check=comp2 ranges="k=1..5 n=1..20" instances=100 status=fail',
            f"counterexample: {ce}"]
    else:
        assert [SWEEP_LINE.fullmatch(line)[1] for line in lines[:-1]] == list(CHECK_NAMES)
    assert re.fullmatch(r"19 sweeps, 1 failing, \d+\.\ds", lines[-1])


def test_verify_all_csv_stdout_is_a_header_and_one_row_per_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert [len(row) for row in rows] == [5] * 20
    assert rows[0] == ["name", "ranges", "instances", "status", "counterexample"]
    assert [(row[0], row[3], row[4]) for row in rows[1:]] == [
        (name, "pass", "") for name in CHECK_NAMES]


@pytest.mark.parametrize("args, message", [
    (("--max-n", "-1"), "error: check thm1 has no instances over n=1..-1"),
    (("--jobs", "0"), "error: jobs must be >= 1, got 0"),
    (("--jobs", str(CPUS + 1)),
     f"error: jobs must be <= {CPUS}, the number of CPUs, got {CPUS + 1}"),
    # every grid is expanded before the first sweep prints its line
    (("--max-k", "0"), "error: check thm2 has no instances over k=1..0 n=1..20"),
], ids=["max-n-below-range", "no-jobs", "jobs-past-cpus", "max-k-empties-thm2"])
def test_verify_all_rejects_invalid_arguments_with_exit_2(capsys, monkeypatch, args, message):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    code, out, err = run_cli(capsys, "verify", "all", *args)
    assert (code, out) == (2, "")
    assert err.startswith(message)


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        assert run_cli(capsys, "formula", "thm2", "--k", "2", "--n", "4")[:2] == (0, "-1\n")
        assert run_cli(capsys, "count", "--class", "odd", "--n", "7")[:2] == (0, "13\n")
        assert built == [1]
    finally:
        cli._parser.cache_clear()


def test_bfile_emit_stdout(capsys):
    code, out, _ = run_cli(capsys, "bfile", "emit", "--seq", "thm2", "--k", "2", "--max-n", "6")
    assert (code, out) == (0, "1 1\n2 1\n3 0\n4 -1\n5 -1\n6 0\n")


def test_bfile_emit_with_offset(capsys):
    # renumber the same leading terms from a different starting index
    code, out, _ = run_cli(
        capsys, "bfile", "emit", "--seq", "distinct", "--offset", "1", "--max-n", "4"
    )
    assert (code, out) == (0, "1 1\n2 -1\n3 -1\n4 1\n")


def test_bfile_round_trip(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    code, _, _ = run_cli(
        capsys, "bfile", "emit", "--seq", "thm2", "--k", "2", "--max-n", "20",
        "--file", str(path),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "bfile", "check", "--seq", "thm2", "--k", "2", "--file", str(path)
    )
    assert code == 0
    assert "match over indices 1..20" in out


def test_bfile_check_detects_mismatch(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    run_cli(capsys, "bfile", "emit", "--seq", "thm2", "--k", "2", "--max-n", "12",
            "--file", str(path))
    text = path.read_text().replace("7 1", "7 5")
    path.write_text(text)
    code, out, _ = run_cli(
        capsys, "bfile", "check", "--seq", "thm2", "--k", "2", "--file", str(path)
    )
    assert code == 1
    assert "mismatch at index 7" in out


def test_bfile_check_missing_file(capsys):
    code, _, err = run_cli(capsys, "bfile", "check", "--seq", "thm2", "--k", "2")
    assert code == 2
    assert "requires --file" in err


def test_fixture_files_verify(capsys):
    import pathlib

    fixtures = pathlib.Path(__file__).parent / "fixtures"
    for seq, extra, name in [
        ("distinct", (), "a339435.txt"),
        ("odd-parts", (), "a081360.txt"),
        ("thm2", ("--k", "2"), "minpart2_signed.txt"),
    ]:
        code, out, _ = run_cli(
            capsys, "bfile", "check", "--seq", seq, *extra,
            "--file", str(fixtures / name),
        )
        assert code == 0, (name, out)


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify thm1 --max-n 0", "no instances over n=1..0"),
        ("verify thm1 --max-n -3", "no instances over n=1..-3"),
        ("verify thm4 --max-k 1", "no instances over k=2..1"),
        ("verify thm2 --max-k 0", "no instances over k=1..0"),
        ("verify thm2 --k 3", "unrecognized arguments: --k 3"),
        ("verify legendre --max-k 9", "verify legendre does not use --max-k"),
        ("formula thm2 --k 2 --n 4 --m 5", "formula thm2 does not use --m"),
        ("series pentagonal --k 4 --order 5", "series pentagonal does not use --k"),
        ("series thm2 --k 2 --y-order 7 --order 5", "series thm2 does not use --y-order"),
        ("period --seq legendre --k 3 --max-n 10", "sequence legendre does not use --k"),
        ("bfile emit --seq distinct --r 2 --max-n 5", "sequence distinct does not use --r"),
        ("bfile emit --seq thm2 --k 2 --max-n 3 --format csv", "bfile does not use --format csv"),
        ("bfile check --seq thm2 --k 2 --file tests/fixtures/minpart2_signed.txt --max-n 5",
         "bfile check does not use --max-n"),
        ("count --class all --k 5 --n 4", "class 'all' does not use --k"),
        ("signed --class minpart --k 2 --m 1 --n 4", "class 'minpart' does not use --m"),
    ],
)
def test_unused_flags_and_empty_grids_exit_2(capsys, argv, message):
    try:
        code = cli.main(argv.split())
    except SystemExit as exc:  # argparse rejects flags a subcommand never defines
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert message in captured.err


@pytest.mark.parametrize("argv, stderr", [
    ("count --class minpart --k 0 --n 5", "error: MinPart requires k >= 1, got k=0\n"),
    ("count --class congruent --k 1 --r 0 --s 0 --n 5",
     "error: MinPartCongruent requires r >= 1, got r=0\n"),
    ("count --class congruent --k 1 --r 2 --s 2 --n 5",
     "error: MinPartCongruent requires 0 <= s < r, got s=2, r=2\n"),
    ("count --class congruent --k 0 --r 2 --s 1 --n 5",
     "error: MinPartCongruent requires k >= 1, got k=0\n"),
    ("count --class small --k 0 --m 1 --n 3", "error: ExactSmall requires k >= 1, got k=0\n"),
    ("count --class small --k 2 --m -1 --n 3", "error: ExactSmall requires m >= 0, got m=-1\n"),
    ("count --class modone --k 0 --m 1 --n 3", "error: ModOneExcept requires k >= 1, got k=0\n"),
    ("count --class modone --k 2 --m -1 --n 3",
     "error: ModOneExcept requires m >= 0, got m=-1\n"),
])
def test_class_parameter_errors_exit_2_with_their_message(capsys, argv, stderr):
    assert run_cli(capsys, *argv.split()) == (2, "", stderr)


def test_optional_k_of_collapsed_identities(capsys):
    code, out, err = run_cli(capsys, "formula", "cor-period", "--k", "3", "--r", "2", "--s", "1",
                             "--n", "4")
    assert (code, out) == (0, "1\n")
    assert "k=3=2r-s" in err
    code, out, _ = run_cli(capsys, "period", "--seq", "cor-rs", "--k", "2", "--r", "3", "--s", "1",
                           "--max-n", "12")
    assert code == 0


def test_count_all_at_40_answers_at_once(capsys):
    code, out, _ = run_cli(capsys, "count", "--class", "all", "--n", "40")
    assert (code, out) == (0, "549755813888\n")


@pytest.mark.parametrize("argv", [
    "signed --class distinct --n 10000",
    "count --class all --n 100000",
    "bfile emit --seq odd-parts --max-n 849",  # one past the edge of the odd-part class
])
def test_sizes_past_the_tally_limit_exit_2_at_once(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv.split())
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: the tally to size \d+ of this class needs at least \d+ units "
                        r"of work, past the budget of 80000000\n", err)


@pytest.mark.parametrize("seq, max_n", [("distinct", 30), ("odd-parts", 60)])
def test_enumerated_sequences_tally_their_class_once(capsys, tallies, seq, max_n):
    code, out, _ = run_cli(capsys, "bfile", "emit", "--seq", seq, "--max-n", str(max_n))
    assert (code, len(out.splitlines())) == (0, max_n + 1)
    assert [args[0] for args in tallies] == [max_n]


def test_module_entry_point_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "compparity.cli", "count", "--class", "all", "--n", "5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "16\n", "")


def test_importing_the_cli_leaves_multiprocessing_unimported():
    # Every CLI call pays for its imports.  Only `verify --jobs N` with N > 1
    # needs a pool; the value classes need neither dataclasses (with inspect)
    # nor typing.  Without `site`, whose own imports would hide any of these.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, compparity.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    loaded = set(proc.stdout.split())
    assert "compparity.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "typing", "multiprocessing"})


# ---------------------------------------------------------------------------
# rows served from the generating function
# ---------------------------------------------------------------------------

def seq_args(seq, **flags):
    return cli.build_parser().parse_args(
        ["period", "--seq", seq, "--max-n", "1"]
        + [x for f, v in flags.items() for x in ("--" + f, str(v))])


@pytest.mark.parametrize("k", range(1, 7))
def test_thm2_row_equals_closed_form_at_every_index(k):
    row = cli.sequence_terms(seq_args("thm2", k=k), 300)
    assert row == [formulas.min_part_signed(k, n) for n in range(1, 301)]


@pytest.mark.parametrize("k", range(1, 7))
def test_munagi_row_equals_closed_form_at_every_index(k):
    row = cli.sequence_terms(seq_args("munagi", k=k), 150)
    assert row == [formulas.min_part_count(k, n) for n in range(1, 151)]


def test_thm3_row_reaches_index_5000_within_2_s(capsys):
    # term by term from congruent_signed, this row took 19.6 s
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, *"bfile emit --seq thm3 --k 3 --r 4 --s 0 --max-n 5000".split())
    assert time.perf_counter() - t0 < 2.0
    gf = series.signed_values(series.congruent_series(3, 4, 0, 5002), 3, 5000)
    assert (code, out) == (0, "".join(f"{n} {v}\n" for n, v in enumerate(gf, start=1)))


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("m", range(4))
def test_thm4bar_row_equals_closed_form_at_every_index(k, m):
    row = cli.sequence_terms(seq_args("thm4bar", k=k, m=m), 150)
    assert row == [formulas.small_parts_signed(k, n, m) for n in range(1, 151)]


@pytest.mark.parametrize("seq, boxed, quadruple", [
    ("thm4", formulas.guarded_signed_boxed, formulas.guarded_signed_sum),
    ("thm4a", formulas.guarded_count_boxed, formulas.guarded_count_sum),
], ids=["thm4", "thm4a"])
@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("m", range(5))
def test_thm4_rows_equal_closed_form_at_every_index(seq, boxed, quadruple, k, m):
    # k = 1 has only the quadruple sum, whose cost is cubic in the row length
    count, closed = (150, boxed) if k >= 2 else (60, quadruple)
    row = cli.sequence_terms(seq_args(seq, k=k, m=m), count)
    assert row == [closed(k, n, m) for n in range(1, count + 1)]


# the row's route and the per-n route it is spot-checked against: the
# token's row route, and the one its entry's ``value`` names at p
ROW_MISMATCHES = [
    ("bfile emit --seq thm2 --k 2 --max-n 40", "min_part_signed", 7, "series", "closed form"),
    ("period --seq thm2 --k 2 --max-n 40", "min_part_signed", 7, "series", "closed form"),
    ("bfile check --seq thm2 --k 2 --file {fixtures}/minpart2_signed.txt", "min_part_signed", 7,
     "series", "closed form"),
    ("bfile emit --seq thm3 --k 2 --r 3 --s 1 --max-n 20", "congruent_signed", 5,
     "recurrence", "closed form"),
    # boxed below k = 2: the sum is the per-n form
    ("bfile emit --seq thm4 --k 1 --m 1 --max-n 20", "guarded_signed_sum", 5,
     "series", "second closed form"),
]


@pytest.mark.parametrize("argv, planted, at, row, per_n", ROW_MISMATCHES,
                         ids=[case[0] for case in ROW_MISMATCHES])
def test_row_disagreeing_with_closed_form_exits_1(capsys, monkeypatch, argv, planted, at,
                                                   row, per_n):
    exact = getattr(formulas, planted)
    monkeypatch.setattr(formulas, planted, lambda k, n, *rest: exact(k, n, *rest) + (n == at))
    code, out, err = run_cli(capsys, *argv.format(fixtures=ROOT / "tests" / "fixtures").split())
    assert (code, out) == (1, "")
    seq = argv.split("--seq ")[1].split()[0]
    assert err.startswith(f"error: sequence {seq}: the {row} gives ")
    assert f" at n={at}, the {per_n} " in err


@pytest.mark.parametrize("argv, want", [
    ("bfile emit --seq odd-parts --max-n 849", 2),  # past the tally limit
    ("bfile emit --seq thm2 --k 2 --max-n 40", 1),  # the row fails its spot check
])
def test_failing_bfile_emit_leaves_no_file(tmp_path, capsys, monkeypatch, argv, want):
    exact = formulas.min_part_signed
    monkeypatch.setattr(formulas, "min_part_signed", lambda k, n: exact(k, n) + (n == 7))
    path = tmp_path / "b.txt"
    code, out, err = run_cli(capsys, *argv.split(), "--file", str(path))
    assert (code, out) == (want, "")
    assert err.startswith("error: ")
    assert not path.exists()


def test_row_spot_check_stops_before_the_last_index(monkeypatch):
    exact = formulas.min_part_signed
    monkeypatch.setattr(formulas, "min_part_signed", lambda k, n: exact(k, n) + (n == 33))
    assert cli.sequence_terms(seq_args("thm2", k=2), 40) == [exact(2, n) for n in range(1, 41)]


def test_row_past_the_cell_limit_comes_from_the_closed_form(monkeypatch):
    # 20 terms fit a budget of 100 cells, but the row pads them to 20 + k = 120
    monkeypatch.setattr(_budget, "LIMIT", 40 * 100)
    monkeypatch.setattr(cli.series, "min_part_series", None)  # not called
    assert cli.sequence_terms(seq_args("thm2", k=100), 20) == [
        formulas.min_part_signed(100, n) for n in range(1, 21)]


# ---------------------------------------------------------------------------
# series tables sized by the output, not by a parameter
# ---------------------------------------------------------------------------

ADDRESS_SPACE = 1 << 30  # an oversized table fails to allocate under this cap


def run_capped_cli(*argv, timeout=60):
    """The CLI in a child interpreter under ``ADDRESS_SPACE``.

    The child runs without development mode, whose debug allocator
    doubles the time of a long run, whatever flags run the tests.
    """
    env = {name: value for name, value in os.environ.items()
           if name not in ("PYTHONDEVMODE", "PYTHONMALLOC")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, "-m", "compparity.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE)),
    )


@pytest.mark.parametrize("argv, out", [
    ("series thm2 --k 1000000000 --order 5", "1,0,0,0,0,0\n"),
    ("series thm3 --k 2 --r 1000000000 --s 0 --order 5", "1,0,-1,0,1,0\n"),
    ("series cor-period --r 1000000000 --order 5", "1,0,0,0,0,0\n"),
])
def test_series_with_a_huge_exponent_answers_at_once(argv, out):
    proc = run_capped_cli(*argv.split())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


def test_series_thm4bar_past_the_cell_limit_exits_2():
    proc = run_capped_cli(*"series thm4bar --k 2 --order 5 --y-order 1000000000".split())
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == over_budget(
        "series thm4bar to x^5 y^1000000000 (6000000006 coefficients)", 40 * 6000000006)


def test_series_thm4bar_cell_limit_edge(capsys, monkeypatch):
    monkeypatch.setattr(_budget, "LIMIT", 40 * 24)
    code, out, _ = run_cli(capsys, *"series thm4bar --k 2 --order 5 --y-order 3".split())
    assert (code, len(out.splitlines())) == (0, 4)
    code, out, err = run_cli(capsys, *"series thm4bar --k 2 --order 5 --y-order 4".split())
    assert (code, out) == (2, "")
    assert err == over_budget("series thm4bar to x^5 y^4 (30 coefficients)", 40 * 30)


# (argv, what the budget names, the cells it charges): each output alone
# passes the budget; unbounded, the series crashed with a MemoryError
# under a 2 GB address space, the sequences ran past 20 s and the grids
# crashed after 5-9 s
OUTPUTS_PAST_THE_BUDGET = [
    ("series thm2 --k 2 --order 1000000000",
     "series thm2 to x^1000000000 (1000000001 coefficients)", 1000000001),
    ("series rational --num 1 --den 1,-1 --order 1000000000",
     "series rational to x^1000000000 (1000000001 coefficients)", 1000000001),
    ("series cor-period --r 2 --order 1000000000",
     "series cor-period to x^1000000000 (1000000001 coefficients)", 1000000001),
    ("bfile emit --seq legendre --max-n 100000000",
     "sequence legendre of 100000001 terms", 100000001),  # from n = 0
    ("bfile emit --seq cor-rs --r 2 --s 1 --max-n 100000000",
     "sequence cor-rs of 100000000 terms", 100000000),
    ("period --seq cor-period --r 2 --s 1 --max-n 100000000",
     "sequence cor-period of 100000000 terms", 100000000),
    ("verify legendre --max-n 100000000", "check legendre over 100000001 points", 100000001),
    ("verify thm1 --max-n 100000000", "check thm1 over 100000000 points", 100000000),
    # every grid is expanded before any sweep runs; thm1's is the first
    ("verify all --max-n 100000000", "check thm1 over 100000000 points", 100000000),
]


@pytest.mark.parametrize("argv, what, cells", OUTPUTS_PAST_THE_BUDGET,
                         ids=[case[0] for case in OUTPUTS_PAST_THE_BUDGET])
def test_an_output_past_the_budget_exits_2_at_once(argv, what, cells):
    t0 = time.perf_counter()
    proc = run_capped_cli(*argv.split(), timeout=2)
    assert time.perf_counter() - t0 < 2.0
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", over_budget(what, 40 * cells))
