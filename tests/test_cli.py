"""Command line behavior: exact stdout, exit codes, file round trips."""

import os
import pathlib
import re
import resource
import subprocess
import sys
import time

import pytest

from compparity import cli, formulas
from compparity.verify import CHECK_NAMES

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_series_rational(capsys):
    code, out, _ = run_cli(
        capsys, "series", "rational", "--num", "1,-1", "--den", "1,-1,1", "--order", "7"
    )
    assert (code, out) == (0, "1,0,-1,-1,0,1,1,0\n")


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


def test_bfile_format_rejected_outside_series(capsys):
    code, _, err = run_cli(
        capsys, "count", "--class", "all", "--n", "4", "--format", "bfile"
    )
    assert code == 2
    assert "univariate series" in err


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


@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_verify_all_prints_a_failing_sweeps_report_after_its_line(capsys, monkeypatch, fmt):
    # comp2 is the only sweep whose routes read formulas.min_part_count
    right = formulas.min_part_count
    monkeypatch.setattr(formulas, "min_part_count",
                        lambda k, n: right(k, n) + ((k, n) == (2, 5)))
    code, out, _ = run_cli(capsys, "verify", "all", "--format", fmt)
    lines = out.splitlines()
    failing = [i for i, line in enumerate(lines) if " FAIL " in line]
    assert code == 1
    assert [lines[i].split()[0] for i in failing] == ["comp2"]
    ce = f"k=2 n=5: expected {right(2, 5)}, got {right(2, 5) + 1} (closed form vs enumeration)"
    report = {
        "plain": ['check=comp2 ranges="k=1..5 n=1..20" instances=100 status=fail',
                  f"counterexample: {ce}"],
        "csv": ["name,ranges,instances,status,counterexample",
                f'comp2,"k=1..5 n=1..20",100,fail,{ce.replace(",", ";")}'],
    }[fmt]
    assert lines[failing[0] + 1:failing[0] + 3] == report
    assert re.fullmatch(r"19 sweeps, 1 failing, \d+\.\ds", lines[-1])


@pytest.mark.parametrize("args, message", [
    (("--max-n", "-1"), "error: check thm1 has no instances over n=1..-1"),
    (("--jobs", "0"), "error: jobs must be >= 1, got 0"),
])
def test_verify_all_rejects_invalid_arguments_with_exit_2(capsys, args, message):
    code, out, err = run_cli(capsys, "verify", "all", *args)
    assert (code, out) == (2, "")
    assert err.startswith(message)


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
    "bfile emit --seq odd-parts --max-n 698",  # one past the edge of a one-state partition class
])
def test_sizes_past_the_tally_limit_exit_2_at_once(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv.split())
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: size ") and "tally limit" in err


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


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("m", range(4))
def test_thm4bar_row_equals_closed_form_at_every_index(k, m):
    row = cli.sequence_terms(seq_args("thm4bar", k=k, m=m), 150)
    assert row == [formulas.small_parts_signed(k, n, m) for n in range(1, 151)]


@pytest.mark.parametrize("argv", [
    "bfile emit --seq thm2 --k 2 --max-n 40",
    "period --seq thm2 --k 2 --max-n 40",
    "bfile check --seq thm2 --k 2 --file {fixtures}/minpart2_signed.txt",
])
def test_row_disagreeing_with_closed_form_exits_1(capsys, monkeypatch, argv):
    exact = formulas.min_part_signed
    monkeypatch.setattr(formulas, "min_part_signed", lambda k, n: exact(k, n) + (n == 7))
    code, out, err = run_cli(capsys, *argv.format(fixtures=ROOT / "tests" / "fixtures").split())
    assert (code, out) == (1, "")
    assert err.startswith("error: sequence thm2: ") and "at n=7" in err


def test_row_spot_check_stops_before_the_last_index(monkeypatch):
    exact = formulas.min_part_signed
    monkeypatch.setattr(formulas, "min_part_signed", lambda k, n: exact(k, n) + (n == 33))
    assert cli.sequence_terms(seq_args("thm2", k=2), 40) == [exact(2, n) for n in range(1, 41)]


def test_row_past_the_cell_limit_comes_from_the_closed_form(monkeypatch):
    monkeypatch.setattr(cli, "_ROW_CELLS", 100)
    monkeypatch.setattr(cli.series, "min_part_series", None)  # not called
    assert cli.sequence_terms(seq_args("thm2", k=2), 120) == [
        formulas.min_part_signed(2, n) for n in range(1, 121)]


# ---------------------------------------------------------------------------
# series tables sized by the output, not by a parameter
# ---------------------------------------------------------------------------

ADDRESS_SPACE = 1 << 30  # an oversized table fails to allocate under this cap


def run_capped_cli(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, "-m", "compparity.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
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
    assert proc.stderr == ("error: series thm4bar to x^5 y^1000000000 holds 6000000006 "
                           "coefficients, more than 2000000\n")


def test_series_thm4bar_cell_limit_edge(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_ROW_CELLS", 24)
    code, out, _ = run_cli(capsys, *"series thm4bar --k 2 --order 5 --y-order 3".split())
    assert (code, len(out.splitlines())) == (0, 4)
    code, out, err = run_cli(capsys, *"series thm4bar --k 2 --order 5 --y-order 4".split())
    assert (code, out) == (2, "")
    assert err.startswith("error: series thm4bar to x^5 y^4 holds 30 coefficients")
