"""Golden CLI outputs: stdout, stderr and exit code of every subcommand.

``fixtures/cli_golden.json`` holds one record per invocation.  The test
replays each record in-process and requires byte-identical output, so a
refactor of the CLI or of the sweep definitions cannot change what a user
sees.  ``{fixtures}`` in an argument stands for the fixture directory.

The fixture is written once and then left alone; to write it from the
current code run ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import json
import pathlib
import sys

import pytest

from compparity import cli

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"

CLASSES = [
    ("all", ("--n", "5")),
    ("minpart", ("--k", "2", "--n", "6")),
    ("congruent", ("--k", "2", "--r", "3", "--s", "1", "--n", "9")),
    ("distinct", ("--n", "7")),
    ("odd", ("--n", "7")),
    ("small", ("--k", "3", "--m", "1", "--n", "8")),
    ("guarded", ("--k", "2", "--m", "1", "--n", "7")),
    ("modone", ("--k", "3", "--m", "1", "--n", "8")),
]

FORMULAS = [
    ("thm2", "--k 3 --n 7"),
    ("munagi", "--k 3 --n 7"),
    ("thm3", "--k 2 --r 3 --s 1 --n 9"),
    ("cor-rs", "--r 3 --s 1 --n 3"),
    ("cor-rs", "--k 2 --r 3 --s 1 --n 2"),
    ("cor-period", "--r 2 --s 1 --n 5"),
    ("cor-period", "--k 3 --r 2 --s 1 --n 5"),
    ("thm4", "--k 3 --m 1 --n 9"),
    ("thm4", "--k 1 --m 1 --n 6"),
    ("thm4a", "--k 3 --m 1 --n 9"),
    ("thm4a", "--k 1 --m 1 --n 6"),
    ("thm4bar", "--k 2 --m 1 --n 5"),
]

SERIES = [
    ("thm2", "--k 2 --order 10", ("plain", "csv", "bfile")),
    ("thm3", "--k 2 --r 3 --s 1 --order 10", ("plain", "csv", "bfile")),
    ("cor-period", "--r 2 --order 12", ("plain", "csv", "bfile")),
    ("thm4bar", "--k 2 --order 5 --y-order 2", ("plain", "csv")),
    ("thm4bar", "--k 3 --order 4", ("plain",)),
    ("pentagonal", "--order 15", ("plain", "csv", "bfile")),
    ("rational", "--num 1,-1 --den 1,-1,1 --order 7", ("plain", "csv", "bfile")),
]

SEQUENCES = [
    ("thm2", "--k 2"),
    ("munagi", "--k 2"),
    ("thm3", "--k 2 --r 3 --s 1"),
    ("cor-rs", "--r 3 --s 1"),
    ("cor-period", "--r 2 --s 1"),
    ("thm4", "--k 2 --m 1"),
    ("thm4", "--k 1 --m 1"),
    ("thm4a", "--k 2 --m 1"),
    ("thm4a", "--k 1 --m 1"),
    ("thm4bar", "--k 2 --m 1"),
    ("distinct", ""),
    ("odd-parts", ""),
    ("legendre", ""),
]

SWEEPS = [
    ("thm1", "--max-n 8"),
    ("thm2", "--max-k 2 --max-n 6"),
    ("thm3", "--max-k 2 --max-r 2 --max-n 5"),
    ("cor-rs", "--max-r 3 --max-n 6"),
    ("cor-period", "--max-r 2 --max-n 6"),
    ("thm4", "--max-k 3 --max-m 1 --max-n 6"),
    ("thm4bar", "--max-k 2 --max-m 1 --max-n 6"),
    ("comp1", "--max-n 10"),
    ("comp2", "--max-k 3 --max-n 8"),
    ("comp3", "--max-k 3 --max-m 1 --max-n 8"),
    ("legendre", "--max-n 15"),
    ("pentagonal", "--max-n 30"),
    ("euler", "--max-n 12"),
    ("glaisher", "--max-k 3 --max-n 12"),
    ("franklin", "--max-k 2 --max-m 1 --max-n 10"),
    ("nyirenda-d", "--max-r 2 --max-n 15"),
    ("nyirenda-c", "--max-r 2 --max-n 15"),
    ("andrews", "--max-k 2 --max-n 12"),
    ("andrews-d", "--max-m 2 --max-n 12"),
    ("andrews-d", "--max-m 0 --max-n 8"),
]

# Parameter errors (exit 2) whose messages are part of the interface.
ERRORS = [
    "count --class minpart --n 5",
    "count --class congruent --k 2 --n 5",
    "count --class small --k 2 --n 5",
    "signed --class guarded --n 5",
    "signed --class modone --k 2 --n 5",
    "count --class all --n 4 --format bfile",
    "count --class bogus --n 4",
    "formula thm2 --n 4",
    "formula thm3 --k 2 --n 4",
    "formula cor-rs --n 3",
    "formula cor-period --r 2 --n 3",
    "formula thm4 --k 2 --n 3",
    "formula thm4bar --m 1 --n 3",
    "formula thm2 --n 4 --format bfile",
    "formula thm2 --k 0 --n 4",
    "formula thm9 --n 1",
    "series thm2 --order 5",
    "series thm3 --k 2 --order 5",
    "series cor-period --order 5",
    "series thm4bar --order 5",
    "series thm2 --k 2 --order -1",
    "series rational --order 5",
    "series rational --num 1 --den 2,1 --order 4",
    "series thm4bar --k 2 --order 4 --format bfile",
    "series thm9 --order 4",
    "period --seq thm2 --max-n 10",
    "period --seq thm3 --k 2 --max-n 10",
    "period --seq thm2 --k 2 --max-n 0",
    "period --seq legendre --max-n 10 --format bfile",
    "period --seq bogus --max-n 10",
    "bfile emit --seq thm2 --k 2",
    "bfile emit --seq thm2 --max-n 5",
    "bfile emit --seq thm2 --k 2 --offset 5 --max-n 3",
    "bfile emit --seq bogus --max-n 3",
    "bfile check --seq thm2 --k 2",
    "bfile check --seq distinct --offset 30 --file {fixtures}/a339435.txt",
    "bfile check --seq legendre --file no-such-file.txt",
    "verify thm2 --max-n 4 --format bfile",
    "verify thm2 --max-n 4 --jobs 0",
]


def invocations() -> list[list[str]]:
    out: list[list[str]] = []
    for cmd in ("count", "signed"):
        for name, flags in CLASSES:
            for fmt in ("plain", "csv"):
                out.append([cmd, "--class", name, *flags, "--format", fmt])
    for name, flags in FORMULAS:
        for fmt in ("plain", "csv"):
            out.append(["formula", name, *flags.split(), "--format", fmt])
    for name, flags, fmts in SERIES:
        for fmt in fmts:
            out.append(["series", name, *flags.split(), "--format", fmt])
    for name, flags in SEQUENCES:
        out.append(["period", "--seq", name, *flags.split(), "--max-n", "30"])
        out.append(["bfile", "emit", "--seq", name, *flags.split(), "--max-n", "12"])
    out.append(["period", "--seq", "thm2", "--k", "2", "--max-n", "24", "--format", "csv"])
    out.append(["period", "--seq", "distinct", "--max-n", "24", "--format", "csv"])
    out.append(["bfile", "emit", "--seq", "distinct", "--offset", "1", "--max-n", "6"])
    out.append(["bfile", "emit", "--seq", "thm2", "--k", "2", "--offset", "0", "--max-n", "5"])
    for seq, extra, name in [
        ("distinct", (), "a339435.txt"),
        ("odd-parts", (), "a081360.txt"),
        ("thm2", ("--k", "2"), "minpart2_signed.txt"),
    ]:
        out.append(["bfile", "check", "--seq", seq, *extra, "--file", "{fixtures}/" + name])
    for name, flags in SWEEPS:
        for fmt in ("plain", "csv"):
            out.append(["verify", name, *flags.split(), "--format", fmt])
    out.extend(line.split() for line in ERRORS)
    return out


def run(argv: list[str], capsys) -> dict:
    real = [a.replace("{fixtures}", str(FIXTURES)) for a in argv]
    try:
        code = cli.main(real)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return {"argv": argv, "code": code, "stdout": captured.out, "stderr": captured.err}


def _records() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_fixture_covers_every_invocation():
    assert [r["argv"] for r in _records()] == invocations()


@pytest.mark.parametrize("record", _records(), ids=lambda r: " ".join(r["argv"]))
def test_golden_output(record, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps usage to the terminal
    assert run(record["argv"], capsys) == record


if __name__ == "__main__":
    import os

    class _Capture:
        """Just enough of pytest's capsys to record outside pytest."""

        def __init__(self):
            import io

            self.io = io
            self.reset()

        def reset(self):
            sys.stdout, sys.stderr = self.io.StringIO(), self.io.StringIO()

        def readouterr(self):
            out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
            self.reset()
            return type("Captured", (), {"out": out, "err": err})

    os.environ["COLUMNS"] = "100"
    real_out, real_err = sys.stdout, sys.stderr
    cap = _Capture()
    records = [run(argv, cap) for argv in invocations()]
    sys.stdout, sys.stderr = real_out, real_err
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}")
