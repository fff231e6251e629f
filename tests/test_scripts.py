"""The b-file script as a user runs it: exit codes, error lines and rows."""

import os
import pathlib
import runpy
import subprocess
import sys

import pytest

from compparity import _automaton, compositions, partitions

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("terms", ["0", "-3"])
def test_emit_sequence_bfiles_rejects_empty_rows_with_exit_2(tmp_path, terms):
    out = tmp_path / "bfiles"
    proc = run_script("emit_sequence_bfiles.py", "--out", str(out), "--terms", terms)
    assert proc.returncode == 2
    assert proc.stderr == f"error: --terms must be >= 1, got {terms}\n"
    assert not out.exists()


def test_emit_sequence_bfiles_writes_the_cli_rows(tmp_path):
    out = tmp_path / "bfiles"
    proc = run_script("emit_sequence_bfiles.py", "--out", str(out), "--terms", "24")
    assert proc.returncode == 0, proc.stderr
    fixture = (ROOT / "tests" / "fixtures" / "minpart2_signed.txt").read_text()
    written = (out / "minpart2_signed.txt").read_text()
    assert written.splitlines()[1:] == [line for line in fixture.splitlines()
                                        if not line.startswith("#")][:24]


def test_emit_sequence_bfiles_reports_a_route_past_its_limit_with_exit_2(
        tmp_path, monkeypatch, capsys):
    def past_limit(n):
        raise ValueError(f"size {n} is past the tally limit")

    script = runpy.run_path(str(ROOT / "scripts" / "emit_sequence_bfiles.py"))
    monkeypatch.setattr(compositions, "signed_count_distinct", past_limit)
    out = tmp_path / "bfiles"
    monkeypatch.setattr(sys, "argv", ["emit_sequence_bfiles.py", "--out", str(out)])
    assert script["main"]() == 2
    assert capsys.readouterr().err == "error: size 59 is past the tally limit\n"
    assert not out.exists()


def test_emit_sequence_bfiles_tallies_each_enumerated_class_once(tmp_path, monkeypatch, tallies):
    script = runpy.run_path(str(ROOT / "scripts" / "emit_sequence_bfiles.py"))
    out = tmp_path / "bfiles"
    monkeypatch.setattr(sys, "argv", ["emit_sequence_bfiles.py", "--out", str(out),
                                      "--terms", "30"])
    assert script["main"]() == 0
    # the distinct-composition and odd-part rows, each tallied once to index 29
    assert [args[0] for args in tallies] == [29, 29]
    assert set(_automaton._COUNTS) == {
        ("compositions", compositions.DistinctParts(), None),
        ("partitions", partitions.OddParts(), partitions._flips_length),
    }
