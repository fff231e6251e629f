"""The batch scripts as a user runs them: exit codes and error lines."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("args, message", [
    (("--max-n", "-1"), "error: check thm1 has no instances over n=1..-1"),
    (("--jobs", "0"), "error: jobs must be >= 1, got 0"),
])
def test_run_all_checks_rejects_invalid_arguments_with_exit_2(args, message):
    proc = run_script("run_all_checks.py", *args)
    assert proc.returncode == 2
    assert proc.stderr.startswith(message)
    assert "Traceback" not in proc.stderr
