#!/usr/bin/env python3
"""Run every verification sweep at its default ranges and print a table.

Exits 1 if any sweep finds a counterexample, and 2 with an ``error:`` line
on an invalid argument (a --jobs below 1, a --max-n that leaves a sweep
no instances), as the compparity CLI does.  Use --jobs to spread
instances over worker processes; reports are identical either way.
"""

import argparse
import sys
import time

from compparity.verify import CHECK_NAMES, SweepConfig, render_report, run_check


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--max-n", type=int, default=None, help="override every sweep's n range")
    ap.add_argument("--format", choices=("plain", "csv"), default="plain")
    args = ap.parse_args()
    try:
        return run_all(SweepConfig(max_n=args.max_n, jobs=args.jobs), args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_all(config: SweepConfig, fmt: str) -> int:
    failures = 0
    t_all = time.monotonic()
    for name in CHECK_NAMES:
        t0 = time.monotonic()
        report = run_check(name, config)
        dt = time.monotonic() - t0
        status = "pass" if report.passed else "FAIL"
        print(f"{name:12s} {status}  instances={report.instances:5d}  {dt:6.2f}s")
        if not report.passed:
            failures += 1
            sys.stdout.write(render_report(report, fmt))
    total = time.monotonic() - t_all
    print(f"{len(CHECK_NAMES)} sweeps, {failures} failing, {total:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
