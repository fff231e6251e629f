#!/usr/bin/env python3
"""Record ``reference.json`` from the program as it stands.

    python3 perfbench/make_reference.py

Records each sweep's default-grid report and instance count, and the
stdout digest of every rows op for the default seed, after checking those
outputs against the second-route values in ``checks.py``.  The file pins
today's outputs: regenerate it only when an output is meant to change,
never to make a failing check pass.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    workloads.import_program(os.path.dirname(HERE))
    import checks
    from compparity import cli, verify

    sweeps = {}
    for op in worker.run_sweeps(verify, workloads.SWEEPS, jobs=1):
        if "error" in op or not op["passed"] or op["instances"] < 1:
            raise SystemExit(f"sweep {op['id']} does not pass: {op}")
        sweeps[op["id"]] = {"instances": op["instances"], "report": op["report"]}

    seed = workloads.DEFAULT_SEED
    params = workloads.draw_params(seed)
    inputs = workloads.make_inputs("rows", seed)
    digests = {}
    for op, rec in zip(inputs, worker.run_rows(cli, inputs)):
        if not checks.rows_op_ok(op, rec, checks.rows_reference(op, params, seed), None):
            raise SystemExit(f"rows op {op.id} disagrees with its check route")
        digests[op.id] = checks.digest(rec["stdout"])

    ref = {"sweeps": sweeps, "rows": {"seed": seed, "params": params, "digests": digests}}
    with open(checks.REFERENCE, "w", encoding="ascii") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
