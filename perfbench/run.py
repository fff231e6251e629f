#!/usr/bin/env python3
"""Benchmark of the compparity verifier: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweeps|sweeps-pool|rows \\
        [--seed N] [--seconds S] [--trace 0|1]

Every pass runs in a fresh interpreter (``worker.py``), so the per-process
caches of ``verify`` and ``series`` start cold, as they do for a CLI user.
A run repeats passes until the next one would end after ``--seconds``; it
always makes at least one.  Set-up-only interpreters run before and after
the passes, so that ``setup_s`` has several samples.  Each op's output is checked (``checks.py``).  With ``--trace 1`` one
more pass runs with every layer's entry points wrapped (``tracer.py``) and
the per-layer metrics are reported instead of the end-to-end ones.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print the same metrics by
name with their units.  The full record, with the machine and every
sample, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 10
RUN_BUDGET_S = 170  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer in tracer.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        if layer in ("compositions", "partitions"):
            units[f"{layer}.members"] = "count"
            units[f"{layer}.members_per_s"] = "1/s"
    units["series.coeffs"] = "count"
    units["series.coeffs_per_s"] = "1/s"
    units["verify.instances"] = "count"
    units["verify.pool_util"] = "ratio"
    for name in workloads.SWEEPS:
        units[f"verify.sweep.{name}.s"] = "s"
    units["cli.stdout_bytes"] = "bytes"
    for op_id in workloads.ROWS_OP_IDS:
        units[f"cli.op.{op_id}.s"] = "s"
    units["sequences.bytes"] = "bytes"
    units["trace.overhead_frac"] = "ratio"
    return units


def spawn(workload: str, seed: int, mode: str, deadline: float, trace: bool = False) -> dict:
    """Run one worker interpreter and return its JSON result.

    The worker is killed, with any processes it started, if it is still
    running at ``deadline`` (CLOCK_MONOTONIC).
    """
    cfg = {"workload": workload, "seed": seed, "mode": mode, "trace": trace}
    cfg["spawned"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, "-I", os.path.join(HERE, "worker.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
        start_new_session=True, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(0.0, deadline - cfg["spawned"]))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{mode} worker did not finish within the run's {RUN_BUDGET_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}:\n{err}")
    return json.loads(out.splitlines()[-1])


def items(workload: str, inputs: list, result: dict) -> int:
    if workload == "rows":
        return sum(op.items for op in inputs)
    return sum(op.get("instances", 0) for op in result["ops"])


def machine() -> dict:
    """nproc, Python version, commit (when the tree is a git checkout) and a
    digest of the program's sources, which names the code either way."""
    src = os.path.join(ROOT, "src", "compparity")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": h.hexdigest(),
    }


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads.import_program(ROOT)
    import checks

    inputs = workloads.make_inputs(workload, seed)
    checker = checks.Checker(workload, seed, inputs)
    deadline = time.clock_gettime(time.CLOCK_MONOTONIC) + RUN_BUDGET_S

    def probe_setup(count):
        # Half the probes run before the passes and half after, so that
        # they sample the machine's speed over the whole run.
        return [spawn(workload, seed, "setup", deadline)["setup_s"] for _ in range(count)]

    setups = probe_setup(SETUP_PROBES // 2)
    passes = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(spawn(workload, seed, "pass", deadline))
        last = time.monotonic() - t0
        if time.monotonic() - start + last > seconds:
            break
    setups += probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    traced = spawn(workload, seed, "pass", deadline, trace=True) if trace else None

    setups += [p["setup_s"] for p in passes]
    checked = passes + ([traced] if traced else [])
    failed_ops = [checker.failures(p["ops"]) for p in checked]
    attempted = sum(len(p["ops"]) for p in checked)
    failed = sum(len(f) for f in failed_ops)

    walls = [p["wall_s"] for p in passes]
    wall = statistics.median(walls)
    samples = {
        "setup_s": setups,
        "wall_s": walls,
        "items_per_s": [items(workload, inputs, p) / p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    if traced:
        layers = traced["layers"]
        layers["trace.overhead_frac"] = traced["wall_s"] / wall - 1
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs": passes[0]["jobs"],
        "params": checker.params if workload == "rows" else None,
        "inputs": [op.id for op in inputs] if workload == "rows" else inputs,
        "machine": machine(),
        "samples": samples,
        "traced_wall_s": traced["wall_s"] if traced else None,
        "failed_ops": failed_ops,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def report(rec: dict) -> None:
    m = rec["machine"]
    print(f"workload={rec['workload']} seed={rec['seed']} jobs={rec['jobs']} "
          f"passes={len(rec['samples']['wall_s'])} trace={int(rec['trace'])}")
    print(f"machine: nproc={m['nproc']} python={m['python']} commit={m['commit']} "
          f"src_sha256={m['src_sha256'][:16]}")
    if rec["params"]:
        print("params: " + " ".join(f"{k}={v}" for k, v in rec["params"].items()))
    for name, metric in rec["metrics"].items():
        n = len(rec["samples"].get(name, ()))
        note = f"  (median of {n})" if n else ""
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}{note}")
    frac = rec["failed"] / rec["attempted"]
    print(f"{'failed_frac':28s} {frac:.6g} ({rec['failed']}/{rec['attempted']} ops)")
    for i, ids in enumerate(rec["failed_ops"]):
        if ids:
            print(f"failed in pass {i}: {' '.join(ids)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(rec, fh, indent=1)
    report(rec)
    print(json.dumps({key: rec[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
