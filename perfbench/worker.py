"""One pass of a workload in a fresh interpreter; ``run.py`` starts it.

Argument: a JSON object with ``workload``, ``seed``, ``mode``
("setup" or "pass"), ``trace`` and ``spawned`` (CLOCK_MONOTONIC when the
parent started this process).  Prints one JSON line: ``setup_s`` (process
start until compparity is imported and the inputs are generated) and, for
a pass, its wall time, CPU time of this process and its children, peak
resident memory, every op's output and, when traced, per-layer metrics.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_kb() -> int:
    """Peak RSS of this process or of its largest child, in KiB.

    Linux carries ``ru_maxrss`` of RUSAGE_SELF across exec, so it reports
    at least the peak of the process that started this one; the VmHWM
    line of /proc/self/status is this image's own peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def run_sweeps(verify, order, jobs):
    ops = []
    config = verify.SweepConfig(jobs=jobs)
    for name in order:
        op = {"id": name}
        try:
            report = verify.run_check(name, config)
            op.update(report=verify.render_report(report), instances=report.instances,
                      passed=report.passed)
        except Exception as exc:  # an op that raises counts as failed
            op["error"] = repr(exc)
        ops.append(op)
    return ops


def run_rows(cli, ops):
    out = []
    for op in ops:
        buf = io.StringIO()
        rec = {"id": op.id}
        try:
            with contextlib.redirect_stdout(buf):
                rec["rc"] = cli.main(list(op.argv))
        except (Exception, SystemExit) as exc:  # argparse exits via SystemExit
            rec["error"] = repr(exc)
        rec["stdout"] = buf.getvalue()
        out.append(rec)
    return out


def main() -> int:
    cfg = json.loads(sys.argv[1])
    workloads.import_program(ROOT)
    workload = cfg["workload"]
    inputs = workloads.make_inputs(workload, cfg["seed"])
    if workload == "rows":
        from compparity import cli as entry
    else:
        from compparity import verify as entry
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - cfg["spawned"]
    result = {"setup_s": setup_s}
    if cfg["mode"] == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if cfg["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(f"{workload}:seed{cfg['seed']}:pid{os.getpid()}")
        tracer.install()
    jobs = workloads.jobs(workload)
    self0, child0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    if workload == "rows":
        ops = run_rows(entry, inputs)
    else:
        ops = run_sweeps(entry, inputs, jobs)
    wall = time.perf_counter() - t0
    child_cpu = _cpu(resource.RUSAGE_CHILDREN) - child0
    cpu = _cpu(resource.RUSAGE_SELF) - self0 + child_cpu
    result.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=_peak_rss_kb() / 1024, jobs=jobs, ops=ops)

    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer_metrics(tracing, tracer, workload, inputs, ops, jobs, child_cpu)
        out_dir = os.path.join(HERE, "results")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{workload}-seed{cfg['seed']}.jsonl"))
    print(json.dumps(result))
    return 0


def tracer_metrics(tracing, tracer, workload, inputs, ops, jobs, child_cpu):
    """Layer metrics of the traced pass, with the per-sweep and per-op times.

    Metrics of the other workloads' ops read 0, so that every traced run
    reports the same set.
    """
    metrics = tracing.layer_metrics(tracer.spans)
    metrics.update({f"verify.sweep.{name}.s": 0.0 for name in workloads.SWEEPS})
    metrics.update({f"cli.op.{op_id}.s": 0.0 for op_id in workloads.ROWS_OP_IDS})
    top = [s for s in tracer.spans if s.parent is None]
    checks = [s for s in top if s.name == "verify.run_check"]
    if workload == "rows":
        calls = [s for s in top if s.name == "cli.main"]
        metrics.update({f"cli.op.{op.id}.s": s.end - s.start for op, s in zip(inputs, calls)})
    else:
        metrics.update({f"verify.sweep.{name}.s": s.end - s.start
                        for name, s in zip(inputs, checks)})
    sweep_wall = sum(s.end - s.start for s in checks)
    metrics["verify.pool_util"] = child_cpu / (jobs * sweep_wall) if jobs > 1 and sweep_wall else 0.0
    metrics["cli.stdout_bytes"] = sum(len(op.get("stdout", "")) for op in ops)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
