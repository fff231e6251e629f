"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

workloads.import_program(ROOT)


def test_self_time_of_a_synthetic_span_tree():
    #   a [0, 10]
    #   |- b [1, 4]      (layer formulas)
    #   |  `- c [2, 3]
    #   `- d [5, 9]
    spans = [
        tracer.Span(0, None, "cli.main", "cli", 0.0, 10.0),
        tracer.Span(1, 0, "formulas.f", "formulas", 1.0, 4.0),
        tracer.Span(2, 1, "series.g", "series", 2.0, 3.0),
        tracer.Span(3, 0, "formulas.h", "formulas", 5.0, 9.0),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    m = tracer.layer_metrics(spans)
    assert (m["cli.calls"], m["cli.self_s"]) == (1, 3.0)
    assert (m["formulas.calls"], m["formulas.self_s"]) == (2, 6.0)
    assert (m["series.calls"], m["series.self_s"]) == (1, 1.0)
    assert m["compositions.self_s"] == 0.0


def test_tracer_wraps_reexports_and_from_imports_and_restores_them():
    import compparity
    from compparity import compositions, formulas, series

    original = compositions.signed_count
    t = tracer.Tracer("test")
    t.install()
    try:
        assert compparity.signed_count is compositions.signed_count is not original
        assert series.congruent_periodic is formulas.congruent_periodic
        assert formulas.binomial.__name__ == "binomial" and not hasattr(
            formulas.binomial, "__wrapped__")
        compparity.signed_count(5, compositions.MinPart(2))
    finally:
        t.uninstall()
    assert compparity.signed_count is original is compositions.signed_count
    assert [(s.name, s.work) for s in t.spans] == [("compositions.signed_count", 3)]


def test_same_seed_same_inputs_and_other_seed_other_rows_params():
    for w in workloads.WORKLOADS:
        assert workloads.make_inputs(w, 7) == workloads.make_inputs(w, 7)
    assert sorted(workloads.make_inputs("sweeps", 7)) == sorted(workloads.SWEEPS)
    assert workloads.draw_params(1) != workloads.draw_params(2)
    draws = [workloads.draw_params(seed) for seed in range(40)]
    assert len({tuple(d.values()) for d in draws}) > 10
    assert all(d["k"] + d["s"] != d["r"] for d in draws)


def _sweep_op(name, ref):
    want = ref["sweeps"][name]
    return {"id": name, "report": want["report"], "instances": want["instances"], "passed": True}


def test_zero_instance_sweep_and_wrong_report_count_as_failed():
    ref = checks.load_reference()
    assert checks.sweep_ok(_sweep_op("thm2", ref), ref)
    zero = dict(_sweep_op("thm2", ref), instances=0,
                report='check=thm2 ranges="k=1..6 n=1..-3" instances=0 status=pass\n')
    assert not checks.sweep_ok(zero, ref)
    assert not checks.sweep_ok(dict(_sweep_op("thm2", ref), instances=119), ref)
    assert not checks.sweep_ok({"id": "thm2", "error": "ValueError()"}, ref)

    checker = checks.Checker("sweeps", 1, workloads.make_inputs("sweeps", 1))
    ops = [_sweep_op(name, ref) for name in checker.inputs]
    assert checker.failures(ops) == []
    ops[3] = dict(ops[3], instances=0)
    assert checker.failures(ops) == [ops[3]["id"]]
    assert checker.failures(ops[:-1]) == [ops[3]["id"], checker.inputs[-1]]


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 5])
def test_corrupted_rows_output_counts_as_failed(seed):
    from compparity import cli

    # the small ops are enough to exercise each parser
    inputs = [op for op in workloads.make_inputs("rows", seed) if op.items <= 1100]
    checker = checks.Checker("rows", seed, inputs)
    for op, rec in zip(inputs, worker.run_rows(cli, inputs)):
        assert checker.op_ok(rec), op.id
        text = rec["stdout"]
        if op.id.startswith("period"):
            bad = text.replace("=", "=1", 1)
        else:  # add one to the last value printed
            last = text.rstrip("\n").rsplit(",", 1)[-1].rsplit(" ", 1)[-1]
            bad = text[: text.rfind(last)] + str(int(last) + 1) + "\n"
        assert not checker.op_ok(dict(rec, stdout=bad)), op.id
        assert not checker.op_ok(dict(rec, stdout=text[:-1])), op.id
        assert not checker.op_ok(dict(rec, rc=2)), op.id


def test_small_parts_slice_matches_the_formula():
    from compparity import formulas

    for k in (1, 2, 3, 5):
        for m in (0, 1, 3):
            gf = checks._small_parts_slice(k, m, 40 + k - 1)
            assert [-gf[n + k - 1] for n in range(1, 41)] == [
                formulas.small_parts_signed(k, n, m) for n in range(1, 41)]


def test_benchmark_json_declares_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    # sweeps-pool runs by hand only: see "Workloads" in perfbench/README.md.
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in workloads.WORKLOADS if w != "sweeps-pool"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_reference_covers_every_sweep_and_rows_op():
    ref = checks.load_reference()
    assert list(ref["sweeps"]) == list(workloads.SWEEPS)
    assert sum(s["instances"] for s in ref["sweeps"].values()) == 4287
    assert ref["rows"]["seed"] == workloads.DEFAULT_SEED
    assert ref["rows"]["params"] == workloads.draw_params(workloads.DEFAULT_SEED)
    assert tuple(ref["rows"]["digests"]) == workloads.ROWS_OP_IDS
