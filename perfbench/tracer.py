"""Span tracing of the compparity layers from outside the package.

``Tracer.install`` wraps the public entry points of each layer module and
rebinds every module attribute that holds one, so re-exports in
``compparity/__init__`` and from-imports such as ``series.congruent_periodic``
are traced too.  Each call records one span (id, parent id, name, layer,
start, end) in memory; ``layer_metrics`` turns the spans into per-layer
counts and self times, and ``write_spans`` writes them out at the end.

Helpers that run once per class member or per summand (membership
predicates, ``binomial``) are not wrapped: at hundreds of thousands of
calls per run their wrapper cost would swamp the timings.  Generator
functions are not wrapped either, since a span would only time their
creation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "compositions",
    "partitions",
    "partition_theorems",
    "formulas",
    "series",
    "sequences",
    "verify",
    "cli",
)

NOT_WRAPPED = frozenset({
    "compositions.is_guarded",
    "partitions.has_initial_repetitions",
    "formulas.binomial",
    "formulas.monomial_specialization",
})


def _work_counters() -> dict[str, object]:
    """Work each span records from its call's result, by function or layer.

    Counts accounted for by the enumeration oracle (class members), series
    coefficients handed back, b-file bytes emitted and sweep instances.
    """
    from compparity.compositions import SignedCount
    from compparity.series import BivariateSeries

    def members(r):
        return r.total if isinstance(r, SignedCount) else r

    def coeffs(r):
        if isinstance(r, BivariateSeries):
            return len(r.coeffs) * len(r.coeffs[0])
        return len(getattr(r, "coeffs", ()))

    return {
        "compositions.signed_count": members,
        "compositions.count_compositions": members,
        "partitions.signed_count": members,
        "partitions.count_partitions": members,
        "sequences.emit_bfile": len,
        "verify.run_check": lambda r: r.instances,
        "series": coeffs,
    }


class Span:
    __slots__ = ("id", "parent", "name", "layer", "start", "end", "work")

    def __init__(self, id, parent, name, layer, start, end=0.0, work=0):
        self.id = id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.work = work


class Tracer:
    """Records spans for one run; ``run_id`` tags every span it writes."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, layer: str, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1].id if stack else None, name, layer, clock())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.work = count(result)
                return result
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every layer's entry points in all loaded compparity modules."""
        counters = _work_counters()
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"compparity.{layer}")
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in NOT_WRAPPED
                    or isinstance(fn, type)
                    or not callable(fn)
                    or getattr(fn, "__module__", None) != mod.__name__
                    or inspect.isgeneratorfunction(inspect.unwrap(fn))
                ):
                    continue
                count = counters.get(name, counters.get(layer))
                wrappers[id(fn)] = self._wrap(name, layer, fn, count)
        for modname, mod in list(sys.modules.items()):
            if modname != "compparity" and not modname.startswith("compparity."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.id, "parent": s.parent,
                    "name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
                }) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its child spans.

    Calls nest in one thread, so the children of a span never overlap.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    return [(s.end - s.start) - child_time.get(s.id, 0.0) for s in spans]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer calls and self time, plus the work counters of each layer.

    A series span counts its coefficients only when its caller is outside
    the series layer, so a rational expansion inside ``min_part_series``
    is not counted twice.
    """
    by_id = {s.id: s for s in spans}
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    work = {"compositions": 0, "partitions": 0, "series": 0, "sequences": 0, "verify": 0}
    for s, self_s in zip(spans, self_times(spans)):
        out[f"{s.layer}.calls"] += 1
        out[f"{s.layer}.self_s"] += self_s
        if s.layer == "series":
            parent = by_id.get(s.parent)
            if parent is not None and parent.layer == "series":
                continue
        if s.layer in work:
            work[s.layer] += s.work
    for layer, unit in (("compositions", "members"), ("partitions", "members"),
                        ("series", "coeffs")):
        busy = out[f"{layer}.self_s"]
        out[f"{layer}.{unit}"] = work[layer]
        out[f"{layer}.{unit}_per_s"] = work[layer] / busy if busy else 0.0
    out["sequences.bytes"] = work["sequences"]
    out["verify.instances"] = work["verify"]
    return out
