"""Output checks: every op of every pass is compared with a reference.

Sweeps are compared with the reports, and instance counts, recorded in
``reference.json`` from the default grids.  A rows op is checked against
values recomputed, outside the timed region, along a public route other
than the one the CLI took:

=================  =====================  ================================
op                 CLI route              check route
=================  =====================  ================================
bfile thm2         ``min_part_signed``    recurrence row
period thm2        ``min_part_signed``    recurrence row
bfile thm3         ``congruent_signed``   ``congruent_series``
bfile thm4         boxed form             ``guarded_signed_sum`` (sampled)
bfile thm4a        boxed form             ``guarded_count_sum`` (sampled)
bfile thm4bar      ``small_parts_signed`` y^m slice of the bivariate GF as
                                          a rational function
series thm2        ``expand_rational``    recurrence row
series thm3        ``expand_rational``    ``congruent_signed`` (sampled)
series thm4bar     bivariate products     ``small_parts_signed``
series pentagonal  the product            ``pentagonal_rhs``
=================  =====================  ================================

The quadruple sums and ``congruent_signed`` cost up to 0.2 s per term at
these indices, so they are checked at every small index and at seeded
samples of the rest.  For the default seed the stdout digests recorded in
``reference.json`` must match as well.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

import workloads

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_ok(op: dict, ref: dict) -> bool:
    """A sweep passes, checks its whole grid and renders the recorded report."""
    want = ref["sweeps"].get(op["id"])
    return (
        want is not None
        and "error" not in op
        and op["passed"]
        and op["instances"] == want["instances"] > 0
        and op["report"] == want["report"]
    )


# ---------------------------------------------------------------------------
# rows: parsing the CLI's output back into values
# ---------------------------------------------------------------------------

def _bfile_values(text: str) -> list[int]:
    values = [int(line.split(" ")[1]) for line in text.splitlines()]
    if text != "".join(f"{i} {v}\n" for i, v in enumerate(values, start=1)):
        raise ValueError("not a canonical b-file starting at index 1")
    return values


def _series_values(text: str) -> list[int]:
    values = [int(c) for c in text.rstrip("\n").split(",")]
    if text != ",".join(map(str, values)) + "\n":
        raise ValueError("not one comma-separated line")
    return values


def _bivariate_values(text: str) -> list[int]:
    """The y^0, y^1, ... lines of ``series thm4bar``, concatenated."""
    rows = [line.partition(": ")[2] for line in text.splitlines()]
    values = [[int(c) for c in row.split(",")] for row in rows]
    if text != "".join(f"y^{b}: " + ",".join(map(str, row)) + "\n"
                       for b, row in enumerate(values)):
        raise ValueError("not one canonical line per power of y")
    return [v for row in values for v in row]


# ---------------------------------------------------------------------------
# rows: reference values along the second route
# ---------------------------------------------------------------------------

def _sample(first: int, last: int, dense: int, extra: int, rng: random.Random) -> list[int]:
    """Every index up to ``dense``, ``extra`` seeded picks beyond it, and the last."""
    rest = range(dense + 1, last)
    picks = rng.sample(rest, min(extra, len(rest)))
    return sorted({*range(first, min(dense, last) + 1), *picks, last})


def _gf_row(row: list[int], k: int, order: int) -> list[int]:
    """Coefficients 0..order of 1 - sum_n value_n x^(n+k-1)."""
    return ([1] + [0] * (k - 1) + [-v for v in row])[: order + 1]


def _small_parts_slice(k: int, m: int, order: int) -> list[int]:
    """x-coefficients of y^m in 1/(1-T), T as in ``small_parts_series``.

    With A = -(x+..+x^(k-1)) and B = -(x^k+x^(k+1)+..) the y^m part of
    1/(1-B-yA) is A^m/(1-B)^(m+1), which is the rational function
    (-1)^m x^m (1-x^(k-1))^m (1-x) / (1-x+x^k)^(m+1).
    """
    from compparity.series import IntPolynomial, expand_rational

    poly = IntPolynomial.from_terms
    num = poly({m: (-1) ** m}) * poly({0: 1, 1: -1})
    den = poly({0: 1})
    for _ in range(m):
        num = num * (poly({0: 1}) - poly({k - 1: 1}))
    for _ in range(m + 1):
        den = den * (poly({0: 1, 1: -1}) + poly({k: 1}))
    return list(expand_rational(num, den, order).coeffs)


def rows_reference(op: workloads.Op, p: dict[str, int], seed: int):
    """Expected stdout (period) or {position: value} for one rows op."""
    from compparity import formulas as F
    from compparity import sequences, series

    k, r, s, m = p["k"], p["r"], p["s"], p["m"]
    rng = random.Random(f"{seed}:{op.id}")
    n = op.items
    if op.id == "bfile.thm2":
        return dict(enumerate(F.min_part_signed_sequence(2, n)))
    if op.id == "period.thm2":
        found = sequences.detect_period(F.min_part_signed_sequence(2, n))
        if found is None:
            return f"aperiodic within window of {n} terms\n"
        return f"preperiod={found[0]} period={found[1]}\n"
    if op.id == "bfile.thm3":
        gf = series.congruent_series(k, r, s, n + k - 1)
        return dict(enumerate(series.signed_values(gf, k, n)))
    if op.id in ("bfile.thm4", "bfile.thm4a"):
        fn = F.guarded_signed_sum if op.id == "bfile.thm4" else F.guarded_count_sum
        return {i - 1: fn(k, i, m) for i in _sample(1, n, 80, 8, rng)}
    if op.id == "bfile.thm4bar":
        gf = _small_parts_slice(k, m, n + k - 1)
        return {i - 1: -gf[i + k - 1] for i in range(1, n + 1)}
    if op.id == "series.thm2":
        return dict(enumerate(_gf_row(F.min_part_signed_sequence(k, n), k, n - 1)))
    if op.id == "series.thm3":
        order = n - 1
        want = {t: 1 if t == 0 else 0 for t in range(k)}
        for t in _sample(k, order, 400, 100, rng):
            want[t] = -F.congruent_signed(k, t - k + 1, r, s)
        return want
    if op.id == "series.thm4bar":
        x_order, y_order = workloads.THM4BAR_ORDERS
        want = {}
        for b in range(y_order + 1):
            for a in range(x_order + 1):
                if a >= k:
                    v = -F.small_parts_signed(k, a - k + 1, b)
                elif a == 0:
                    v = 1 if b == 0 else 0
                else:  # every part of a < k is small: b parts, sign (-1)^b
                    v = (-1) ** b * math.comb(a - 1, b - 1) if b else 0
                want[b * (x_order + 1) + a] = v
        return want
    if op.id == "series.pentagonal":
        return dict(enumerate(series.pentagonal_rhs(n - 1).coeffs))
    raise ValueError(f"no reference for rows op {op.id!r}")


def rows_op_ok(op: workloads.Op, rec: dict, want, digest_want: str | None) -> bool:
    """The call exited 0 and printed exactly the reference values."""
    if "error" in rec or rec.get("rc") != 0:
        return False
    text = rec["stdout"]
    if digest_want is not None and digest(text) != digest_want:
        return False
    if isinstance(want, str):
        return text == want
    if op.id == "series.thm4bar":
        parse = _bivariate_values
    else:
        parse = _bfile_values if op.id.startswith("bfile.") else _series_values
    try:
        values = parse(text)
    except (ValueError, IndexError):
        return False
    return len(values) == op.items and all(values[i] == v for i, v in want.items())


class Checker:
    """Counts failed ops of one run against the references."""

    def __init__(self, workload: str, seed: int, inputs: list):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.ref = load_reference()
        self._rows_want: dict[str, object] = {}
        if workload == "rows":
            self.params = workloads.draw_params(seed)
            rows = self.ref["rows"]
            self.digests = rows["digests"] if seed == rows["seed"] else {}

    def op_ok(self, rec: dict) -> bool:
        if self.workload != "rows":
            return sweep_ok(rec, self.ref)
        op = next((o for o in self.inputs if o.id == rec["id"]), None)
        if op is None:
            return False
        if op.id not in self._rows_want:
            self._rows_want[op.id] = rows_reference(op, self.params, self.seed)
        return rows_op_ok(op, rec, self._rows_want[op.id], self.digests.get(op.id))

    def failures(self, ops: list[dict]) -> list[str]:
        """Ids of the failed ops of one pass; a missing op counts as failed."""
        expected = [o.id if self.workload == "rows" else o for o in self.inputs]
        failed = [rec["id"] for rec in ops if not self.op_ok(rec)]
        got = [rec["id"] for rec in ops]
        return failed + [i for i in expected if i not in got]
