"""The benchmark's workloads and the inputs each seed gives them.

``sweeps`` and ``sweeps-pool`` run the 19 named verification sweeps at
their default grids, the traffic a user sends; the seed only permutes
their order.  ``rows`` makes long-index CLI calls; the seed draws the
(k, r, s, m) parameters.  All three are closed loops with one client.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass

WORKLOADS = ("sweeps", "sweeps-pool", "rows")
DEFAULT_SEED = 1

SWEEPS = (
    "thm1", "thm2", "thm3", "cor-rs", "cor-period", "thm4", "thm4bar",
    "comp1", "comp2", "comp3", "legendre", "pentagonal", "euler",
    "glaisher", "franklin", "nyirenda-d", "nyirenda-c", "andrews", "andrews-d",
)

# Ranges the rows parameters are drawn from, narrow enough that every draw
# does about the same work: otherwise the seed, not the code, would set
# the run time.  The thm2 b-file and period rows stay at k = 2 (the
# period-6 row), as their cost falls fourfold from k = 2 to k = 4; the
# thm3 rows, whose cost moves most with (k, r, s), are kept shorter.
K_RANGE = (3, 4)
R_RANGE = (4, 5, 6)
M_RANGE = (1, 2)


@dataclass(frozen=True)
class Op:
    """One CLI call of the rows workload."""

    id: str  # "<subcommand>.<token>", as in the cli.op.<id>.s metric
    argv: tuple[str, ...]
    items: int  # output values: b-file terms, coefficients or window terms


def jobs(workload: str) -> int:
    """Worker processes per sweep: 2 for sweeps-pool, never more than nproc."""
    if workload != "sweeps-pool":
        return 1
    return min(2, nproc())


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def draw_params(seed: int) -> dict[str, int]:
    """(k, r, s, m) for the rows workload.

    Draws with k + s = r are rejected: the thm3 denominator
    1 - x^r + x^(k+s) then collapses to 1 and the row does no work.
    """
    rng = random.Random(seed)
    while True:
        k, r = rng.choice(K_RANGE), rng.choice(R_RANGE)
        s, m = rng.randrange(r), rng.choice(M_RANGE)
        if k + s != r:
            return {"k": k, "r": r, "s": s, "m": m}


# x- and y-order of the bivariate series thm4bar call.
THM4BAR_ORDERS = (120, 8)


def rows_ops(p: dict[str, int]) -> list[Op]:
    k, r, s, m = (str(p[x]) for x in "krsm")
    krs = ("--k", k, "--r", r, "--s", s)
    km = ("--k", k, "--m", m)
    x_order, y_order = THM4BAR_ORDERS
    return [
        Op("bfile.thm2", ("bfile", "emit", "--seq", "thm2", "--k", "2", "--max-n", "1000"), 1000),
        Op("period.thm2", ("period", "--seq", "thm2", "--k", "2", "--max-n", "1000"), 1000),
        Op("bfile.thm3", ("bfile", "emit", "--seq", "thm3", *krs, "--max-n", "1000"), 1000),
        Op("bfile.thm4", ("bfile", "emit", "--seq", "thm4", *km, "--max-n", "400"), 400),
        Op("bfile.thm4a", ("bfile", "emit", "--seq", "thm4a", *km, "--max-n", "400"), 400),
        Op("bfile.thm4bar", ("bfile", "emit", "--seq", "thm4bar", *km, "--max-n", "400"), 400),
        Op("series.thm2", ("series", "thm2", "--k", k, "--order", "5000"), 5001),
        Op("series.thm3", ("series", "thm3", *krs, "--order", "3000"), 3001),
        Op("series.thm4bar", ("series", "thm4bar", "--k", k, "--order", str(x_order),
                              "--y-order", str(y_order)), (x_order + 1) * (y_order + 1)),
        Op("series.pentagonal", ("series", "pentagonal", "--order", "3000"), 3001),
    ]


ROWS_OP_IDS = tuple(op.id for op in rows_ops({"k": 3, "r": 4, "s": 0, "m": 1}))


def make_inputs(workload: str, seed: int) -> list:
    """The sweep order, or the rows CLI calls, that the seed gives."""
    if workload in ("sweeps", "sweeps-pool"):
        order = list(SWEEPS)
        random.Random(seed).shuffle(order)
        return order
    if workload == "rows":
        return rows_ops(draw_params(seed))
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def import_program(root: str) -> None:
    """Import compparity from ``root``/src and from nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import compparity

    where = os.path.dirname(os.path.abspath(compparity.__file__))
    if where != os.path.join(os.path.abspath(src), "compparity"):
        raise ImportError(f"compparity imported from {where}, not from {src}")
