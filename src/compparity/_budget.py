"""The one work budget every route is charged on before it works.

Each layer prices its own work in one unit, in a private constant next to
the loop it charges: 40 a tally trial (``_automaton``), 5 a unit of a
closed-form sum's terms x bits (``formulas``), 2 an addition of Euler's
product (``series``) and 40 a cell of a sweep's grid, a table or a
sequence (``verify`` and the CLI).  Work just under ``LIMIT`` takes about
1 s on a 2-core x86 machine.  Each charge is checked on its own; charges
do not add up across calls.  ``LIMIT`` is read at every charge, so one
patched name lowers the budget of every route.  The message is formatted
only on refusal, so a loop charged row by row pays a compare a row.

This module imports nothing from the package, so it joins no two routes.
"""

from __future__ import annotations

LIMIT = 80_000_000


def charge(cost: int, what: str, *args: object) -> None:
    """Raise ValueError, naming the work ``what.format(*args)``, when ``cost`` passes ``LIMIT``."""
    if cost > LIMIT:
        raise ValueError(f"{what.format(*args)} needs at least {cost} units of work, "
                         f"past the budget of {LIMIT}")
