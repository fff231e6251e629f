"""Length-parity counting for compositions and partitions with restricted parts.

The package pairs an enumeration oracle (`compositions`, `partitions`:
class definitions, counted by a membership-automaton tally) with closed
formulas (`formulas`), generating function expansions (`series`),
classical partition identities (`partition_theorems`), sequence
utilities (`sequences`) and batch verification sweeps (`verify`).
Signed counts follow the convention odd-length minus even-length for
compositions and even minus odd for the partition identities, matching
the usual statements of each.
"""

from compparity.compositions import SignedCount, signed_count
from compparity.formulas import binomial, min_part_signed
from compparity.sequences import detect_period, emit_bfile, parse_bfile
from compparity.series import IntPolynomial, TruncatedSeries, expand_rational

__version__ = "0.1.0"

__all__ = [
    "SignedCount",
    "signed_count",
    "binomial",
    "min_part_signed",
    "detect_period",
    "emit_bfile",
    "parse_bfile",
    "IntPolynomial",
    "TruncatedSeries",
    "expand_rational",
    "__version__",
]
