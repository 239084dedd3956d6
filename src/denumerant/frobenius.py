"""The Frobenius number and the upper bound on it from the shift sequences.

The exact Frobenius number g comes from the round-robin residue table
(Boecker & Liptak, "A fast and simple algorithm for the money changing
problem", Algorithmica 2007): O(k a_1) steps and a_1 cells for
a_1 = min(a).  For a coprime tuple, every n > s-_k has at least one
representation, so g <= s-_k.  The verify sweep certifies the table by
three local relations that hold of the shortest-path table alone.

No lower bound on g comes from the sandwich.  Its upper bound
(n + s+_k)^(k-1) / ((k-1)! prod a) is at least D(0) = 1 at n = 0, the
relaxed bound (n + r_k)^k / (k! prod a) is at least the relaxed count 1
there, and both grow with n.  So "upper bound < 1, hence not representable"
holds for no n >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .bounds import bound_sequences
from .core import BudgetExceededError, _require_coprime, as_coeffs

# The most cells the residue table may allocate, checked before allocating.
FROBENIUS_MAX_CELLS = 10_000_000


@dataclass(frozen=True)
class FrobeniusReport:
    """The exact Frobenius number next to its certified upper bound s-_k."""

    coeffs: tuple[int, ...]
    g: int
    brauer_upper: int


_NO_FROBENIUS = "has gcd > 1; no Frobenius number exists"


def _residue_table(a: Sequence[int]) -> list[int | float]:
    """N[r], the smallest representable number congruent to r mod a_1 = min(a).

    Requires a coprime tuple, so every entry ends finite.  Each further a_i
    is added by walking the d = gcd(a_1, a_i) residue classes round robin."""
    coeffs = sorted(_require_coprime(as_coeffs(a), _NO_FROBENIUS))
    base = coeffs[0]
    if base > FROBENIUS_MAX_CELLS:
        raise BudgetExceededError(
            f"the residue table needs {base} table cells, over the cap of "
            f"{FROBENIUS_MAX_CELLS}"
        )
    table: list[int | float] = [math.inf] * base
    table[0] = 0
    for coeff in coeffs[1:]:
        d = math.gcd(base, coeff)
        for start in range(d):
            # Adding a_i cannot lower the class minimum, so a lap started
            # there settles every entry of the class.
            n = min(table[start::d])
            if n == math.inf:
                continue
            for _ in range(base // d):
                n += coeff
                r = n % base
                if table[r] < n:
                    n = table[r]
                table[r] = n
    return table


def frobenius_exact(a: Sequence[int]) -> int:
    """The largest integer with no representation; -1 when 1 is a coefficient.

    Requires a coprime tuple.  It is max(N) - a_1 on the residue table N."""
    table = _residue_table(a)
    return max(table) - len(table)


def bound_frobenius(a: Sequence[int]) -> FrobeniusReport:
    """The Frobenius number of a coprime tuple with k >= 2 and its upper
    bound brauer_upper = s-_k, read off the lower shift sequence."""
    coeffs = as_coeffs(a)
    g = frobenius_exact(coeffs)
    brauer_upper = bound_sequences(coeffs).lower_shifts[-1].numerator
    return FrobeniusReport(coeffs=coeffs, g=g, brauer_upper=brauer_upper)
