"""The Frobenius number and the upper bound on it from the shift sequences.

The exact Frobenius number g comes from the round-robin residue table
(Boecker & Liptak, "A fast and simple algorithm for the money changing
problem", Algorithmica 2007): O(k a_1) steps and a_1 cells for
a_1 = min(a).  For a coprime tuple, every n > s-_k has at least one
representation, so g <= s-_k, and a sieve over 0..s-_k finds g by a second,
independent route; the verify sweep compares the two.

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

from .bounds import BoundSequences, bound_sequences
from .core import (
    BudgetExceededError,
    InvariantViolationError,
    _require_coprime,
    as_coeffs,
)

# The most table cells either route may allocate: a_1 = min(a) for the
# residue table, s-_k + 1 for the sieve.  Checked before allocating.
FROBENIUS_MAX_CELLS = 10_000_000


@dataclass(frozen=True)
class FrobeniusReport:
    """The exact Frobenius number next to its certified upper bound s-_k."""

    coeffs: tuple[int, ...]
    g: int
    brauer_upper: int


_NO_FROBENIUS = "has gcd > 1; no Frobenius number exists"


def _require_cells(cells: int, route: str) -> None:
    if cells > FROBENIUS_MAX_CELLS:
        raise BudgetExceededError(
            f"the {route} needs {cells} table cells, over the cap of "
            f"{FROBENIUS_MAX_CELLS}"
        )


def _brauer_top(seqs: BoundSequences, coeffs: tuple[int, ...]) -> int:
    shift = seqs.lower_shifts[-1]
    if shift.denominator != 1:
        raise InvariantViolationError(
            f"lower shift of {coeffs} is not an integer: {shift}"
        )
    return int(shift)


def frobenius_exact(a: Sequence[int]) -> int:
    """The largest integer with no representation; -1 when 1 is a coefficient.

    Requires a coprime tuple.  Builds the residue table modulo a_1 = min(a):
    N[r] is the smallest representable number congruent to r, so
    g = max(N) - a_1.  Each further coefficient a_i is added by walking the
    d = gcd(a_1, a_i) residue classes round robin (Boecker & Liptak 2007),
    in O(k a_1) steps and a_1 cells.
    """
    coeffs = sorted(_require_coprime(as_coeffs(a), _NO_FROBENIUS))
    base = coeffs[0]
    _require_cells(base, "residue table")
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
    return max(table) - base


def _frobenius_sieve(a: Sequence[int]) -> int:
    """The Frobenius number by sieving reachability over 0..s-_k.

    The slow, independent route that the verify sweep checks
    frobenius_exact against; it allocates s-_k + 1 cells.
    """
    coeffs = _require_coprime(as_coeffs(a), _NO_FROBENIUS)
    if 1 in coeffs:
        return -1
    top = _brauer_top(bound_sequences(coeffs), coeffs)
    if top < 0:
        return -1
    _require_cells(top + 1, "sieve")
    reachable = [False] * (top + 1)
    reachable[0] = True
    for value in range(1, top + 1):
        for coeff in coeffs:
            if coeff <= value and reachable[value - coeff]:
                reachable[value] = True
                break
    for value in range(top, -1, -1):
        if not reachable[value]:
            return value
    return -1


def bound_frobenius(a: Sequence[int]) -> FrobeniusReport:
    """The Frobenius number of a coprime tuple with k >= 2 and its upper
    bound brauer_upper = s-_k, read off the lower shift sequence."""
    coeffs = as_coeffs(a)
    g = frobenius_exact(coeffs)
    brauer_upper = _brauer_top(bound_sequences(coeffs), coeffs)
    return FrobeniusReport(coeffs=coeffs, g=g, brauer_upper=brauer_upper)
