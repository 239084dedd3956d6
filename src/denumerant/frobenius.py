"""The Frobenius number and bounds on it derived from the sandwich.

The exact Frobenius number g comes from the round-robin residue table
(Boecker & Liptak, "A fast and simple algorithm for the money changing
problem", Algorithmica 2007): O(k a_1) steps and a_1 cells for
a_1 = min(a).  For a coprime tuple, every n > s-_k has at least one
representation, so g <= s-_k, and a sieve over 0..s-_k finds g by a second,
independent route; the verify sweep compares the two.  In the other
direction, any n whose polynomial upper bound is below 1 cannot be
represented, which turns the two upper shift sequences into lower bounds
on g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bounds import BoundSequences, bound_sequences
from .core import (
    BudgetExceededError,
    CoefficientTuple,
    InvariantViolationError,
    NotCoprimeError,
)

# The most table cells either route may allocate: a_1 = min(a) for the
# residue table, s-_k + 1 for the sieve.  Checked before allocating.
FROBENIUS_MAX_CELLS = 10_000_000


@dataclass(frozen=True)
class FrobeniusReport:
    """The exact Frobenius number next to its certified enclosures.

    Either root bound may be None: that means no n at all satisfies the
    defining inequality, so that route certifies nothing for this tuple.
    """

    coeffs: tuple[int, ...]
    g: int
    brauer_upper: int
    root_lower_1: int | None
    root_lower_2: int | None


def _coprime_coeffs(a: CoefficientTuple | Sequence[int]) -> tuple[int, ...]:
    coeffs = CoefficientTuple.of(a).coeffs
    if math.gcd(*coeffs) != 1:
        raise NotCoprimeError(f"{coeffs} has gcd > 1; no Frobenius number exists")
    return coeffs


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


def frobenius_exact(a: CoefficientTuple | Sequence[int]) -> int:
    """The largest integer with no representation; -1 when 1 is a coefficient.

    Requires a coprime tuple.  Builds the residue table modulo a_1 = min(a):
    N[r] is the smallest representable number congruent to r, so
    g = max(N) - a_1.  Each further coefficient a_i is added by walking the
    d = gcd(a_1, a_i) residue classes round robin (Boecker & Liptak 2007),
    in O(k a_1) steps and a_1 cells.
    """
    coeffs = sorted(_coprime_coeffs(a))
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


def _frobenius_sieve(a: CoefficientTuple | Sequence[int]) -> int:
    """The Frobenius number by sieving reachability over 0..s-_k.

    The slow, independent route that the verify sweep checks
    frobenius_exact against; it allocates s-_k + 1 cells.
    """
    coeffs = _coprime_coeffs(a)
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


def _largest_satisfying(shift: Fraction, power: int, target: int) -> int | None:
    """The largest n >= 0 with (n + shift)^power < target, or None."""

    def holds(n: int) -> bool:
        return (n + shift) ** power < target

    if not holds(0):
        return None
    hi = 1
    while holds(hi):
        hi <<= 1
    lo = hi >> 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def bound_frobenius(a: CoefficientTuple | Sequence[int]) -> FrobeniusReport:
    """Certified enclosures for the Frobenius number of a coprime tuple.

    * brauer_upper: g <= s-_k, read off the lower shift sequence.
    * root_lower_1: the largest n with (n + s+_k)^(k-1) < (k-1)! prod a;
      the sandwich forces the count to be zero there, so g is at least it.
    * root_lower_2: the same argument on the relaxed count, largest n with
      (n + r_k)^k < k! prod a.
    """
    coeffs = CoefficientTuple.of(a).coeffs
    g = frobenius_exact(coeffs)
    seqs = bound_sequences(coeffs)
    brauer_upper = _brauer_top(seqs, coeffs)
    k = len(coeffs)
    prod = math.prod(coeffs)
    root_1 = _largest_satisfying(
        seqs.upper_shifts[-1], k - 1, math.factorial(k - 1) * prod
    )
    root_2 = _largest_satisfying(
        seqs.relaxed_shifts[-1], k, math.factorial(k) * prod
    )
    return FrobeniusReport(
        coeffs=coeffs,
        g=g,
        brauer_upper=brauer_upper,
        root_lower_1=root_1,
        root_lower_2=root_2,
    )
