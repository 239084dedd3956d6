"""Exact solution counting for a_1*x_1 + ... + a_k*x_k = n over the naturals.

Three independent routes to the same number:

* ``oracle_count``: brute-force enumeration with a node budget.  Slow and
  obviously correct; everything else is checked against it.
* ``denumerant``: gcd reduction followed by the prefix recurrence

      D_{k+1}(n) = sum_{l=0}^{[n/a_{k+1}]} D_k(n - a_{k+1} * l),

  evaluated bottom-up as one row D(0..cap) per tuple.  The inner sum
  telescopes to D_j(m) = D_{j-1}(m) + D_j(m - a_j): a running sum along
  each residue class mod a_j, done as ``accumulate`` over a strided slice.
* ``popoviciu``: the closed form for two coprime coefficients.

Rows are cached per (sorted reduced tuple, power-of-two cap), since the
count does not depend on coefficient order and nearby targets share a row.
A coefficient 1 folds in as a plain running sum, so a tuple with ones is
built from the cached row of the tuple without them.  That is how
``extended_count``, which counts the relaxed problem sum <= n by adding a
slack variable with coefficient 1, reuses the row that ``denumerant`` built
for the same tuple.  A finished row is stored as an unsigned 64-bit
``array`` when every entry fits, and as a tuple of ints otherwise.  A cap
over ``DENUMERANT_MAX_CELLS`` raises BudgetExceededError before anything
is allocated.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .core import (
    BudgetExceededError,
    InvariantViolationError,
    _require_coprime,
    _require_natural,
    as_coeffs,
)

# The most loop nodes one oracle enumeration may visit.
ORACLE_MAX_NODES = 10_000_000

# The most cells one DP row may span, checked against its power-of-two cap
# before anything is allocated.  On a 2-core x86-64 host a row at this cap
# for (3, 5, 7, 11) peaked at 361 MB RSS in 1.2 s, and one for (1,) * 8,
# whose entries pass 2^64, at 465 MB; a row at twice the cap took 728 MB.
DENUMERANT_MAX_CELLS = 1 << 22


@dataclass(frozen=True)
class CountResult:
    """An exact count and the route that produced it."""

    value: int
    method: str


def oracle_count(a: Sequence[int], n: int) -> CountResult:
    """Count solutions by nested enumeration in at most ORACLE_MAX_NODES nodes.

    Coefficients are enumerated largest first so the outer loops branch the
    least; the final variable is resolved by a divisibility test instead of
    a loop.  Past the budget it raises BudgetExceededError (use the
    recursion route for anything desk-scale enumeration cannot reach).
    """
    coeffs = as_coeffs(a)
    _require_natural(n)
    cap = ORACLE_MAX_NODES

    order = sorted(coeffs, reverse=True)
    heads, last = order[:-1], order[-1]
    nodes = 0

    def count_from(depth: int, residual: int) -> int:
        nonlocal nodes
        if depth == len(heads):
            return 1 if residual % last == 0 else 0
        coeff = heads[depth]
        total = 0
        for take in range(residual // coeff + 1):
            nodes += 1
            if nodes > cap:
                raise BudgetExceededError(
                    f"enumeration budget of {cap} nodes exhausted for "
                    f"coefficients {coeffs} at n={n}"
                )
            total += count_from(depth + 1, residual - coeff * take)
        return total

    return CountResult(count_from(0, n), "oracle")


@lru_cache(maxsize=32)
def _prefix_counts(key: tuple[int, ...], cap: int) -> Sequence[int]:
    # counts[m] = number of solutions at target m for the sorted tuple key.
    # Folding in a coefficient c is a running sum along each residue class
    # mod c; for c = 1 that is a running sum over the whole row, so the
    # leading ones fold into the cached row of the rest of the tuple.
    ones = key.count(1)
    if 0 < ones < len(key):
        counts = _prefix_counts(key[ones:], cap)
        passes = key[:ones]
    else:
        first, *passes = key
        counts = [0] * (cap + 1)
        counts[::first] = [1] * (cap // first + 1)
    for coeff in passes:
        if coeff == 1:
            counts = list(accumulate(counts))
        else:
            # Only residue classes with two or more cells change, so a
            # coefficient over the cap leaves the row as it is.
            for r in range(min(coeff, cap + 1 - coeff)):
                counts[r::coeff] = accumulate(counts[r::coeff])
    try:
        return array("Q", counts)
    except OverflowError:
        return tuple(counts)


def denumerant(a: Sequence[int], n: int) -> CountResult:
    """Count solutions via gcd reduction and the prefix recurrence.

    If d = gcd(a_1, ..., a_k) does not divide n there are no solutions;
    otherwise the count equals the count for (a_1/d, ..., a_k/d) at n/d.
    Raises BudgetExceededError when the row for n/d would span more than
    DENUMERANT_MAX_CELLS cells.
    """
    coeffs = as_coeffs(a)
    _require_natural(n)
    d = math.gcd(*coeffs)
    if n % d:
        return CountResult(0, "recursion")
    key = tuple(sorted(c // d for c in coeffs))
    m = n // d
    # Round the table size up to a power of two so nearby targets share one
    # cached row; the cache is bounded, old rows simply fall out.
    cap = max(256, 1 << m.bit_length())
    if cap > DENUMERANT_MAX_CELLS:
        raise BudgetExceededError(
            f"the table for {coeffs} at n={n} needs {cap} cells, over the "
            f"cap of {DENUMERANT_MAX_CELLS}"
        )
    return CountResult(_prefix_counts(key, cap)[m], "recursion")


def popoviciu(a1: int, a2: int, n: int) -> CountResult:
    """Closed-form count for two coprime coefficients.

    With b' the inverse of a2 mod a1 and a' the inverse of a1 mod a2 (0
    when the modulus is 1),

        D(n) = n/(a1*a2) - {b'*n/a1} - {a'*n/a2} + 1,

    where {t} is the fractional part.  The result is checked to be a
    non-negative integer before it is returned.
    """
    a1, a2 = as_coeffs((a1, a2))
    _require_natural(n)
    _require_coprime((a1, a2), "is not a coprime pair")
    inv_a2 = pow(a2, -1, a1)
    inv_a1 = pow(a1, -1, a2)
    value = (
        Fraction(n, a1 * a2)
        - Fraction((inv_a2 * n) % a1, a1)
        - Fraction((inv_a1 * n) % a2, a2)
        + 1
    )
    if value.denominator != 1 or value < 0:
        raise InvariantViolationError(
            f"closed form produced {value} for ({a1}, {a2}) at n={n}"
        )
    return CountResult(int(value), "popoviciu")


def extended_count(a: Sequence[int], n: int) -> CountResult:
    """Count solutions of a_1*x_1 + ... + a_k*x_k <= n.

    Divide out d = gcd(a): only multiples of d up to d*floor(n/d) are
    reachable, so the relaxed count equals the exact count for the tuple
    (1, a_1/d, ..., a_k/d) at floor(n/d), the 1 being a slack variable.
    """
    coeffs = as_coeffs(a)
    _require_natural(n)
    d = math.gcd(*coeffs)
    slack_tuple = (1,) + tuple(c // d for c in coeffs)
    return CountResult(denumerant(slack_tuple, n // d).value, "recursion")
