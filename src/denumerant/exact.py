"""Exact solution counting for a_1*x_1 + ... + a_k*x_k = n over the naturals.

Three independent routes to the same number:

* ``oracle_count``: brute-force enumeration with a node budget.  Slow and
  obviously correct; everything else is checked against it.
* ``denumerant``: gcd reduction followed by the prefix recurrence

      D_{k+1}(n) = sum_{l=0}^{[n/a_{k+1}]} D_k(n - a_{k+1} * l),

  evaluated bottom-up with the inner sum telescoped to
  D_j(m) = D_{j-1}(m) + D_j(m - a_j), memoized per (prefix, residual).
* ``popoviciu``: the closed form for two coprime coefficients.

``extended_count`` counts the relaxed problem sum <= n by adding a slack
variable with coefficient 1.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .core import (
    BudgetExceededError,
    InvariantViolationError,
    NotInvertibleError,
    _require_coprime,
    _require_natural,
    as_coeffs,
)

# Environment override for the enumeration budget, counted in loop nodes.
ORACLE_BUDGET_ENV = "DENUM_MAX_ORACLE"
DEFAULT_ORACLE_BUDGET = 10_000_000


@dataclass(frozen=True)
class CountResult:
    """An exact count and the route that produced it."""

    value: int
    method: str


def _oracle_budget(budget: int | None) -> int:
    if budget is not None:
        return budget
    raw = os.environ.get(ORACLE_BUDGET_ENV)
    return int(raw) if raw else DEFAULT_ORACLE_BUDGET


def oracle_count(
    a: Sequence[int], n: int, budget: int | None = None
) -> CountResult:
    """Count solutions by nested enumeration, spending at most ``budget`` nodes.

    Coefficients are enumerated largest first so the outer loops branch the
    least; the final variable is resolved by a divisibility test instead of
    a loop.  Exceeds of the budget raise BudgetExceededError (use the
    recursion route for anything desk-scale enumeration cannot reach).
    """
    coeffs = as_coeffs(a)
    _require_natural(n)
    cap = _oracle_budget(budget)

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
def _prefix_counts(coeffs: tuple[int, ...], cap: int) -> tuple[int, ...]:
    # counts[m] = number of solutions of the full equation at target m; each
    # pass folds one more coefficient into the prefix.
    counts = [0] * (cap + 1)
    counts[0] = 1
    for coeff in coeffs:
        for m in range(coeff, cap + 1):
            counts[m] += counts[m - coeff]
    return tuple(counts)


def denumerant(a: Sequence[int], n: int) -> CountResult:
    """Count solutions via gcd reduction and the prefix recurrence.

    If d = gcd(a_1, ..., a_k) does not divide n there are no solutions;
    otherwise the count equals the count for (a_1/d, ..., a_k/d) at n/d.
    """
    coeffs = as_coeffs(a)
    _require_natural(n)
    d = math.gcd(*coeffs)
    if n % d:
        return CountResult(0, "recursion")
    reduced = tuple(c // d for c in coeffs)
    m = n // d
    # Round the table size up to a power of two so nearby targets share one
    # cached row; the cache is bounded, old rows simply fall out.
    cap = max(256, 1 << m.bit_length())
    return CountResult(_prefix_counts(reduced, cap)[m], "recursion")


def modular_inverse(x: int, m: int) -> int:
    """The inverse of x modulo m, in [0, m); by convention 0 when m = 1."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if m == 1:
        return 0
    if math.gcd(x, m) != 1:
        raise NotInvertibleError(f"{x} has no inverse modulo {m}")
    return pow(x, -1, m)


def popoviciu(a1: int, a2: int, n: int) -> CountResult:
    """Closed-form count for two coprime coefficients.

    With b' the inverse of a2 mod a1 and a' the inverse of a1 mod a2,

        D(n) = n/(a1*a2) - {b'*n/a1} - {a'*n/a2} + 1,

    where {t} is the fractional part.  The result is checked to be a
    non-negative integer before it is returned.
    """
    a1, a2 = as_coeffs((a1, a2))
    _require_natural(n)
    _require_coprime((a1, a2), "is not a coprime pair")
    inv_a2 = modular_inverse(a2, a1)
    inv_a1 = modular_inverse(a1, a2)
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
