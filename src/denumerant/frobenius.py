"""The Frobenius number and the upper bound on it from the shift sequences.

The exact Frobenius number g takes one route by k, after the tuple is
checked coprime:

* a pair: Sylvester's g = a_1 a_2 - a_1 - a_2;
* a triple: Johnson's reduction to a pairwise coprime triple, then
  Rodseth's formula (Ramirez Alfonsin, "The Diophantine Frobenius
  Problem", OUP 2005, section 2.2), in O(log a_1) steps of big-int
  arithmetic at any size;
* a single coefficient and k >= 4: the round-robin residue table (Boecker
  & Liptak, "A fast and simple algorithm for the money changing problem",
  Algorithmica 2007), O(k a_1) steps and a_1 cells for a_1 = min(a), its
  first lap written in closed form.

For a coprime tuple, every n > s-_k has at least one representation, so
g <= s-_k.  The verify sweep certifies the table by three local relations
that hold of the shortest-path table alone, and compares g with it for
every k.

No lower bound on g comes from the sandwich.  Its upper bound
(n + s+_k)^(k-1) / ((k-1)! prod a) is at least D(0) = 1 at n = 0, the
relaxed bound (n + r_k)^k / (k! prod a) is at least the relaxed count 1
there, and both grow with n.  So "upper bound < 1, hence not representable"
holds for no n >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
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

    Requires a coprime tuple, so every entry ends finite.  a_2 fills the
    classes j a_2 mod a_1 with j a_2 for j < a_1 / gcd(a_1, a_2); each further
    a_i is added by walking the d = gcd(a_1, a_i) residue classes round robin."""
    coeffs = sorted(_require_coprime(as_coeffs(a), _NO_FROBENIUS))
    base = coeffs[0]
    if base > FROBENIUS_MAX_CELLS:
        raise BudgetExceededError(
            f"the residue table needs {base} table cells, over the cap of "
            f"{FROBENIUS_MAX_CELLS}"
        )
    table: list[int | float] = [math.inf] * base
    # The first lap in closed form: the multiples j a_2 for j < a_1 / gcd(a_1,
    # a_2), made by addition as the round robin makes its entries.  Past
    # 2^30 CPython keeps a sum in a block one digit longer than `range`
    # keeps the same value, and entries of one size let each later lap reuse
    # the memory it frees: 139 MB, not 180, at a_1 = 2,000,003 with k = 4.
    # With one coefficient, a = (1,), the lap is N[0] = 0 alone.
    second = coeffs[1] if len(coeffs) > 1 else base
    multiples = base // math.gcd(base, second)
    for n in accumulate(repeat(second, multiples - 1), initial=0):
        table[n % base] = n
    for coeff in coeffs[2:]:
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


def _rodseth(a1: int, a2: int, a3: int) -> int:
    """g of a pairwise coprime triple with 1 < a_1 < a_2 < a_3 (Rodseth 1978).

    Take s_0 with a_2 s_0 = a_3 mod a_1, 0 < s_0 < a_1, and the
    negative-remainder continued fraction s_{i-1} = q_{i+1} s_i - s_{i+1} of
    a_1 / s_0, with s_{-1} = a_1, p_{-1} = 0, p_0 = 1 and
    p_{i+1} = q_{i+1} p_i - p_{i-1}.  At the first v >= -1 with
    s_{v+1} / p_{v+1} <= a_3 / a_2,
    g = -a_1 + a_2 (s_v - 1) + a_3 (p_{v+1} - 1) - min(a_2 s_{v+1}, a_3 p_v)."""
    # (s_prev, p_prev) is (s_v, p_v) and (s, p) is (s_{v+1}, p_{v+1}).
    s_prev, p_prev, s, p = a1, 0, a3 * pow(a2, -1, a1) % a1, 1
    while a2 * s > a3 * p:
        delta, step = s_prev - s, p - p_prev
        if delta <= s:
            # Quotient 2 while s_i >= delta: s and p move in arithmetic
            # progression, so take the whole run, or as much of it as
            # reaches the stop test, a_2 (s - t delta) <= a_3 (p + t step),
            # at once.  Else s_0 = a_1 - 1 alone would take a_1 steps.
            t = min(s // delta, -((a3 * p - a2 * s) // (a2 * delta + a3 * step)))
            s_prev, p_prev = s - (t - 1) * delta, p + (t - 1) * step
            s, p = s_prev - delta, p_prev + step
        else:
            q = -(-s_prev // s)
            s_prev, p_prev, s, p = s, p, q * s - s_prev, q * p - p_prev
    return -a1 + a2 * (s_prev - 1) + a3 * (p - 1) - min(a2 * s, a3 * p_prev)


def _triple(a: Sequence[int]) -> int:
    """g of a coprime triple.  Johnson's g(a, b, c) = d g(a/d, b/d, c) +
    (d - 1) c for d = gcd(a, b) makes each pair coprime in turn, and dividing
    never gives a pair a common factor again, so one pass leaves the triple
    pairwise coprime; gcd(c, d) = 1 there, as the triple is coprime."""
    a = list(a)
    scale, shift = 1, 0
    for i, j, other in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        d = math.gcd(a[i], a[j])
        shift += scale * (d - 1) * a[other]
        scale *= d
        a[i] //= d
        a[j] //= d
    g = -1 if 1 in a else _rodseth(*sorted(a))
    return scale * g + shift


def frobenius_exact(a: Sequence[int]) -> int:
    """The largest integer with no representation; -1 when 1 is a coefficient.

    Requires a coprime tuple.  A pair is a_1 a_2 - a_1 - a_2, a triple
    Rodseth's formula, and any other tuple max(N) - a_1 on the residue
    table N."""
    coeffs = _require_coprime(as_coeffs(a), _NO_FROBENIUS)
    if len(coeffs) == 2:
        a1, a2 = coeffs
        return a1 * a2 - a1 - a2
    if len(coeffs) == 3:
        return _triple(coeffs)
    table = _residue_table(coeffs)
    return max(table) - len(table)


def bound_frobenius(a: Sequence[int]) -> FrobeniusReport:
    """The Frobenius number of a coprime tuple with k >= 2 and its upper
    bound brauer_upper = s-_k, read off the lower shift sequence."""
    coeffs = as_coeffs(a)
    g = frobenius_exact(coeffs)
    brauer_upper = bound_sequences(coeffs).lower_shifts[-1].numerator
    return FrobeniusReport(coeffs=coeffs, g=g, brauer_upper=brauer_upper)
