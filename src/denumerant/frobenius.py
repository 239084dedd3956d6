"""The Frobenius number and the upper bound on it from the shift sequences.

The exact Frobenius number g takes one route by k, after the tuple is
checked coprime:

* a single coefficient: it is 1, as the tuple is coprime, so g = -1;
* a pair: Sylvester's g = a_1 a_2 - a_1 - a_2;
* a triple: g = max Ap - a_1, for Ap the Apery set of the semigroup with
  respect to a_1 (Ramirez Alfonsin, "The Diophantine Frobenius Problem",
  OUP 2005, section 2.2).  `_apery` writes Ap as a few boxes, by
  Johnson's gluing down to a pairwise coprime triple and Rodseth's L-shape
  there, in O(log a_1) steps of big-int arithmetic at any size, and max Ap
  is the largest box top;
* k >= 4: the residue table of a_1 = min(a) cells, N[r] the least
  representable number congruent to r mod a_1, and g = max(N) - a_1.  It is
  seeded with the boxes of the three smallest coefficients, and each
  further coefficient takes one lap of the round robin (Boecker & Liptak,
  "A fast and simple algorithm for the money changing problem",
  Algorithmica 2007): k - 3 laps, O((k - 2) a_1) steps.

For a coprime tuple, every n > s-_k has at least one representation, so
g <= s-_k.  The verify sweep builds the plain round-robin table, whose
first lap is the multiples of a_2 and which laps every further coefficient,
certifies it by three local relations that hold of the shortest-path table
alone, and compares g with it for every k: a closed form for k <= 2, the
boxes for k = 3 and the table they seed for k >= 4.

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


def _cells(base: int) -> list[int | float]:
    """A residue table of ``base`` cells, all infinite, refused before it is
    allocated when it is over the cap."""
    if base > FROBENIUS_MAX_CELLS:
        raise BudgetExceededError(
            f"the residue table needs {base} table cells, over the cap of "
            f"{FROBENIUS_MAX_CELLS}"
        )
    return [math.inf] * base


# A box (start, ((step, count), ...)) holds the values start + sum x_i step_i
# for 0 <= x_i < count_i; every count is at least 1.
_Box = tuple[int, tuple[tuple[int, int], ...]]


def _fill(
    table: list[int | float], boxes: Sequence[_Box], coeffs: Sequence[int]
) -> list[int | float]:
    """``table`` with each value of each box written at its residue, and
    then each of ``coeffs`` added by walking the d = gcd(a_1, a_i) residue
    classes round robin.  A box is written as rows along its longest side,
    one row start + i step for i < count per value of its other sides: at
    most sqrt(m n) rows for an m by n box."""
    base = len(table)
    for start, sides in boxes:
        (step, count), *others = sorted(sides, key=lambda side: side[1], reverse=True)
        starts = [start]
        for gap, rows in others:
            starts = [s + i * gap for s in starts for i in range(rows)]
        # Each row is made by addition, as the round robin makes its entries.
        # Past 2^30 CPython keeps a sum in a block one digit longer than
        # `range` keeps the same value, and entries of one size let each lap
        # reuse the memory it frees: 139 MB, not 180, at a_1 = 2,000,003 with
        # k = 4.
        for row in starts:
            for n in accumulate(repeat(step, count - 1), initial=row):
                table[n % base] = n
    for coeff in coeffs:
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


def _residue_table(a: Sequence[int]) -> list[int | float]:
    """N[r], the smallest representable number congruent to r mod a_1 = min(a).

    Requires a coprime tuple, so every entry ends finite.  a_2 fills the
    classes j a_2 mod a_1 with j a_2 for j < a_1 / gcd(a_1, a_2), a box of one
    side; each further a_i is added by a round-robin lap.  The plain route,
    which the verify sweep certifies and compares every g with."""
    coeffs = sorted(_require_coprime(as_coeffs(a), _NO_FROBENIUS))
    base = coeffs[0]
    table = _cells(base)
    # With one coefficient, a = (1,), the first lap is N[0] = 0 alone.
    second = coeffs[1] if len(coeffs) > 1 else base
    return _fill(table, [(0, ((second, base // math.gcd(base, second)),))], coeffs[2:])


def _seeded_table(a: Sequence[int]) -> list[int | float]:
    """The residue table of a coprime tuple with k >= 3, seeded with the
    boxes of Ap(<a_1, a_2, a_3>; a_1) of its three smallest coefficients, so
    that only a_4, ..., a_k take a round-robin lap."""
    a1, a2, a3, *rest = sorted(a)
    table = _cells(a1)  # the cap is checked before any box is built
    return _fill(table, _apery(a1, a2, a3), rest)


def _top(box: _Box) -> int:
    """The largest value of a box, start + sum step (count - 1)."""
    top, sides = box
    for step, count in sides:
        top += step * (count - 1)
    return top


def _scaled(boxes: list[_Box], d: int, *side: tuple[int, int]) -> list[_Box]:
    """Each box with its start and steps times d, and ``side`` added."""
    return [
        (d * start, (*[(d * step, n) for step, n in sides], *side)) for start, sides in boxes
    ]


def _apery(a: int, b: int, c: int) -> list[_Box]:
    """Ap(<a, b, c>; a), the least element of the semigroup <a, b, c> in each
    residue class mod a that it meets, as boxes (see `_Box`).

    A 1 leaves {0} or range(a), one box of one side.  A common factor e of
    all three scales the boxes of (a/e, b/e, c/e).  Johnson's gluing peels a
    factor d shared by two coefficients: for d = gcd(a, b), each w of
    Ap(<a/d, b/d, c>; a/d) gives d w + t c for t < d, so each box is scaled
    by d and takes the side (c, d), and the same with b and c swapped; for
    d = gcd(b, c) the set is d Ap(<a, b/d, c/d>; a).  A pairwise coprime
    triple gives Rodseth's L-shape {x b + y c : x < s_v, y < p_{v+1}} less
    the corner x >= s_v - s_{v+1}, y >= p_{v+1} - p_v, as two boxes of two
    sides: the rows y < p_{v+1} - p_v of s_v values, and the p_v rows above
    them of s_v - s_{v+1} values, which are none when p_v = 0."""
    if 1 in (a, b, c):
        return [(0, ((1, a),))]
    if (e := math.gcd(a, b, c)) > 1:
        return _scaled(_apery(a // e, b // e, c // e), e)
    if (d := math.gcd(a, b)) > 1:
        return _scaled(_apery(a // d, b // d, c), d, (c, d))
    if (d := math.gcd(a, c)) > 1:
        return _scaled(_apery(a // d, c // d, b), d, (b, d))
    if (d := math.gcd(b, c)) > 1:
        return _scaled(_apery(a, b // d, c // d), d)
    s_v, p_v, s_w, p_w = _rodseth(a, b, c)
    full = p_w - p_v
    boxes = [(0, ((b, s_v), (c, full)))]
    if p_v:
        boxes.append((full * c, ((b, s_v - s_w), (c, p_v))))
    return boxes


def _rodseth(a1: int, a2: int, a3: int) -> tuple[int, int, int, int]:
    """(s_v, p_v, s_{v+1}, p_{v+1}) for a pairwise coprime triple with
    a_1, a_2, a_3 > 1, in any order (Rodseth 1978).

    Take s_0 with a_2 s_0 = a_3 mod a_1, 0 < s_0 < a_1, and the
    negative-remainder continued fraction s_{i-1} = q_{i+1} s_i - s_{i+1} of
    a_1 / s_0, with s_{-1} = a_1, p_{-1} = 0, p_0 = 1 and
    p_{i+1} = q_{i+1} p_i - p_{i-1}.  v is the first v >= -1 with
    s_{v+1} / p_{v+1} <= a_3 / a_2.  These give `_apery`'s L-shape, whose
    larger arm top a_2 (s_v - 1) + a_3 (p_{v+1} - 1) - min(a_2 s_{v+1},
    a_3 p_v) is Rodseth's g + a_1."""
    # (s_prev, p_prev) is (s_v, p_v) and (s, p) is (s_{v+1}, p_{v+1}).  The
    # test stays strict: when a_1 is not the smallest, a_2 s = a_3 p can hold
    # with s > 0, and there the run jump would take t = 0 and never end.
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
    return s_prev, p_prev, s, p


def frobenius_exact(a: Sequence[int]) -> int:
    """The largest integer with no representation; -1 when 1 is a coefficient.

    Requires a coprime tuple.  A pair is a_1 a_2 - a_1 - a_2, a triple the
    largest top of its Apery boxes less a_1, and any other tuple
    max(N) - a_1 on the residue table N seeded with the boxes of its three
    smallest coefficients."""
    coeffs = _require_coprime(as_coeffs(a), _NO_FROBENIUS)
    if len(coeffs) == 1:  # the one coprime single coefficient is 1
        return -1
    if len(coeffs) == 2:
        a1, a2 = coeffs
        return a1 * a2 - a1 - a2
    if len(coeffs) == 3:
        a1, a2, a3 = sorted(coeffs)
        return max(map(_top, _apery(a1, a2, a3))) - a1
    table = _seeded_table(coeffs)
    return max(table) - len(table)


def bound_frobenius(a: Sequence[int]) -> FrobeniusReport:
    """The Frobenius number of a coprime tuple with k >= 2 and its upper
    bound brauer_upper = s-_k, read off the lower shift sequence."""
    coeffs = as_coeffs(a)
    g = frobenius_exact(coeffs)
    brauer_upper = bound_sequences(coeffs).lower_shifts[-1].numerator
    return FrobeniusReport(coeffs=coeffs, g=g, brauer_upper=brauer_upper)
