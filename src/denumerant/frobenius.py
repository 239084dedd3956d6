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
* k >= 4: while some k - 1 coefficients share a factor d > 1, Johnson's
  reduction g(a) = d g(a' / d, a_j) + (d - 1) a_j (Johnson 1960; Brauer &
  Shockley 1962) divides them by d.  Then the residue table of
  a_1 = min(a) cells, N[r] the least representable number congruent to r
  mod a_1, and g = max(N) - a_1.  It is seeded with the boxes of the three
  smallest coefficients, and each further coefficient takes one lap of the
  round robin (Boecker & Liptak, "A fast and simple algorithm for the money
  changing problem", Algorithmica 2007).  The table is laid out in the last
  coefficient's lap order, so that the last lap reads each of its classes
  as one slice and keeps only the running maximum: k - 4 laps that write
  and one that reads, O((k - 2) a_1) steps on the reduced a_1.

For a coprime tuple, every n > s-_k has at least one representation, so
g <= s-_k.  The verify sweep builds the plain round-robin table, which
starts from N[0] = 0 and laps every coefficient past a_1, writing no box,
certifies it by three local relations that hold of the shortest-path table
alone, and compares g with it for every k: a closed form for k <= 2, the
boxes for k = 3 and, for k >= 4, the reduction and the laid-out table the
boxes seed.

No lower bound on g comes from the sandwich.  Its upper bound
(n + s+_k)^(k-1) / ((k-1)! prod a) is at least D(0) = 1 at n = 0, the
relaxed bound (n + r_k)^k / (k! prod a) is at least the relaxed count 1
there, and both grow with n.  So "upper bound < 1, hence not representable"
holds for no n >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from typing import Sequence

from .bounds import _require_two, _shift_numerators
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
    table: list[int | float], boxes: Sequence[_Box], coeffs: Sequence[int], x: int
) -> list[int | float]:
    """``table`` with each value n of each box written at position n x mod
    a_1, and then each of ``coeffs`` added by walking the d = gcd(a_1, a_i)
    residue classes round robin.  x is a unit mod a_1 = len(table), so
    residue r sits at r x mod a_1: x = 1 is the plain layout, and a_i
    steps the position by a_i x mod a_1.  A box is written as rows along its
    longest side, one row start + i step for i < count per value of its
    other sides: at most sqrt(m n) rows for an m by n box."""
    base = len(table)
    for start, sides in boxes:
        (step, count), *others = sorted(sides, key=lambda side: side[1], reverse=True)
        starts = [start]
        for gap, rows in others:
            starts = [s + i * gap for s in starts for i in range(rows)]
        # Each row is made by addition, as the laps make their entries.  Past
        # 2^30 CPython keeps a sum in a block one digit longer than `range`
        # keeps the same value, and entries of one size let a lap that
        # writes reuse the memory it frees: 139 MB, not 178, at
        # a_1 = 2,000,003 with k = 5.  The last lap writes nothing, so with
        # k = 4 the rows alone make the peak, 123 MB there.
        for row in starts:
            for n in accumulate(repeat(step, count - 1), initial=row):
                table[n * x % base] = n
    for coeff in coeffs:
        d = math.gcd(base, coeff)
        # The position of n + a_i is that of n plus a_i x, wrapped below a_1.
        step = coeff * x % base
        cut, back = base - step, step - base
        for start in range(d):
            # Adding a_i cannot lower the class minimum, so a lap started
            # there settles every entry of the class.
            n = min(table[start::d])
            if n == math.inf:
                continue
            p = n * x % base
            for _ in range(base // d):
                n += coeff
                p = p + back if p >= cut else p + step
                if table[p] < n:
                    n = table[p]
                else:
                    table[p] = n
    return table


def _lap_order(base: int, coeff: int) -> int:
    """x, a unit mod ``base`` with coeff x = d mod base for d = gcd(base,
    coeff): (coeff / d)^-1 mod base / d, raised by base / d until it is
    coprime to base.  Laid out by x, the lap of ``coeff`` visits each of its
    residue classes as one slice table[j::d], in order."""
    d = math.gcd(base, coeff)
    x = pow(coeff // d, -1, base // d)
    while math.gcd(x, base) > 1:
        x += base // d
    return x


def _last_lap_top(table: list[int | float], coeff: int) -> int | float:
    """max(N) once ``coeff`` takes its round-robin lap on ``table``, laid
    out by `_lap_order` for it, writing nothing.  Each class table[j::d] is
    read once from its minimum, and a running entry n becomes
    min(n + coeff, c) at each cell c.  n only grows between the cells that
    undercut it, so the largest n is one met just before such a cell or at
    the end.  A class whose minimum is infinite makes the maximum infinite."""
    base = len(table)
    d = math.gcd(base, coeff)
    peak = -math.inf  # the largest n + coeff that a cell undercut
    for start in range(d):
        # A class of d > 1 is sliced out: islice would walk the whole table.
        cells = table[start::d] if d > 1 else table
        n = min(cells)
        if n == math.inf:
            return n
        i = cells.index(n)
        for c in chain(islice(cells, i + 1, None), islice(cells, i)):
            n += coeff
            if c < n:
                if n > peak:
                    peak = n
                n = c
        peak = max(peak, n + coeff)
    return peak - coeff


def _residue_table(a: Sequence[int]) -> list[int | float]:
    """N[r], the smallest representable number congruent to r mod a_1 = min(a).

    Requires a coprime tuple, so every entry ends finite.  The table starts
    as N[0] = 0 alone, and every a_i past a_1 is added by a round-robin lap,
    with no box.  The plain route, which the verify sweep certifies and
    compares every g with."""
    coeffs = sorted(_require_coprime(as_coeffs(a), _NO_FROBENIUS))
    table = _cells(coeffs[0])
    table[0] = 0
    return _fill(table, [], coeffs[1:], 1)


def _johnson(coeffs: list[int]) -> tuple[int, int, list[int]]:
    """(s, t, b) with g(a) = s g(b) + t, for a sorted coprime tuple a and b
    sorted, of the same length, with no k - 1 coefficients sharing a factor.

    While some k - 1 coefficients a' share a factor d > 1, g(a) =
    d g(a' / d, a_j) + (d - 1) a_j for a_j the one left out (Johnson 1960;
    Brauer & Shockley 1962), and a' / d with a_j is again coprime."""
    scale, shift = 1, 0
    j = 0
    while j < len(coeffs):
        rest = coeffs[:j] + coeffs[j + 1 :]
        d = math.gcd(*rest)
        if d > 1:
            shift += scale * (d - 1) * coeffs[j]
            scale *= d
            coeffs, j = sorted([c // d for c in rest] + [coeffs[j]]), 0
        else:
            j += 1
    return scale, shift, coeffs


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
    largest top of its Apery boxes less a_1, and any other tuple is first
    reduced by `_johnson`, then read as max(N) - a_1 on the residue table N
    of the reduced tuple: seeded with the boxes of its three smallest
    coefficients, laid out by `_lap_order` for its largest, whose lap
    `_last_lap_top` reads."""
    coeffs = _require_coprime(as_coeffs(a), _NO_FROBENIUS)
    if len(coeffs) == 1:  # the one coprime single coefficient is 1
        return -1
    if len(coeffs) == 2:
        a1, a2 = coeffs
        return a1 * a2 - a1 - a2
    if len(coeffs) == 3:
        a1, a2, a3 = sorted(coeffs)
        return max(map(_top, _apery(a1, a2, a3))) - a1
    scale, shift, (a1, a2, a3, *middle, last) = _johnson(sorted(coeffs))
    x = _lap_order(a1, last)
    table = _fill(_cells(a1), _apery(a1, a2, a3), middle, x)
    return scale * (_last_lap_top(table, last) - a1) + shift


def bound_frobenius(a: Sequence[int]) -> FrobeniusReport:
    """The Frobenius number of a coprime tuple with k >= 2 and its upper
    bound brauer_upper = s-_k, the last lower shift, read as the integer it
    is along the gcd chain."""
    coeffs = as_coeffs(a)
    g = frobenius_exact(coeffs)
    lower, _ = _shift_numerators(_require_two(coeffs))
    return FrobeniusReport(coeffs=coeffs, g=g, brauer_upper=lower[-1])
