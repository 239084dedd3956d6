"""Exact solution counting for a_1*x_1 + ... + a_k*x_k = n over the naturals.

Three independent routes to the same number:

* ``oracle_count``: brute-force enumeration with a node budget.  Slow and
  obviously correct; everything else is checked against it.
* ``denumerant``: gcd reduction followed by the prefix recurrence

      D_{k+1}(n) = sum_{l=0}^{[n/a_{k+1}]} D_k(n - a_{k+1} * l),

  evaluated bottom-up as one row D(0..cap) per tuple.  The inner sum
  telescopes to D_j(m) = D_{j-1}(m) + D_j(m - a_j): a running sum along
  each residue class mod a_j, a strided chunk of the class at a time.
* ``popoviciu``: the closed form for two coprime coefficients.

The row cache is keyed on the sorted reduced tuple alone, since the count
does not depend on coefficient order, and holds one row per tuple: the
largest built so far, whose power-of-two cap answers every smaller target.
A larger target rebuilds the row at its own cap and replaces the old one.
A coefficient 1 folds in as a plain running sum, so a tuple with ones is
built from the cached row of the tuple without them, sliced to the cap it
needs.  That is how ``extended_count``, which counts the relaxed problem
sum <= n by adding a slack variable with coefficient 1, reuses the row that
``denumerant`` built for the same tuple.  ``prefix_sum_count`` and the
``frobenius`` verify suite read every count up to n from one row
(``_reduced_counts``) instead of counting each target.  A finished row is
stored in one unsigned 64-bit ``array``: one word per cell when every
entry fits, and otherwise L words per cell, each cell's count as 8*L
little-endian bytes.
Running sums and packing go a chunk at a time, so a build holds one row
of ints and, whatever the coefficient, one chunk.  A cap over
``DENUMERANT_MAX_CELLS`` raises BudgetExceededError before anything is
allocated.
"""

from __future__ import annotations

import math
import threading
from array import array
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
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
# before anything is allocated.  On a 2-core x86-64 host `count` at this cap
# peaked at 280 MB RSS in 1.2-1.4 s for (3, 5, 7, 11), and at 340 MB in
# 2.6-2.8 s for (1,) * 8, whose entries take three 64-bit limbs.
DENUMERANT_MAX_CELLS = 1 << 22

# Cells of one residue class per step of a running sum, and per step of
# packing or unpacking a row, so that a build holds one row and one chunk.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class CountResult:
    """An exact count and the route that produced it."""

    value: int
    method: str


class _OracleBudget:
    """The oracle loop nodes spent so far by the enumerations that share it,
    against a cap of ORACLE_MAX_NODES read when it is made.

    ``oracle_count`` makes a fresh one per call unless it is given one; the
    CLI gives every target of one ``count --method oracle --n-range`` the
    same one, so the constant bounds the whole command.
    """

    __slots__ = ("cap", "nodes")

    def __init__(self) -> None:
        self.cap = ORACLE_MAX_NODES
        self.nodes = 0


def oracle_count(
    a: Sequence[int], n: int, budget: _OracleBudget | None = None
) -> CountResult:
    """Count solutions by nested enumeration within a node budget.

    Coefficients are enumerated largest first so the outer loops branch the
    least; the final variable is resolved by a divisibility test instead of
    a loop.  The nodes come out of ``budget``, by default a fresh one of
    ORACLE_MAX_NODES nodes.  Past it the call raises BudgetExceededError
    (use the recursion route for anything desk-scale enumeration cannot
    reach).
    """
    coeffs = as_coeffs(a)
    _require_natural(n)
    if budget is None:
        budget = _OracleBudget()
    cap, nodes = budget.cap, budget.nodes

    order = sorted(coeffs, reverse=True)
    heads, last = order[:-1], order[-1]

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

    try:
        return CountResult(count_from(0, n), "oracle")
    finally:
        budget.nodes = nodes


class _Row:
    """D(0), ..., D(cap) for one tuple, packed in unsigned 64-bit words.

    ``limbs`` words per cell: one when every count fits in 64 bits, and
    otherwise enough to hold each count as 8 * limbs little-endian bytes.
    """

    __slots__ = ("cap", "limbs", "cells")

    def __init__(self, counts: list[int], top: int) -> None:
        # top is the largest count in the row.
        self.cap = len(counts) - 1
        self.limbs = max(1, -(-top.bit_length() // 64))
        if self.limbs == 1:
            self.cells = array("Q", counts)
            return
        width = 8 * self.limbs
        self.cells = array("Q")
        for start in range(0, len(counts), _CHUNK):
            chunk = counts[start : start + _CHUNK]
            self.cells.frombytes(b"".join([v.to_bytes(width, "little") for v in chunk]))

    def __getitem__(self, m: int) -> int:
        if self.limbs == 1:
            return self.cells[m]
        raw = self.cells[m * self.limbs : (m + 1) * self.limbs].tobytes()
        return int.from_bytes(raw, "little")

    def counts(self, cap: int) -> list[int]:
        """D(0), ..., D(cap) as ints, for a cap no larger than the row's."""
        if self.limbs == 1:
            return memoryview(self.cells)[: cap + 1].tolist()
        width = 8 * self.limbs
        counts: list[int] = []
        for start in range(0, cap + 1, _CHUNK):
            stop = min(start + _CHUNK, cap + 1)
            raw = self.cells[start * self.limbs : stop * self.limbs].tobytes()
            counts += [
                int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)
            ]
        return counts


def _build_row(key: tuple[int, ...], cap: int) -> _Row:
    # counts[m] = number of solutions at target m for the sorted tuple key.
    # Folding in a coefficient c is a running sum along each residue class
    # mod c; c = 1 has one class, the whole row, so the leading ones fold
    # into the cached row of the rest of the tuple.
    ones = key.count(1)
    if 0 < ones < len(key):
        counts = _prefix_counts(key[ones:], cap).counts(cap)
        passes = key[:ones]
    else:
        first, *passes = key
        counts = [0] * (cap + 1)
        counts[::first] = [1] * (cap // first + 1)
    for coeff in passes:
        # Each class is summed _CHUNK of its cells at a time, band by band.
        # A chunk starts on the last cell of the one before it in its class,
        # which is final, so the sum carries on from there.  Only classes
        # with two or more cells change, so a coefficient over the cap adds
        # nothing.
        for band in range(0, cap + 1 - coeff, coeff * (_CHUNK - 1)):
            for start in range(band, min(band + coeff, cap + 1 - coeff)):
                chunk = slice(start, start + coeff * _CHUNK, coeff)
                counts[chunk] = accumulate(counts[chunk])
    # One more key[0] turns a solution at m into one at m + key[0], so the
    # largest count sits in the last key[0] cells.
    return _Row(counts, max(counts[-key[0] :]))


_CacheInfo = namedtuple("_CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class _RowCache:
    """One DP row per sorted reduced tuple, the least recently used out first.

    A lookup hits when the tuple's row reaches the cap asked for; otherwise
    the row is built at that cap and replaces the old one.  The lock guards
    the bookkeeping only, never a build, so concurrent callers may build the
    same row; the larger one is kept.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._rows: OrderedDict[tuple[int, ...], _Row] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = self._misses = 0

    def __call__(self, key: tuple[int, ...], cap: int) -> _Row:
        with self._lock:
            row = self._rows.get(key)
            if row is not None and row.cap >= cap:
                self._rows.move_to_end(key)
                self._hits += 1
                return row
            # A short row is rebuilt, not extended: drop it before the build.
            self._rows.pop(key, None)
            self._misses += 1
        row = _build_row(key, cap)
        with self._lock:
            kept = self._rows.get(key)
            if kept is not None and kept.cap >= row.cap:
                row = kept
            self._rows[key] = row
            self._rows.move_to_end(key)
            if len(self._rows) > self.maxsize:
                self._rows.popitem(last=False)
        return row

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self._hits, self._misses, self.maxsize, len(self._rows))

    def cache_clear(self) -> None:
        with self._lock:
            self._rows.clear()
            self._hits = self._misses = 0


_prefix_counts = _RowCache(maxsize=32)


def _reduced_row(coeffs: tuple[int, ...], n: int, d: int) -> _Row:
    """The cached row of a/d, d = gcd(a), that reaches n // d.

    Raises BudgetExceededError when it would span more than
    DENUMERANT_MAX_CELLS cells.
    """
    m = n // d
    # Round the table size up to a power of two, so that a rebuild at least
    # doubles the row and nearby targets share it.
    cap = max(256, 1 << m.bit_length())
    if cap > DENUMERANT_MAX_CELLS:
        raise BudgetExceededError(
            f"the table for {coeffs} at n={n} needs {cap} cells, over the "
            f"cap of {DENUMERANT_MAX_CELLS}"
        )
    return _prefix_counts(tuple(sorted(c // d for c in coeffs)), cap)


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
    return CountResult(_reduced_row(coeffs, n, d)[n // d], "recursion")


def _reduced_counts(a: Sequence[int], n: int) -> list[int]:
    """D(a/d, 0), ..., D(a/d, n // d) for d = gcd(a), read from one cached row.

    D(a, m) is entry m / d when d divides m and 0 otherwise, so for a
    coprime tuple the list is D(a, 0), ..., D(a, n).  The row is the one
    ``denumerant`` reads at d * (n // d), under the same budget.
    """
    coeffs = as_coeffs(a)
    _require_natural(n)
    d = math.gcd(*coeffs)
    return _reduced_row(coeffs, n, d).counts(n // d)


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
    return denumerant(slack_tuple, n // d)
