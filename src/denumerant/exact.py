"""Exact solution counting for a_1*x_1 + ... + a_k*x_k = n over the naturals.

Three independent routes to the same number:

* ``oracle_count``: brute-force enumeration with a node budget.  Slow and
  obviously correct; everything else is checked against it.  Its table,
  n + 1 cells of 8 bytes, is built and read only at the loop of the
  third-smallest coefficient, once the takes of the loop below would pass
  n + 1 within the budget.
* ``denumerant``: gcd reduction followed by the prefix recurrence

      D_{k+1}(n) = sum_{l=0}^{[n/a_{k+1}]} D_k(n - a_{k+1} * l),

  evaluated bottom-up as one row D(0..cap) per tuple.  The inner sum
  telescopes to D_j(m) = D_{j-1}(m) + D_j(m - a_j): a running sum along
  each residue class mod a_j.
* ``popoviciu``: the closed form for two coprime coefficients.

The row cache is keyed on the sorted reduced tuple alone, since the count
does not depend on coefficient order, and holds one row per tuple: the
largest built so far, which answers every target up to its cap.  A row
within one segment of ``_CHUNK`` cells (see below) is sized to the target
it serves, rounded up to an eighth of that target's octave; a longer one
to the power of two that covers its target (``_row_cap``).  A larger
target extends the row, at least doubling it up to that power of two,
building only the new cells, and the longer row replaces the old one.
The cache is bounded in words, not rows: once the rows it holds pass
``ROW_CACHE_MAX_WORDS`` 64-bit words of packed cells (see below), the
least recently used are evicted, but the row just stored is always kept.
That bookkeeping, ``_WordCache``, also keeps ``bounds``' prepared sandwiches.
A row also keeps the running sum D(0) + ... + D(m - 1) at every multiple m
of ``_BLOCK`` cells, so ``extended_count``, which counts the relaxed
problem sum <= n, reads the same cached row as ``denumerant`` and adds at
most ``_BLOCK - 1`` of its cells to one of those sums.
Every read of a row goes through a ``_RowReader``, which holds one tuple's
row across targets and looks it up again only when a target passes its cap:
``denumerant`` and ``extended_count`` are a reader at one target, and the
CLI's ``count``, ``bounds`` and ``dhat`` read a whole ``--n-range`` with one,
a list of counts per held row (``spans``).
A reader's ``counts`` yields a span of the row as ints, a chunk at a time:
``prefix_sum_count`` sums every count up to n from it instead of counting
each target, and the ``frobenius`` verify suite reads only its window above g.
No module but this one handles a row itself.  A finished row is stored as
planes of unsigned 64-bit words, each an ``array`` of one word a cell:
plane i holds bits 64 i to 64 i + 63 of every count, so a row whose counts
fit in 64 bits has one.
A row is built one segment at a time, every coefficient folding into a
segment before the next one starts and carrying its last counts over, and
the segment is packed, so a build holds a segment of ints, not a row.  A
segment spans ``_CHUNK`` cells, or the sum of the folded coefficients when
that is larger, and a short row is extended when it holds that many cells
and built again from 0 otherwise.  A target whose counts D(0..n // d) span
more than ``DENUMERANT_MAX_CELLS`` cells raises BudgetExceededError before
anything is allocated.
"""

from __future__ import annotations

import math
import sys
import threading
from array import array
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add, countOf, sub
from typing import Any, Callable, Hashable, Iterator, Sequence

from .core import (
    BudgetExceededError,
    InvariantViolationError,
    _require_coprime,
    _require_natural,
    as_coeffs,
)

# The most loop nodes one oracle enumeration may visit.
ORACLE_MAX_NODES = 10_000_000

# The most cells one DP row may span, checked against the n // d + 1 cells
# a target needs before anything is allocated.  On a 2-core x86-64 host
# `count` at this cap peaked at 53 MB RSS in about 1.0 s for (3, 5, 7, 11),
# and at 120 MB in 1.9-2.5 s for (1,) * 8, whose counts take three planes
# of 64-bit words.
DENUMERANT_MAX_CELLS = 1 << 22

# The most 64-bit words (one a cell a plane) the DP rows in the row cache
# may hold together, 64 MiB of cells: past it the least recently used rows
# are evicted, though the row just stored always stays.  Every row of a
# verify process at the acceptance configs fits in about 0.65 M words, and
# count-stream's largest working set is 2.10 M words in 8 rows.
ROW_CACHE_MAX_WORDS = 1 << 23

# Cells of one segment of a row build, and of one step of a running sum, of
# packing or of unpacking, so that a build holds one segment of ints.
_CHUNK = 1 << 14

# Cells between the running sums a row keeps, and so the most cells a
# relaxed count adds to one of them.
_BLOCK = 64

# The array typecode of one unsigned 64-bit word.  'L' converts an int
# through PyLong_AsUnsignedLong, several times faster than 'Q' does for
# values of 2^30 or more, so it is used wherever it is 64 bits wide.
_WORD = "L" if array("L").itemsize == 8 else "Q"


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
    least; the final variable, of the smallest coefficient ``last``, is
    resolved by a divisibility test over all the takes of the one before it,
    h, in one pass.  A node is one take of a variable before the final one;
    a range of takes is counted when it is entered, and the nodes come out
    of ``budget``, by default a fresh one of ORACLE_MAX_NODES nodes.  The
    call raises BudgetExceededError (use the recursion route for anything
    desk-scale enumeration cannot reach) at the first range that passes it.

    The table is built and read only at the level of g, the variable before
    h, so only a tuple of three or more coefficients has one.  hits[s]
    counts the takes s, s - h, ..., 0 or more that ``last`` divides: an
    ``array('q')`` of n + 1 cells of 8 bytes, each at most n // h + 1.  A
    range of takes of g adds the s // h + 1 nodes under each of its takes s.
    The first range that fits in the budget and whose takes of h, with those
    sent down before it, pass n + 1 builds the table, so its cells are fewer
    than the nodes the budget admits; from then on every range that fits is
    read with one strided slice sum.  Any other range goes down one take at
    a time, so a call raises at the node it would raise at without the
    table, and one whose takes of h never pass n + 1 allocates none.
    """
    coeffs = as_coeffs(a)
    _require_natural(n)
    if budget is None:
        budget = _OracleBudget()
    cap, nodes = budget.cap, budget.nodes

    order = sorted(coeffs, reverse=True)
    heads, last = order[:-1], order[-1]
    if not heads:
        return CountResult(int(n % last == 0), "oracle")
    # h, the variable before the final one, is the deepest level, and g, the
    # one before h, the only level that builds or reads the table.
    deepest, h = len(heads) - 1, heads[-1]
    # Depth first, with one iterator over the takes left at each level above
    # the final one, not one call per level, so no tuple is too long.  A
    # level's takes are counted as nodes when its range is made.  ``tested``
    # counts the takes of h sent down to be tested; ``hits`` is the table.
    levels: list[Iterator[int]] = []
    total, residual, tested = 0, n, 0
    hits: array | None = None
    try:
        while True:
            depth = len(levels)
            coeff = heads[depth]
            nodes += residual // coeff + 1
            if nodes > cap:
                raise BudgetExceededError(
                    f"enumeration budget of {cap} nodes exhausted for "
                    f"coefficients {coeffs} at n={n}"
                )
            takes = range(residual, -1, -coeff)
            if depth == deepest:
                if hits is None:
                    # The last variable takes what is left when ``last`` divides it.
                    total += countOf(map(last.__rmod__, takes), 0)
                else:
                    # Only over the budget, one take of g at a time.
                    total += hits[residual]
            elif depth < deepest - 1:
                levels.append(iter(takes))
            else:
                # Each take s of g adds the s // h + 1 nodes of its takes of h.
                below = sum(map(h.__rfloordiv__, takes)) + len(takes)
                if nodes + below > cap or (hits is None and tested + below <= n + 1):
                    tested += below
                    levels.append(iter(takes))
                else:
                    if hits is None:
                        hits = _oracle_table(n, h, last)
                    nodes += below
                    total += sum(hits[residual % coeff : residual + 1 : coeff])
            # Go on from the next take of the deepest level that has one left.
            while levels:
                residual = next(levels[-1], None)
                if residual is not None:
                    break
                levels.pop()
            else:
                return CountResult(total, "oracle")
    finally:
        budget.nodes = nodes


def _oracle_table(n: int, h: int, last: int) -> array:
    """The oracle's table hits[s] = [last | s] + hits[s - h], s = 0..n: a
    running sum along each class mod h, of which a class of one cell is its
    own sum.

    The indicator and the sums are written in place through a view of the
    table, at most ``_CHUNK`` cells of a class at a time, so that the table
    is the only allocation that grows with n.  A class's chunk starts on
    the last cell of the one before it, which is final, so the sum carries
    on from there.
    """
    hits = array("q", [0]) * (n + 1)
    with memoryview(hits) as cells:
        for first in range(0, n + 1, last * _CHUNK):
            chunk = cells[first : first + last * _CHUNK : last]
            chunk[:] = array("q", [1]) * len(chunk)
        for start in range(min(h, n + 1 - h)):
            for first in range(start, n + 1 - h, h * (_CHUNK - 1)):
                chunk = cells[first : first + h * _CHUNK : h]
                chunk[:] = array("q", accumulate(chunk))
    return hits


class _Row:
    """D(0), ..., D(cap) for one tuple, packed in unsigned 64-bit words.

    ``planes[i]`` holds bits 64 i to 64 i + 63 of every cell, one word a
    cell: a row has one plane while every count fits in 64 bits, and gains a
    plane of zeros when a count passes the planes it has.  ``sums[b]`` is
    D(0) + ... + D(b * _BLOCK - 1), for every block of ``_BLOCK`` cells the
    row completes.  A row grows by ``append``; ``_Row(row)`` copies row's
    planes and sums, so that a copy can grow while row is read.  Only
    ``counts`` combines planes into ints.
    """

    __slots__ = ("cap", "planes", "sums")

    def __init__(self, row: _Row | None = None) -> None:
        if row is None:
            self.cap, self.planes, self.sums = -1, [array(_WORD)], [0]
        else:
            self.cap, self.sums = row.cap, row.sums[:]
            self.planes = [plane[:] for plane in row.planes]

    def append(self, counts: list[int], top: int) -> None:
        """Pack counts as D(cap + 1), D(cap + 2), ...; top is the largest."""
        # The sums carry on from the last complete block, whose cells up to
        # cap are packed already; the next block ends at counts[end].
        lo = _BLOCK * (len(self.sums) - 1)
        total = self.sums[-1] + sum(self.counts(self.cap, lo))
        start = 0
        for end in range(lo + _BLOCK - self.cap - 1, len(counts) + 1, _BLOCK):
            total += sum(counts[start:end])
            self.sums.append(total)
            start = end
        while 64 * len(self.planes) < top.bit_length():
            self.planes.append(array(_WORD, [0]) * (self.cap + 1))
        limbs = len(self.planes)
        if limbs == 1:
            self.planes[0].fromlist(counts)
        else:
            # Each count as the little-endian bytes of its limbs, read back
            # as words in the host's order: limb i of each cell is word i of
            # its group, and goes to plane i.
            width = 8 * limbs
            for start in range(0, len(counts), _CHUNK):
                chunk = counts[start : start + _CHUNK]
                words = array(_WORD, b"".join([v.to_bytes(width, "little") for v in chunk]))
                if sys.byteorder == "big":
                    words.byteswap()
                for i, plane in enumerate(self.planes):
                    plane.extend(words[i::limbs])
        self.cap += len(counts)

    def __getitem__(self, m: int) -> int:
        if not 0 <= m <= self.cap:
            raise IndexError(f"D({m}) is outside the row D(0..{self.cap})")
        if len(self.planes) == 1:
            return self.planes[0][m]
        return self.counts(m, m)[0]

    def total(self, m: int) -> int:
        """D(0) + ... + D(m), for an m no larger than the row's cap."""
        if not 0 <= m <= self.cap:
            raise IndexError(f"D(0..{m}) is outside the row D(0..{self.cap})")
        block = (m + 1) // _BLOCK
        return self.sums[block] + sum(self.counts(m, block * _BLOCK))

    def counts(self, cap: int, start: int = 0) -> list[int]:
        """D(start), ..., D(cap) as ints, for a cap no larger than the row's."""
        if start < 0 or cap > self.cap:
            raise IndexError(f"D({start}..{cap}) is outside the row D(0..{self.cap})")
        top, *lower = reversed(self.planes)
        counts = top[start : cap + 1].tolist()
        for plane in lower:
            counts = [v << 64 | w for v, w in zip(counts, plane[start : cap + 1])]
        return counts


def _build_row(key: tuple[int, ...], cap: int, short: _Row | None = None) -> _Row:
    # D_0 is the indicator of the multiples of the smallest coefficient
    # above 1, or of 1 for a tuple of ones.  Each further coefficient c folds
    # in as one pass, D_j(m) = D_{j-1}(m) + D_j(m - c), the ones last.  A
    # segment goes through every pass before the next one starts, and each
    # pass carries its last c values of D_j into the next segment.  A
    # segment spans _CHUNK cells, or sum(passes) when that is larger, so the
    # carries together are never longer than the segment they enter.
    ones = key.count(1)
    base, *passes = key[ones:] + key[:ones]
    total = sum(passes)
    span = max(_CHUNK, total)
    if short is None or short.cap + 1 < total:
        row = _Row()
        carries: list[list[int]] = [[] for _ in passes]
    else:
        # Extend a copy of the short row, which holds at least sum(passes)
        # cells; a shorter one is built again from 0, which holds no more
        # ints.  D_{j-1}(m) = D_j(m) - D_j(m - c), so differencing its last
        # sum(passes) cells back through the passes gives every carry.
        row = _Row(short)
        window = row.counts(row.cap, row.cap + 1 - total)
        carries = []
        for coeff in reversed(passes):
            carries.append(window[-coeff:])
            window = list(map(sub, window[coeff:], window[:-coeff]))
        carries.reverse()
    while row.cap < cap:
        start = row.cap + 1
        stop = min(cap + 1, start - start % span + span)
        cells = [0] * (stop - start)
        multiples = range(-start % base, stop - start, base)
        cells[multiples.start :: base] = [1] * len(multiples)
        lead = 0
        for j, coeff in enumerate(passes):
            # cells holds this pass's carry, then D_{j-1} on the segment.
            cells[:lead] = carries[j]
            lead = len(carries[j])
            if coeff * coeff > 2 * len(cells):
                # Few cells per class: adding each block of coeff cells to
                # the block before it, at most _CHUNK at a time, takes about
                # len / coeff steps of two slices each, not coeff steps of one.
                step = min(coeff, _CHUNK)
                for first in range(coeff, len(cells), step):
                    block = slice(first, first + step)
                    before = slice(first - coeff, first - coeff + step)
                    cells[block] = map(add, cells[block], cells[before])
            else:
                # Each class is summed _CHUNK of its cells at a time, band by
                # band; a chunk starts on the last cell of the one before it
                # in its class, which is final, so the sum carries on from
                # there.
                end = len(cells) - coeff
                for band in range(0, end, coeff * (_CHUNK - 1)):
                    for first in range(band, min(band + coeff, end)):
                        chunk = slice(first, first + coeff * _CHUNK, coeff)
                        cells[chunk] = accumulate(cells[chunk])
            if stop <= cap:
                carries[j] = cells[-coeff:]
        del cells[:lead]
        # One more key[0] turns a solution at m into one at m + key[0], so
        # the largest count sits in the last key[0] cells.
        row.append(cells, max(cells[-key[0] :]))
    return row


_CacheInfo = namedtuple("_CacheInfo", ["hits", "misses", "maxsize", "currsize"])


def _row_cap(m: int, short: _Row | None) -> int:
    """The cap of the row built for target m, from the short row if any.

    Up to ``_CHUNK`` cells, a new row ends at m rounded up to an eighth of
    its octave, at least 32, and one that replaces a short row also at
    least doubles it, up to the power of two that covers m, so a rising
    target lengthens a row at most twice per octave.  A target past
    ``_CHUNK`` gets that power of two at once: lengthening a long row costs
    tens of milliseconds in whichever later call needs it, and rising
    targets, as in a stream of counts, would pay that again within the
    octave.  Either way the cap is at most max(32, 1 << m.bit_length()).
    """
    power = 1 << (m - 1).bit_length()
    if m > _CHUNK:
        return power
    grid = 1 << max(0, m.bit_length() - 3)
    cap = max(32, -(-m // grid) * grid)
    if short is not None:
        cap = max(cap, min(2 * short.cap, power))
    return cap


def _words(row: _Row) -> int:
    """The 64-bit words of row's planes, one a cell a plane."""
    return sum(map(len, row.planes))


class _WordCache:
    """Values by key, the least recently used out first, bounded in 64-bit
    words rather than entries.

    ``get`` returns the value held for a key when ``usable`` accepts it (by
    default any value held), a hit; otherwise, a miss, it makes one from the
    value held (None when there is none) and stores it.  ``words`` is the
    total of ``size`` over the values held.  After each store the least
    recently used values are evicted until ``words`` is at most
    ``budget()``, read at that store, but the value just stored is always
    kept, so a value over the budget is held alone.  The lock guards the bookkeeping only, never the making of a
    value, so concurrent callers may make one for the same key; of two, the
    one that holds more words is kept, the one held first on a tie.
    """

    def __init__(self, size: Callable[[Any], int], budget: Callable[[], int]) -> None:
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._size, self._budget = size, budget
        self._lock = threading.Lock()
        self._hits = self._misses = self.words = 0

    def get(
        self,
        key: Hashable,
        make: Callable[[Any], Any],
        usable: Callable[[Any], bool] | None = None,
    ) -> Any:
        with self._lock:
            value = self._entries.get(key)
            if value is not None and (usable is None or usable(value)):
                self._entries.move_to_end(key)
                self._hits += 1
                return value
            self._misses += 1
        # The value held stays held until the new one replaces it, so a make
        # that raises leaves the cache as it was.
        value = make(value)
        with self._lock:
            kept = self._entries.pop(key, None)
            if kept is not None:
                self.words -= self._size(kept)
                if self._size(kept) >= self._size(value):
                    value = kept
            self._entries[key] = value
            self.words += self._size(value)
            budget = self._budget()
            while self.words > budget and len(self._entries) > 1:
                self.words -= self._size(self._entries.popitem(last=False)[1])
        return value

    def cache_info(self) -> _CacheInfo:
        """Hits, misses, maxsize None (no entry count bounds the cache) and
        the entries held."""
        with self._lock:
            return _CacheInfo(self._hits, self._misses, None, len(self._entries))

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self.words = 0


class _RowCache(_WordCache):
    """One DP row per sorted reduced tuple, bounded by ROW_CACHE_MAX_WORDS
    words of planes (``_words``; the running sums are not counted).

    A lookup hits when the tuple's row reaches the target m asked for;
    otherwise a row to ``_row_cap`` is built, from the old one when
    ``_build_row`` can extend it, and replaces it.  A row holds more words
    than a shorter one of the same tuple, so of two rows built for a tuple
    at once the longer one is kept.
    """

    def __init__(self) -> None:
        super().__init__(_words, lambda: ROW_CACHE_MAX_WORDS)

    def __call__(self, key: tuple[int, ...], m: int) -> _Row:
        # An extension copies the short row's cells, since a reader may
        # still hold it.
        return self.get(
            key, lambda short: _build_row(key, _row_cap(m, short), short),
            lambda row: row.cap >= m,
        )


_prefix_counts = _RowCache()


class _RowReader:
    """The counts of one tuple a at any number of int targets, read from the
    cached row of a/d, d = gcd(a).

    The reader holds that row from one target to the next and asks the
    cache again only when n // d passes the row's cap (or the budget's last
    cell, so that the budget is checked as a call would), so a rising range
    makes one lookup per row it needs, and builds the same rows, at the same
    caps and in the same order, as one ``denumerant`` or ``extended_count``
    call per target.  A target raises what such a call raises at it: a
    negative n ValueError, and an n whose counts D(0..n // d) span more than
    DENUMERANT_MAX_CELLS cells BudgetExceededError, before anything is
    allocated.

    ``spans`` reads a rising range of targets a held row at a time: for
    each row the range needs it yields the counts of that row's targets as
    one list, at most ``_CHUNK`` cells long, and looks up again only at the
    first target past the reach.  A target over the budget raises when its
    span is read, after every earlier span has been yielded.
    """

    __slots__ = ("coeffs", "gcd", "_row", "_reach")

    def __init__(self, a: Sequence[int]) -> None:
        self.coeffs = as_coeffs(a)
        self.gcd = math.gcd(*self.coeffs)
        # The held row, and the largest m it answers within the budget.
        self._row: _Row | None = None
        self._reach = -1

    def _lookup(self, n: int) -> tuple[_Row, int]:
        """A row that reaches m = n // d, and m."""
        m = n // self.gcd
        # A negative n has m < 0, so it is checked, and rejected, here.
        if not 0 <= m <= self._reach:
            _require_natural(n)
            if m + 1 > DENUMERANT_MAX_CELLS:
                raise BudgetExceededError(
                    f"the table for {self.coeffs} at n={n} needs {m + 1} cells, "
                    f"over the cap of {DENUMERANT_MAX_CELLS}"
                )
            reduced = self.coeffs if self.gcd == 1 else (c // self.gcd for c in self.coeffs)
            key = tuple(sorted(reduced))
            self._row = _prefix_counts(key, m)
            self._reach = min(self._row.cap, DENUMERANT_MAX_CELLS - 1)
        return self._row, m

    def count(self, n: int) -> int:
        """D(a, n): 0 when d does not divide n, with no row read."""
        if n > 0 and n % self.gcd:
            return 0
        row, m = self._lookup(n)
        return row[m]

    def relaxed(self, n: int) -> int:
        """The solutions of sum <= n: D(a/d, 0) + ... + D(a/d, n // d)."""
        row, m = self._lookup(n)
        return row.total(m)

    def spans(self, targets: range) -> Iterator[tuple[int, list[int]]]:
        """(m, [D(a/d, m), ..., D(a/d, m')]) for the rising ``targets``, one
        held row at a time: m to m' are the n // d of the targets that row
        answers, at most ``_CHUNK`` of them.  The row is looked up as
        ``relaxed`` looks it up at each target, so only at the first target
        past the reach; a range of the targets d divides reads the rows that
        ``count`` reads at each of them.
        """
        d, i = self.gcd, 0
        while i < len(targets):
            row, m = self._lookup(targets[i])
            last = min(self._reach, targets[-1] // d, m + _CHUNK - 1)
            yield m, row.counts(last, m)
            # On from the first target past the span, at n >= d (last + 1).
            i = -(-(d * (last + 1) - targets.start) // targets.step)

    def counts(self, n: int, lo: int = 0) -> Iterator[int]:
        """D(a/d, lo), ..., D(a/d, n // d), read ``_CHUNK`` cells at a time,
        so a caller holds one chunk of ints.

        D(a, m) is entry m / d when d divides m and 0 otherwise, so for a
        coprime tuple these are D(a, lo), ..., D(a, n).  A bad n raises on
        the first read, as ``count`` raises at n.
        """
        row, m = self._lookup(n)
        for start in range(lo, m + 1, _CHUNK):
            yield from row.counts(min(start + _CHUNK - 1, m), start)


def denumerant(a: Sequence[int], n: int) -> CountResult:
    """Count solutions via gcd reduction and the prefix recurrence.

    If d = gcd(a_1, ..., a_k) does not divide n there are no solutions;
    otherwise the count equals the count for (a_1/d, ..., a_k/d) at n/d.
    Raises BudgetExceededError when the row for n/d would span more than
    DENUMERANT_MAX_CELLS cells.
    """
    reader = _RowReader(a)
    return CountResult(reader.count(_require_natural(n)), "recursion")


def popoviciu(a1: int, a2: int, n: int) -> CountResult:
    """Closed-form count for two coprime coefficients.

    With b' the inverse of a2 mod a1 and a' the inverse of a1 mod a2 (0
    when the modulus is 1),

        D(n) = n/(a1*a2) - {b'*n/a1} - {a'*n/a2} + 1,

    where {t} is the fractional part.  It is evaluated in integers, as
    a1*a2*(D(n) - 1) = n - a2*(b'*n mod a1) - a1*(a'*n mod a2), and checked
    to be a non-negative integer before it is returned.
    """
    a1, a2 = as_coeffs((a1, a2))
    _require_natural(n)
    _require_coprime((a1, a2), "is not a coprime pair")
    inv_a2 = pow(a2, -1, a1)
    inv_a1 = pow(a1, -1, a2)
    den = a1 * a2
    num = n + den - a2 * (inv_a2 * n % a1) - a1 * (inv_a1 * n % a2)
    value, rest = divmod(num, den)
    if rest or value < 0:
        raise InvariantViolationError(
            f"closed form produced {Fraction(num, den)} for ({a1}, {a2}) at n={n}"
        )
    return CountResult(value, "popoviciu")


def extended_count(a: Sequence[int], n: int) -> CountResult:
    """Count solutions of a_1*x_1 + ... + a_k*x_k <= n.

    Divide out d = gcd(a): only multiples of d up to d*floor(n/d) are
    reachable, so the relaxed count is D(a/d, 0) + ... + D(a/d, floor(n/d)),
    summed on the row that ``denumerant`` caches for a/d, under the same
    budget.
    """
    reader = _RowReader(a)
    return CountResult(reader.relaxed(_require_natural(n)), "recursion")
