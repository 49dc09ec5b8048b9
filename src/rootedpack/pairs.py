"""Pair masks of compact shapes and the first-pair search over them.

Whether two shapes can take disjoint copies depends only on their per-class
copy counts, so each shape gets two bit masks, `uses` and `limits`, from
its classes' `CopyTable` entries, and `PairSearch` finds the first pair in
row-major order whose masks do not conflict.  The shape searches fold the
entries into each state as they take classes and emit finished rows
(`Row`), each with its extendability verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Mapping, Optional, Sequence

from .errors import InternalError


class CopyTable:
    """The pair-mask entries of each class, built when a search first takes
    the class.

    Bit (c, t) of a mask means "takes at least t copies of class c", for t in
    {1, 2}: arb and tree shapes take one copy per class and flow cores at
    most min(2, L), where L is the class's copy count.  A shape's `uses`
    mask holds (c, 1..m) for each class c it takes m copies of, and its
    `limits` mask holds (c, L - m + 1) when that t is at most 2.  So
    `limits[i] & uses[j]` is zero exactly when no class has m_i + m_j > L,
    that is when the two shapes can take disjoint copies; the test is
    symmetric.  A class with L >= 4 can never run out and gets no bits.

    `entry(c, copies, m)` is the class's entry for m copies: comb(L, m), the
    use bits, the limit bit and whether m copies empty the class.  Asking
    for more than min(L, 2) copies raises InternalError.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int], tuple[tuple[int, int, int, bool], ...]] = {}
        self._width = 0

    def entry(self, c: tuple[int, int], copies: int, m: int) -> tuple[int, int, int, bool]:
        entries = self._entries.get(c)
        if entries is None:
            one = two = 0
            if copies < 4:
                one, two = 1 << self._width, 2 << self._width
                self._width += 2
            at_least = {1: one, 2: two}
            entries = self._entries[c] = (
                (1, 0, 0, copies == 0),
                (copies, one, at_least.get(copies, 0), copies == 1),
                (comb(copies, 2), one | two, at_least.get(copies - 1, 0), copies == 2),
            )[:min(copies, 2) + 1]
        if not 0 <= m < len(entries):
            raise InternalError(
                "shape takes more copies of a class than the pair masks allow",
                {"class": list(c), "count": m, "copies": copies})
        return entries[m]


# One compact shape as the shape searches emit it, a finished pipeline row:
# (classes, counts, attachment, expanded, uses, limits, extendable).
# `classes` are its parallel classes, sorted, and `counts` the copies it
# takes of each; `expanded` is its number of copy choices, the product of
# comb(L, m); `uses` and `limits` are its pair masks (`CopyTable`), and
# `extendable` whether the pipeline may pair it: for the directed kinds,
# whether D stays root-connected without the classes it takes every copy
# of, as its search decided on the way down.
Row = tuple[tuple[tuple[int, int], ...], tuple[int, ...], Mapping[int, int], int, int, int, bool]


@dataclass
class PairSearch:
    """Lexicographic search for the first shape pair (i, j), i <= j, whose
    `limits[i] & uses[j]` is zero (see `CopyTable`) and that `accept`, when
    given, accepts.

    `find_first` scans the first rows directly, testing `limits[i] &
    uses[j]` for j = i, i+1, ... in turn: YES hits mostly lie in row 0 or 1.
    Once the pairs it has scanned reach the number of bits the column build
    would set (the set bits of all `uses`), it builds one column per mask
    bit, the set of shapes whose `uses` has that bit, and scans each further
    row at once: OR-ing the columns that `limits[i]` names gives every
    conflicting partner, and the free partners j >= i are walked lowest
    first.  Either way `accept` sees exactly the pairs a row-major scan of
    the pairs would pass to it, in the same order.  The pairsTested counter
    is the hit's 1-based row-major rank (or the total pair count on NO).
    """

    uses: Sequence[int]
    limits: Sequence[int]
    accept: Optional[Callable[[int, int], bool]] = None

    def _columns(self) -> list[int]:
        width = max((mask.bit_length() for mask in (*self.uses, *self.limits)), default=0)
        cells = [bytearray((len(self.uses) + 7) // 8) for _ in range(width)]
        for j, use in enumerate(self.uses):
            byte, bit = j >> 3, 1 << (j & 7)
            while use:
                low = use & -use
                cells[low.bit_length() - 1][byte] |= bit
                use ^= low
        return [int.from_bytes(cell, "little") for cell in cells]

    def find_first(self) -> tuple[Optional[tuple[int, int]], int]:
        """(first successful pair in row-major order or None, pairsTested)."""
        uses, accept = self.uses, self.accept
        count = len(uses)
        budget = sum(map(int.bit_count, uses))
        scanned = i = 0  # pairs in the rows before row i
        while i < count and scanned < budget:
            limit = self.limits[i]
            for j in range(i, count):
                if not limit & uses[j] and (accept is None or accept(i, j)):
                    return (i, j), scanned + j - i + 1
            scanned += count - i
            i += 1
        if i == count:
            return None, scanned
        columns = self._columns()
        full = (1 << count) - 1
        for i in range(i, count):
            limit = self.limits[i]
            blocked = 0
            while limit:
                low = limit & -limit
                blocked |= columns[low.bit_length() - 1]
                limit ^= low
            free = (full ^ blocked) >> i
            while free:
                low = free & -free
                j = i + low.bit_length() - 1
                if accept is None or accept(i, j):
                    return (i, j), i * count - i * (i - 1) // 2 + (j - i) + 1
                free ^= low
        return None, count * (count + 1) // 2
