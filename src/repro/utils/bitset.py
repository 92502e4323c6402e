"""Bit sets and a half (triangular) bit matrix.

The paper's baseline stores the interference graph as a *half-size bit
matrix* and evaluates liveness sets stored as bit sets with the closed-form
footprint ``ceil(#variables / 8) * #basicblocks * 2``.  These classes provide
both the functional behaviour and the byte-accounting needed to regenerate
Figure 7.

A :class:`BitSet` is a fixed-universe set of small integers with the usual
set protocol plus the raw-mask escape hatch fixpoint solvers use:

>>> from repro.utils.bitset import BitSet, BitMatrix
>>> row = BitSet(10, [1, 4])
>>> row.add(7); sorted(row)
[1, 4, 7]
>>> 4 in row, 5 in row, 99 in row      # out-of-universe is just "not in"
(True, False, False)
>>> len(row), row.footprint_bytes()    # ceil(10 / 8) == 2 bytes
(3, 2)
>>> row.union(BitSet(12, [4, 11])).universe    # operations merge universes
12
>>> BitSet.from_bits(10, 0b10010) == BitSet(10, [1, 4])  # solver handoff
True

The :class:`BitMatrix` stores a symmetric relation in a triangle (pair
``{a, b}`` lives on the row of the larger index), growing as variables are
introduced — the paper's interference-graph representation:

>>> matrix = BitMatrix(3)
>>> matrix.set(0, 2); matrix.test(2, 0)    # symmetric
True
>>> matrix.set(5, 1)                        # grows on demand
>>> matrix.size, sorted(matrix.neighbours(1))
(6, [5])
>>> BitMatrix.evaluated_footprint(64)       # ceil(64/8) * 64 / 2
256
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional


class BitSet:
    """A fixed-universe bit set over integer indices ``0 .. universe-1``."""

    __slots__ = ("_bits", "universe")

    def __init__(self, universe: int, items: Optional[Iterable[int]] = None) -> None:
        if universe < 0:
            raise ValueError("universe size must be non-negative")
        self.universe = universe
        self._bits = 0
        if items is not None:
            for item in items:
                self.add(item)

    def _check(self, item: int) -> None:
        if not (0 <= item < self.universe):
            raise IndexError(f"index {item} out of universe [0, {self.universe})")

    def add(self, item: int) -> None:
        self._check(item)
        self._bits |= 1 << item

    def remove(self, item: int) -> None:
        """Remove ``item``; raise :class:`KeyError` if it is not in the set."""
        if item not in self:
            raise KeyError(item)
        self._bits &= ~(1 << item)

    def discard(self, item: int) -> None:
        """Remove ``item`` if present.

        Mirrors ``set.discard`` (and ``__contains__``): out-of-universe items
        are simply not in the set, so discarding them is a no-op, not an error.
        """
        if 0 <= item < self.universe:
            self._bits &= ~(1 << item)

    @property
    def bits(self) -> int:
        """The raw bit mask (read-only; for mask-level fast paths)."""
        return self._bits

    def __contains__(self, item: int) -> bool:
        if not (0 <= item < self.universe):
            return False
        return bool(self._bits >> item & 1)

    def __iter__(self) -> Iterator[int]:
        bits = self._bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __bool__(self) -> bool:
        return self._bits != 0

    def __eq__(self, other: object) -> bool:
        """Two bit sets are equal iff they have the same universe *and* bits.

        A ``BitSet`` is a fixed-universe object: ``BitSet(4, [1])`` and
        ``BitSet(8, [1])`` behave differently under ``add``/``difference``
        complement-style operations, so they must not compare equal even
        though their members coincide.
        """
        if isinstance(other, BitSet):
            return self.universe == other.universe and self._bits == other._bits
        return NotImplemented

    def __repr__(self) -> str:
        return "BitSet({})".format(sorted(self))

    # -- universe management -------------------------------------------------
    def grow(self, new_universe: int) -> None:
        """Extend the universe to ``new_universe`` indices (monotonic no-op
        when smaller).  Existing members keep their indices; shrinking is not
        supported because it could silently drop members."""
        if new_universe > self.universe:
            self.universe = new_universe

    @classmethod
    def from_bits(cls, universe: int, bits: int) -> "BitSet":
        """Wrap a raw bit mask (e.g. from a fixpoint solver) into a BitSet."""
        new = cls(universe)
        if bits < 0 or bits >> universe:
            raise ValueError("bit mask has bits outside the universe")
        new._bits = bits
        return new

    # -- set algebra ---------------------------------------------------------
    # Binary operations between sets of *different* universes are defined by
    # embedding both operands into the larger universe (indices are stable, so
    # the embedding is the identity on members); the result carries that
    # larger universe.  Operations never shrink a universe.
    def union_update(self, other: "BitSet") -> bool:
        """In-place union; returns True if this set changed (for fixpoints).

        Grows this set's universe to cover ``other``'s, per the rule above.
        """
        self.grow(other.universe)
        before = self._bits
        self._bits |= other._bits
        return self._bits != before

    def union(self, other: "BitSet") -> "BitSet":
        """Union over the merged (max) universe of the two operands."""
        new = BitSet(max(self.universe, other.universe))
        new._bits = self._bits | other._bits
        return new

    def intersection(self, other: "BitSet") -> "BitSet":
        """Intersection, also carried in the merged (max) universe: although
        no member can exceed the smaller universe, keeping the merged one
        makes union/intersection results interoperable."""
        new = BitSet(max(self.universe, other.universe))
        new._bits = self._bits & other._bits
        return new

    def difference(self, other: "BitSet") -> "BitSet":
        new = BitSet(self.universe)
        new._bits = self._bits & ~other._bits
        return new

    def isdisjoint(self, other: "BitSet") -> bool:
        return (self._bits & other._bits) == 0

    def copy(self) -> "BitSet":
        new = BitSet(self.universe)
        new._bits = self._bits
        return new

    # -- memory accounting ---------------------------------------------------
    def footprint_bytes(self) -> int:
        """Idealised footprint: ``ceil(universe / 8)`` bytes."""
        return (self.universe + 7) // 8


class BitMatrix:
    """Symmetric boolean relation stored as a half (upper triangular) matrix.

    This is the representation the paper uses for the interference graph.  The
    matrix is grown dynamically (as in Sreedhar III / Us III where φ-copy
    variables are added on the fly), and the growth history is what makes the
    "Measured" footprint in Figure 7 slightly larger than the "Evaluated"
    perfect-memory formula ``ceil(n/8) * n/2``.
    """

    __slots__ = ("_rows", "_size", "_footprint", "peak_bytes", "total_allocated_bytes")

    def __init__(self, size: int = 0) -> None:
        self._size = 0
        self._rows: list = []
        self._footprint = 0
        self.peak_bytes = 0
        self.total_allocated_bytes = 0
        if size:
            self.grow(size)

    @property
    def size(self) -> int:
        return self._size

    def grow(self, new_size: int) -> None:
        """Extend the universe to ``new_size`` indices (monotonic)."""
        if new_size <= self._size:
            return
        for index in range(self._size, new_size):
            # Row i of a half matrix stores the relation with 0..i-1 plus the
            # diagonal, i.e. i+1 bits.
            self._rows.append(0)
            row_bytes = (index + 1 + 7) // 8
            self.total_allocated_bytes += row_bytes
            self._footprint += row_bytes
        self._size = new_size
        self.peak_bytes = max(self.peak_bytes, self._footprint)

    def _order(self, a: int, b: int) -> tuple:
        return (a, b) if a >= b else (b, a)

    def set(self, a: int, b: int) -> None:
        high, low = self._order(a, b)
        if high >= self._size:
            self.grow(high + 1)
        self._rows[high] |= 1 << low

    def clear(self, a: int, b: int) -> None:
        high, low = self._order(a, b)
        if high < self._size:
            self._rows[high] &= ~(1 << low)

    def test(self, a: int, b: int) -> bool:
        high, low = self._order(a, b)
        if high >= self._size:
            return False
        return bool(self._rows[high] >> low & 1)

    def neighbours(self, a: int) -> Iterator[int]:
        """Iterate over all indices related to ``a``, in increasing order.

        The half matrix stores the pair ``{a, b}`` on the row of the larger
        index, so the neighbours below ``a`` are exactly the set bits of row
        ``a`` (scanned with low-bit tricks, one step per *set* bit), and the
        neighbours above ``a`` are the rows whose bit ``a`` is set (one word
        test per row, no pair re-ordering or re-indexing per query).
        """
        if a < 0 or a >= self._size:
            return
        row = self._rows[a] & ~(1 << a)  # the diagonal is not a neighbour
        while row:
            low = row & -row
            yield low.bit_length() - 1
            row ^= low
        for other in range(a + 1, self._size):
            if self._rows[other] >> a & 1:
                yield other

    def footprint_bytes(self) -> int:
        """Current idealised footprint of the half matrix (kept incrementally:
        ``add_variable`` reads it before/after every grow)."""
        return self._footprint

    @staticmethod
    def evaluated_footprint(num_variables: int) -> int:
        """The paper's perfect-memory estimate ``ceil(n/8) * n / 2``."""
        return ((num_variables + 7) // 8) * num_variables // 2
