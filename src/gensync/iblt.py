"""Invertible Bloom lookup table: whole-set builds, subtraction and peeling.

Each cell carries a signed count and one word, the XOR over its keys of
``key << 64 | check``, where ``check`` is a 64-bit check hash of the key:
the word's high half is the cell's key sum and its low half the check-hash
sum. The table is partitioned into k rows of ``part = m/k`` cells, and a
key takes one cell in each row, so it has k distinct cells.

A key's cells come from one 64-bit index hash h: row j takes the j-th
base-``part`` digit of ``h / 2^64``, found by ``h *= part``, the digit
``h >> 64``, and h keeping its low 64 bits for the next row. One index
hash serves the largest number of rows r with ``part^r <= 2^40``, so each
tuple of cells is uniform to within a relative 2^-24; a table that needs
more rows draws a further index hash for each further r rows. A key then
costs a check hash and one index hash per r rows, not one hash per row.
Two keys share all k cells with probability ``part^-k``, as with k
independent hashes.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from itertools import chain

from .errors import IncompatibleSketchError, PeelError, ProtocolError
from .hashing import MASK64, blocks, derive_seed, digits, keyed_hash, packed_hashes, unpack

# a cell on the wire: count, key sum, check-hash sum
_CELL = "iQQ"
_CELL_SIZE = struct.calcsize(">" + _CELL)
_HEADER = struct.Struct(">IBQ")

_CHECK_INDEX = 0xC0

# One index hash serves r rows while part^r <= 2^40: each r-tuple of cells
# then takes 2^64 / part^r >= 2^24 of its values, uniform to one in 2^24.
_INDEX_RANGE = 1 << 40

# Two keys that share all k cells never peel. With c cells a partition two
# keys do so one time in c^k: every time with one cell, one time in 256
# with four cells at the default 4 hashes, and one in 4,096 with eight.
_MIN_PARTITION = 8


def cell_count(expected_diffs: int, hedge: float, num_hashes: int) -> int:
    """Table size: ceil(hedge * expected_diffs) rounded up to a multiple of k.

    Each of the k partitions gets at least 8 cells.
    """
    if expected_diffs < 1:
        raise ValueError("expected_diffs must be positive")
    if hedge < 1.0:
        raise ValueError("hedge must be at least 1.0")
    return num_hashes * max(_MIN_PARTITION, math.ceil(hedge * expected_diffs / num_hashes))


class Iblt:
    def __init__(self, num_cells: int, num_hashes: int, seed: int):
        if num_hashes < 2:
            raise ValueError("need at least 2 hashes")
        if num_cells < num_hashes or num_cells % num_hashes != 0:
            raise ValueError("cell count must be a positive multiple of num_hashes")
        self.num_cells = num_cells
        self.num_hashes = num_hashes
        self.seed = seed & MASK64
        self.counts = [0] * num_cells
        self.words = [0] * num_cells
        part = self._partition = num_cells // num_hashes
        rows = 1
        while rows < num_hashes and part ** (rows + 1) <= _INDEX_RANGE:
            rows += 1
        # index hash i gives the cells of rows i*rows to i*rows + rows - 1,
        # each as the row's first cell plus a digit
        firsts = range(0, num_cells, part)
        self._row_firsts = [firsts[j : j + rows] for j in range(0, num_hashes, rows)]
        self._index_seeds = [derive_seed(self.seed, i) for i in range(len(self._row_firsts))]
        self._check_seed = derive_seed(self.seed, _CHECK_INDEX)

    def subtract(self, other: Iblt) -> Iblt:
        """Cell-wise difference; common insertions cancel exactly."""
        if (
            self.num_cells != other.num_cells
            or self.num_hashes != other.num_hashes
            or self.seed != other.seed
        ):
            raise IncompatibleSketchError("tables disagree on size, hash count or seed")
        out = Iblt(self.num_cells, self.num_hashes, self.seed)
        out.counts = [a - b for a, b in zip(self.counts, other.counts)]
        out.words = [a ^ b for a, b in zip(self.words, other.words)]
        return out

    def peel(self):
        """Decode a subtraction result into (positive, negative) key sets.

        Positive keys come from the minuend's side, negative from the
        subtrahend's. Raises PeelError when no pure cell remains but the
        table is nonempty (undersized table or a check-hash collision), and
        when a key turns up pure a second time: a difference holds each key
        once, and a peer's table can be crafted so that peeling a key puts
        it back, which would loop for ever.
        """
        counts = list(self.counts)
        words = list(self.words)
        part = self._partition
        positive: set[int] = set()
        negative: set[int] = set()

        queue = [i for i in range(self.num_cells) if counts[i] in (-1, 1)]
        while queue:
            idx = queue.pop()
            sign = counts[idx]
            if sign not in (-1, 1):
                continue
            word = words[idx]
            key = word >> 64
            if word & MASK64 != keyed_hash(self._check_seed, key):
                continue  # impure cell that merely looks pure
            if key in positive or key in negative:
                raise PeelError(f"key {key} turned up pure a second time")
            if sign == 1:
                positive.add(key)
            else:
                negative.add(key)
            for seed, firsts in zip(self._index_seeds, self._row_firsts):
                h = keyed_hash(seed, key)
                for first in firsts:
                    h *= part
                    cell = first + (h >> 64)
                    h &= MASK64
                    counts[cell] -= sign
                    words[cell] ^= word
                    if counts[cell] in (-1, 1):
                        queue.append(cell)

        if any(counts) or any(words):
            raise PeelError("no pure cell remains but the table is nonempty")
        return positive, negative

    def to_bytes(self) -> bytes:
        m, words = self.num_cells, self.words
        cells = chain.from_iterable(zip(self.counts, [w >> 64 for w in words], [w & MASK64 for w in words]))
        return struct.pack(_HEADER.format + _CELL * m, m, self.num_hashes, self.seed, *cells)

    @classmethod
    def from_bytes(cls, data: bytes) -> Iblt:
        """Decode a peer's table; ProtocolError when it is malformed."""
        if len(data) < _HEADER.size:
            raise ProtocolError(f"IBLT of {len(data)} bytes is shorter than its header")
        m, k, seed = _HEADER.unpack_from(data, 0)
        if k < 2 or m < k or m % k:
            raise ProtocolError(f"IBLT header announces {m} cells for {k} hashes")
        if len(data) != _HEADER.size + m * _CELL_SIZE:
            raise ProtocolError(f"IBLT has {len(data)} bytes, its header announces {m} cells")
        table = cls(m, k, seed)
        cells = struct.unpack_from(">" + _CELL * m, data, _HEADER.size)
        table.counts = list(cells[::3])
        table.words = [key << 64 | chk for key, chk in zip(cells[1::3], cells[2::3])]
        return table


def build_table(elements, num_cells: int, num_hashes: int, seed: int) -> Iblt:
    """The table with every element inserted, hashed a block at a time.

    Each block is packed once and hashed under the check seed and each
    index seed; each row's cells are then one packed step of ``digits``.
    """
    table = Iblt(num_cells, num_hashes, seed)
    part = table._partition
    counts = Counter()
    words = table.words
    for block in blocks(elements):
        n = len(block)
        check, *index = packed_hashes(block, [table._check_seed, *table._index_seeds])
        tagged = [key << 64 | chk for key, chk in zip(block, unpack(check, n))]
        for h, firsts in zip(index, table._row_firsts):
            for col in digits(h, n, part, firsts):
                counts.update(col)
                for idx, word in zip(col, tagged):
                    words[idx] ^= word
    table.counts = [counts.get(i, 0) for i in range(num_cells)]
    return table


def update_table(table: Iblt, added, removed) -> Iblt:
    """The table of a set after adding ``added`` and removing ``removed``."""
    m, k, seed = table.num_cells, table.num_hashes, table.seed
    return table.subtract(build_table(removed, m, k, seed).subtract(build_table(added, m, k, seed)))
