"""Invertible Bloom lookup table: whole-set builds, subtraction and peeling.

Each cell carries a signed count and one word, the XOR over its keys of
``key << 64 | check``, where ``check`` is a 64-bit check hash of the key:
the word's high half is the cell's key sum and its low half the check-hash
sum. Hashing is partitioned: hash j maps a key into partition j of
``m/k`` cells, guaranteeing k distinct cells per key.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from itertools import chain

from .errors import IncompatibleSketchError, PeelError, ProtocolError
from .hashing import MASK64, blocks, derive_seed, keyed_hash, keyed_hashes

# a cell on the wire: count, key sum, check-hash sum
_CELL = "iQQ"
_CELL_SIZE = struct.calcsize(">" + _CELL)
_HEADER = struct.Struct(">IBQ")

_CHECK_INDEX = 0xC0

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
        self._partition = num_cells // num_hashes
        self._row_seeds = [derive_seed(self.seed, j) for j in range(num_hashes)]
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
        table is nonempty (undersized table or a check-hash collision).
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
            if sign == 1:
                positive.add(key)
            else:
                negative.add(key)
            for j, row_seed in enumerate(self._row_seeds):
                cell = j * part + keyed_hash(row_seed, key) % part
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
    """The table with every element inserted, hashed a block at a time."""
    table = Iblt(num_cells, num_hashes, seed)
    part = table._partition
    counts = Counter()
    words = table.words
    for block in blocks(elements):
        tagged = [key << 64 | chk for key, chk in zip(block, keyed_hashes(table._check_seed, block))]
        for j, row_seed in enumerate(table._row_seeds):
            base = j * part
            col = [base + h % part for h in keyed_hashes(row_seed, block)]
            counts.update(col)
            for idx, word in zip(col, tagged):
                words[idx] ^= word
    table.counts = [counts.get(i, 0) for i in range(num_cells)]
    return table


def update_table(table: Iblt, added, removed) -> Iblt:
    """The table of a set after adding ``added`` and removing ``removed``."""
    m, k, seed = table.num_cells, table.num_hashes, table.seed
    return table.subtract(build_table(removed, m, k, seed).subtract(build_table(added, m, k, seed)))
