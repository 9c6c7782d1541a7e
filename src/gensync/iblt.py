"""Invertible Bloom lookup table: insert/erase, subtraction and peeling.

Cells carry a signed count, a 64-bit XOR key accumulator and a 64-bit XOR
accumulator of a check hash of each key. Hashing is partitioned: hash j
maps a key into partition j of ``m/k`` cells, guaranteeing k distinct
cells per key.
"""

from __future__ import annotations

import math
import struct
from collections import Counter

from .errors import IncompatibleSketchError, PeelError, ProtocolError
from .hashing import MASK64, blocks, derive_seed, keyed_hash, keyed_hashes

_CELL = struct.Struct(">iQQ")
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
        self.key_sums = [0] * num_cells
        self.hash_sums = [0] * num_cells
        self._partition = num_cells // num_hashes
        self._row_seeds = [derive_seed(self.seed, j) for j in range(num_hashes)]
        self._check_seed = derive_seed(self.seed, _CHECK_INDEX)

    def _cells_for(self, key: int):
        part = self._partition
        return [
            j * part + keyed_hash(self._row_seeds[j], key) % part
            for j in range(self.num_hashes)
        ]

    def check_hash(self, key: int) -> int:
        return keyed_hash(self._check_seed, key)

    def _apply(self, key: int, delta: int):
        chk = self.check_hash(key)
        for idx in self._cells_for(key):
            self.counts[idx] += delta
            self.key_sums[idx] ^= key
            self.hash_sums[idx] ^= chk

    def insert(self, key: int) -> None:
        self._apply(key, +1)

    def erase(self, key: int) -> None:
        self._apply(key, -1)

    def is_empty(self) -> bool:
        return (
            not any(self.counts)
            and not any(self.key_sums)
            and not any(self.hash_sums)
        )

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
        out.key_sums = [a ^ b for a, b in zip(self.key_sums, other.key_sums)]
        out.hash_sums = [a ^ b for a, b in zip(self.hash_sums, other.hash_sums)]
        return out

    def peel(self):
        """Decode a subtraction result into (positive, negative) key sets.

        Positive keys come from the minuend's side, negative from the
        subtrahend's. Raises PeelError when no pure cell remains but the
        table is nonempty (undersized table or a check-hash collision).
        """
        counts = list(self.counts)
        keys = list(self.key_sums)
        hashes = list(self.hash_sums)
        positive: set[int] = set()
        negative: set[int] = set()

        queue = [i for i in range(self.num_cells) if counts[i] in (-1, 1)]
        while queue:
            idx = queue.pop()
            sign = counts[idx]
            if sign not in (-1, 1):
                continue
            key = keys[idx]
            chk = self.check_hash(key)
            if hashes[idx] != chk:
                continue  # impure cell that merely looks pure
            if sign == 1:
                positive.add(key)
            else:
                negative.add(key)
            for j in self._cells_for(key):
                counts[j] -= sign
                keys[j] ^= key
                hashes[j] ^= chk
                if counts[j] in (-1, 1):
                    queue.append(j)

        if any(counts) or any(keys) or any(hashes):
            raise PeelError("no pure cell remains but the table is nonempty")
        return positive, negative

    def to_bytes(self) -> bytes:
        out = bytearray(_HEADER.pack(self.num_cells, self.num_hashes, self.seed))
        for c, k, h in zip(self.counts, self.key_sums, self.hash_sums):
            out += _CELL.pack(c, k, h)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> Iblt:
        """Decode a peer's table; ProtocolError when it is malformed."""
        if len(data) < _HEADER.size:
            raise ProtocolError(f"IBLT of {len(data)} bytes is shorter than its header")
        m, k, seed = _HEADER.unpack_from(data, 0)
        if k < 2 or m < k or m % k:
            raise ProtocolError(f"IBLT header announces {m} cells for {k} hashes")
        if len(data) != _HEADER.size + m * _CELL.size:
            raise ProtocolError(f"IBLT has {len(data)} bytes, its header announces {m} cells")
        table = cls(m, k, seed)
        off = _HEADER.size
        for i in range(m):
            c, key, chk = _CELL.unpack_from(data, off)
            table.counts[i] = c
            table.key_sums[i] = key
            table.hash_sums[i] = chk
            off += _CELL.size
        return table

    def __eq__(self, other):
        return (
            isinstance(other, Iblt)
            and self.num_cells == other.num_cells
            and self.num_hashes == other.num_hashes
            and self.seed == other.seed
            and self.counts == other.counts
            and self.key_sums == other.key_sums
            and self.hash_sums == other.hash_sums
        )


def build_table(elements, num_cells: int, num_hashes: int, seed: int) -> Iblt:
    """The table with every element inserted, hashed a block at a time.

    Each cell XORs ``key << 64 | check_hash(key)`` into one word, split
    into its key and check sums at the end. The cells equal those of
    ``Iblt.insert`` called on each element.
    """
    table = Iblt(num_cells, num_hashes, seed)
    part = table._partition
    counts = Counter()
    words = [0] * num_cells
    for block in blocks(elements):
        tagged = [key << 64 | chk for key, chk in zip(block, keyed_hashes(table._check_seed, block))]
        for j, row_seed in enumerate(table._row_seeds):
            base = j * part
            col = [base + h % part for h in keyed_hashes(row_seed, block)]
            counts.update(col)
            for idx, word in zip(col, tagged):
                words[idx] ^= word
    table.counts = [counts.get(i, 0) for i in range(num_cells)]
    table.key_sums = [w >> 64 for w in words]
    table.hash_sums = [w & MASK64 for w in words]
    return table


def update_table(table: Iblt, added, removed) -> Iblt:
    """The table of a set after adding ``added`` and removing ``removed``."""
    m, k, seed = table.num_cells, table.num_hashes, table.seed
    return table.subtract(build_table(removed, m, k, seed).subtract(build_table(added, m, k, seed)))
