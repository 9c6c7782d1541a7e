"""Cuckoo filter with partial-key hashing for membership-based sync.

Fingerprint 0 marks an empty slot, so fingerprints live in ``[1, 2^f - 1]``.
The two candidate buckets of a key are linked by the XOR involution
``alt_index(i, fp) = i XOR (H(fp) mod num_buckets)`` with a power-of-two
bucket count, so applying it twice returns the original index.
"""

from __future__ import annotations

import math
import random
import struct

from .hashing import MASK64, derive_seed, keyed_hash

_HEADER = struct.Struct(">BBBQ")

_FP_INDEX = 0xF0
_IDX_INDEX = 0xF1
_ALT_INDEX = 0xF2
_EVICT_INDEX = 0xF3


def geometry_for(n: int, bucket_size: int = 4, target_load: float = 0.8) -> int:
    """Bucket-count exponent targeting the requested load for n elements."""
    if n <= 0:
        return 1
    return max(1, math.ceil(math.log2(n / (bucket_size * target_load))))


class CuckooFilter:
    def __init__(self, log_buckets: int, bucket_size: int, fingerprint_bits: int, seed: int):
        if not 4 <= fingerprint_bits <= 32:
            raise ValueError("fingerprint_bits must be in [4, 32]")
        if bucket_size < 1 or log_buckets < 1:
            raise ValueError("bucket_size and log_buckets must be positive")
        self.log_buckets = log_buckets
        self.bucket_size = bucket_size
        self.fingerprint_bits = fingerprint_bits
        self.seed = seed & MASK64
        self.num_buckets = 1 << log_buckets
        self.occupancy = 0
        # flat slot array, 0 = empty
        self._slots = [0] * (self.num_buckets * bucket_size)
        self._fp_seed = derive_seed(self.seed, _FP_INDEX)
        self._idx_seed = derive_seed(self.seed, _IDX_INDEX)
        self._alt_seed = derive_seed(self.seed, _ALT_INDEX)
        self._evict_rng = random.Random(derive_seed(self.seed, _EVICT_INDEX))
        self._index_mask = self.num_buckets - 1
        self._fp_mask = (1 << fingerprint_bits) - 1

    @property
    def capacity(self) -> int:
        return self.num_buckets * self.bucket_size

    def fingerprint(self, key: int) -> int:
        fp = keyed_hash(self._fp_seed, key) & self._fp_mask
        return fp if fp else 1

    def index(self, key: int) -> int:
        return keyed_hash(self._idx_seed, key) & self._index_mask

    def alt_index(self, idx: int, fp: int) -> int:
        return idx ^ (keyed_hash(self._alt_seed, fp) & self._index_mask)

    def _bucket_insert(self, idx: int, fp: int) -> bool:
        base = idx * self.bucket_size
        for s in range(base, base + self.bucket_size):
            if self._slots[s] == 0:
                self._slots[s] = fp
                self.occupancy += 1
                return True
        return False

    def insert(self, key: int, max_kicks: int = 500) -> bool:
        """Place the key's fingerprint; False when the filter is full."""
        fp = self.fingerprint(key)
        i1 = self.index(key)
        i2 = self.alt_index(i1, fp)
        if self._bucket_insert(i1, fp) or self._bucket_insert(i2, fp):
            return True
        idx = self._evict_rng.choice((i1, i2))
        for _ in range(max_kicks):
            base = idx * self.bucket_size
            victim = base + self._evict_rng.randrange(self.bucket_size)
            fp, self._slots[victim] = self._slots[victim], fp
            idx = self.alt_index(idx, fp)
            if self._bucket_insert(idx, fp):
                return True
        return False

    def lookup(self, key: int) -> bool:
        fp = self.fingerprint(key)
        i1 = self.index(key)
        base = i1 * self.bucket_size
        if fp in self._slots[base : base + self.bucket_size]:
            return True
        i2 = self.alt_index(i1, fp)
        base = i2 * self.bucket_size
        return fp in self._slots[base : base + self.bucket_size]

    def to_bytes(self) -> bytes:
        out = bytearray(
            _HEADER.pack(self.log_buckets, self.bucket_size, self.fingerprint_bits, self.seed)
        )
        # fingerprints packed in slot order, little-endian bit order
        buf = 0
        nbits = 0
        f = self.fingerprint_bits
        for fp in self._slots:
            buf |= fp << nbits
            nbits += f
            while nbits >= 8:
                out.append(buf & 0xFF)
                buf >>= 8
                nbits -= 8
        if nbits:
            out.append(buf & 0xFF)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> CuckooFilter:
        lb, bs, fbits, seed = _HEADER.unpack_from(data, 0)
        cf = cls(lb, bs, fbits, seed)
        buf = 0
        nbits = 0
        off = _HEADER.size
        mask = (1 << fbits) - 1
        for s in range(cf.capacity):
            while nbits < fbits:
                buf |= data[off] << nbits
                off += 1
                nbits += 8
            fp = buf & mask
            buf >>= fbits
            nbits -= fbits
            cf._slots[s] = fp
            if fp:
                cf.occupancy += 1
        return cf

    def __eq__(self, other):
        return (
            isinstance(other, CuckooFilter)
            and self.log_buckets == other.log_buckets
            and self.bucket_size == other.bucket_size
            and self.fingerprint_bits == other.fingerprint_bits
            and self.seed == other.seed
            and self._slots == other._slots
        )


def build_filter(
    elements,
    seed: int,
    bucket_size: int = 4,
    fingerprint_bits: int = 12,
    max_kicks: int = 500,
) -> CuckooFilter:
    """Size a filter for the element count and insert everything.

    Raises FilterFullError if any insertion fails, which at the sizing
    target of 80% load indicates a pathological input.
    """
    from .errors import FilterFullError

    elements = list(elements) if not hasattr(elements, "__len__") else elements
    cf = CuckooFilter(geometry_for(len(elements), bucket_size), bucket_size, fingerprint_bits, seed)
    for e in elements:
        if not cf.insert(e, max_kicks):
            raise FilterFullError(f"insertion failed at occupancy {cf.occupancy}/{cf.capacity}")
    return cf


def local_only(elements, their_filter: CuckooFilter) -> set[int]:
    """Elements with a negative membership answer against the peer's filter.

    A negative answer is definitive, so the result never contains an
    element the peer also holds; false positives can only hide genuine
    local-only elements.
    """
    return {e for e in elements if not their_filter.lookup(e)}
