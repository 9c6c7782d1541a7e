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

from .errors import FilterFullError, ProtocolError
from .hashing import MASK64, blocks, derive_seed, keyed_hash, keyed_hashes

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
        # fingerprint -> alt-index offset, for the fingerprints seen so far
        self._alt_offsets: dict[int, int] = {}

    @property
    def capacity(self) -> int:
        return self.num_buckets * self.bucket_size

    def fingerprint(self, key: int) -> int:
        fp = keyed_hash(self._fp_seed, key) & self._fp_mask
        return fp if fp else 1

    def index(self, key: int) -> int:
        return keyed_hash(self._idx_seed, key) & self._index_mask

    def alt_index(self, idx: int, fp: int) -> int:
        return idx ^ self._alt_offset(fp)

    def _alt_offset(self, fp: int) -> int:
        offset = self._alt_offsets.get(fp)
        if offset is None:
            offset = self._alt_offsets[fp] = keyed_hash(self._alt_seed, fp) & self._index_mask
        return offset

    def _hash_block(self, keys: list) -> tuple[list[int], list[int]]:
        """Fingerprints and first bucket indices of ``keys``.

        The alt-index offsets of fingerprints not seen before are hashed
        in the same pass and cached.
        """
        fp_mask, index_mask = self._fp_mask, self._index_mask
        fps = [h & fp_mask or 1 for h in keyed_hashes(self._fp_seed, keys)]
        indices = [h & index_mask for h in keyed_hashes(self._idx_seed, keys)]
        new = list(set(fps).difference(self._alt_offsets))
        self._alt_offsets.update(zip(new, [h & index_mask for h in keyed_hashes(self._alt_seed, new)]))
        return fps, indices

    def _bucket_insert(self, idx: int, fp: int) -> bool:
        base = idx * self.bucket_size
        for s in range(base, base + self.bucket_size):
            if self._slots[s] == 0:
                self._slots[s] = fp
                self.occupancy += 1
                return True
        return False

    def _place(self, idx: int, fp: int, max_kicks: int) -> bool:
        """Put ``fp`` in bucket ``idx`` or its alternate, evicting if both are full.

        False when ``max_kicks`` evictions found no free slot; the last
        evicted fingerprint is then dropped.
        """
        if self._bucket_insert(idx, fp):
            return True
        alt = idx ^ self._alt_offset(fp)
        if self._bucket_insert(alt, fp):
            return True
        rng = self._evict_rng
        idx = rng.choice((idx, alt))
        for _ in range(max_kicks):
            victim = idx * self.bucket_size + rng.randrange(self.bucket_size)
            fp, self._slots[victim] = self._slots[victim], fp
            idx ^= self._alt_offset(fp)
            if self._bucket_insert(idx, fp):
                return True
        return False

    def _holds(self, idx: int, fp: int) -> bool:
        b = self.bucket_size
        if fp in self._slots[idx * b : idx * b + b]:
            return True
        idx ^= self._alt_offset(fp)
        return fp in self._slots[idx * b : idx * b + b]

    def insert(self, key: int, max_kicks: int = 500) -> bool:
        """Place the key's fingerprint; False when the filter is full."""
        return self._place(self.index(key), self.fingerprint(key), max_kicks)

    def lookup(self, key: int) -> bool:
        return self._holds(self.index(key), self.fingerprint(key))

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
        """Decode a peer's filter; ProtocolError when it is malformed."""
        if len(data) < _HEADER.size:
            raise ProtocolError(f"cuckoo filter of {len(data)} bytes is shorter than its header")
        lb, bs, fbits, seed = _HEADER.unpack_from(data, 0)
        if lb < 1 or bs < 1 or not 4 <= fbits <= 32:
            raise ProtocolError(f"cuckoo header out of range: 2^{lb} buckets of {bs}, {fbits}-bit fingerprints")
        if len(data) != _HEADER.size + -(-(bs << lb) * fbits // 8):
            raise ProtocolError(f"cuckoo filter has {len(data)} bytes, its header announces {bs << lb} slots")
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
    elements = list(elements) if not hasattr(elements, "__len__") else elements
    cf = CuckooFilter(geometry_for(len(elements), bucket_size), bucket_size, fingerprint_bits, seed)
    for block in blocks(elements):
        fps, indices = cf._hash_block(block)
        for e, fp, idx in zip(block, fps, indices):
            if not cf._place(idx, fp, max_kicks):
                raise FilterFullError(f"inserting {e} failed at occupancy {cf.occupancy}/{cf.capacity}")
    return cf


def local_only(elements, their_filter: CuckooFilter) -> set[int]:
    """Elements with a negative membership answer against the peer's filter.

    A negative answer is definitive, so the result never contains an
    element the peer also holds; false positives can only hide genuine
    local-only elements.
    """
    out = set()
    for block in blocks(elements):
        fps, indices = their_filter._hash_block(block)
        out.update(e for e, fp, idx in zip(block, fps, indices) if not their_filter._holds(idx, fp))
    return out
