"""Cuckoo filter with partial-key hashing for membership-based sync.

Fingerprint 0 marks an empty slot, so fingerprints live in ``[1, 2^f - 1]``.
The two candidate buckets of a key are linked by the XOR involution
``i XOR (H(fp) mod num_buckets)`` with a power-of-two bucket count, so
applying it twice returns the original index.

A key's fingerprint and the hash that picks its first bucket depend only
on the seed and the fingerprint width, not on the bucket count: the index
is the low ``log_buckets`` bits of that hash. So ``build_filter``, the only
way to fill a filter, keeps both for every element it places, and
``local_only``, the only query, reuses them against a peer's filter of
any size under the same seed; a sync hashes each of its elements once.

Slots live in an array of 32-bit lanes. On the wire, eight slots of
``f`` bits fill exactly ``f`` bytes, so the codec works on lanes: three
masked shift steps on one integer pack each group of eight lanes into its
first ``f`` bytes, and ``f`` strided byte copies gather those bytes.
"""

from __future__ import annotations

import math
import random
import struct
import sys
from array import array
from functools import lru_cache

from .errors import FilterFullError, IncompatibleSketchError, ProtocolError
from .hashing import MASK64, blocks, derive_seed, keyed_hashes

# Not called here: perfbench counts per-key hash calls by wrapping this
# module's ``keyed_hash``, so the name stays bound for it to wrap.
from .hashing import keyed_hash  # noqa: F401

_HEADER = struct.Struct(">BBBQ")

_FP_INDEX = 0xF0
_IDX_INDEX = 0xF1
_ALT_INDEX = 0xF2
_EVICT_INDEX = 0xF3

# bits of the first-bucket hash a build keeps; they index 2^32 buckets at most
_KEPT_BITS = 32
_KEPT_MASK = (1 << _KEPT_BITS) - 1

# slots per codec step, a multiple of 8: the integers the codec shifts
# stay at 16 KB however large the filter is
_CHUNK = 4096


def geometry_for(n: int, bucket_size: int = 4, target_load: float = 0.8) -> int:
    """Bucket-count exponent targeting the requested load for n elements."""
    if n <= 0:
        return 1
    return max(1, math.ceil(math.log2(n / (bucket_size * target_load))))


@lru_cache(maxsize=4)
def _lane_masks(lanes: int) -> tuple[tuple[int, int, int], int]:
    """Masks over ``lanes`` 32-bit lanes, a multiple of 8.

    For w = 32, 64 and 128, the upper w bits of each 2w-bit block; and a
    1 at the bottom of each lane.
    """
    upper = tuple(
        int.from_bytes((bytes(w // 8) + b"\xff" * (w // 8)) * (lanes * 16 // w), "little") for w in (32, 64, 128)
    )
    return upper, int.from_bytes(b"\x01\0\0\0" * lanes, "little")


def _pack_lanes(x: int, f: int, lanes: int) -> int:
    """Move the f-bit values of each group of eight 32-bit lanes to its low 8f bits."""
    for w, upper in zip((32, 64, 128), _lane_masks(lanes)[0]):
        shift = w - f * w // 32  # from a lane's upper half to above its lower half's value
        high = x & upper
        x = (x ^ high) | (high >> shift)
    return x


def _unpack_lanes(x: int, f: int, lanes: int) -> int:
    """The inverse of ``_pack_lanes``: 8f bits per 256-bit group back into 32-bit lanes."""
    for w, upper in zip((128, 64, 32), reversed(_lane_masks(lanes)[0])):
        shift = w - f * w // 32
        high = (x << shift) & upper
        x = (x ^ (high >> shift)) | high
    return x


class CuckooFilter:
    def __init__(self, log_buckets: int, bucket_size: int, fingerprint_bits: int, seed: int):
        if not 4 <= fingerprint_bits <= 32:
            raise ValueError("fingerprint_bits must be in [4, 32]")
        if not (1 <= bucket_size <= 255 and 1 <= log_buckets <= _KEPT_BITS):
            raise ValueError(f"bucket_size must be in [1, 255] and log_buckets in [1, {_KEPT_BITS}]")
        self.log_buckets = log_buckets
        self.bucket_size = bucket_size
        self.fingerprint_bits = fingerprint_bits
        self.seed = seed & MASK64
        self.num_buckets = 1 << log_buckets
        self.occupancy = 0
        # flat slot array, 0 = empty
        self._slots = array("I", [0]) * (self.num_buckets * bucket_size)
        # per bucket, the index of its first empty slot: slots fill from
        # the front and never empty; None for a decoded filter
        self._fill: bytearray | None = bytearray(self.num_buckets)
        # (elements, their fingerprints, the low _KEPT_BITS of their
        # first-bucket hashes) of a filter from build_filter; None otherwise
        self._kept: tuple[list, array, array] | None = None
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

    def _cache_alt_offsets(self, fps) -> dict[int, int]:
        """Hash the alt-index offsets of the fingerprints not seen before; returns the cache."""
        offsets = self._alt_offsets
        for block in blocks(set(fps).difference(offsets)):
            offsets.update(zip(block, [h & self._index_mask for h in keyed_hashes(self._alt_seed, block)]))
        return offsets

    def _bucket_insert(self, idx: int, fp: int) -> bool:
        count = self._fill[idx]
        if count == self.bucket_size:
            return False
        self._slots[idx * self.bucket_size + count] = fp
        self._fill[idx] = count + 1
        self.occupancy += 1
        return True

    def _place(self, idx: int, fp: int, max_kicks: int) -> bool:
        """Put ``fp`` in bucket ``idx`` or its alternate, evicting if both are full.

        False when ``max_kicks`` evictions found no free slot; the last
        evicted fingerprint is then dropped.
        """
        if self._bucket_insert(idx, fp):
            return True
        offsets = self._alt_offsets
        alt = idx ^ offsets[fp]
        if self._bucket_insert(alt, fp):
            return True
        rng = self._evict_rng
        idx = rng.choice((idx, alt))
        for _ in range(max_kicks):
            victim = idx * self.bucket_size + rng.randrange(self.bucket_size)
            fp, self._slots[victim] = self._slots[victim], fp
            idx ^= offsets[fp]
            if self._bucket_insert(idx, fp):
                return True
        return False

    def to_bytes(self) -> bytes:
        """Header, then the fingerprints packed in slot order, little-endian bit order."""
        f = self.fingerprint_bits
        out = bytearray(_HEADER.pack(self.log_buckets, self.bucket_size, f, self.seed))
        for start in range(0, self.capacity, _CHUNK):
            lanes = self._slots[start : start + _CHUNK]
            lanes.extend([0] * (-len(lanes) % 8))  # empty slots up to a group of eight
            if sys.byteorder == "big":
                lanes.byteswap()
            x = _pack_lanes(int.from_bytes(lanes.tobytes(), "little"), f, len(lanes))
            groups = x.to_bytes(4 * len(lanes), "little")
            packed = bytearray(len(lanes) // 8 * f)
            for i in range(f):
                packed[i::f] = groups[i::32]
            out += packed
        # the empty slots added to the last group only add zero bytes
        del out[_HEADER.size + -(-self.capacity * f // 8) :]
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> CuckooFilter:
        """Decode a peer's filter; ProtocolError when it is malformed."""
        if len(data) < _HEADER.size:
            raise ProtocolError(f"cuckoo filter of {len(data)} bytes is shorter than its header")
        lb, bs, f, seed = _HEADER.unpack_from(data, 0)
        if not (1 <= lb <= _KEPT_BITS and bs >= 1 and 4 <= f <= 32):
            raise ProtocolError(f"cuckoo header out of range: 2^{lb} buckets of {bs}, {f}-bit fingerprints")
        if len(data) != _HEADER.size + -(-(bs << lb) * f // 8):
            raise ProtocolError(f"cuckoo filter has {len(data)} bytes, its header announces {bs << lb} slots")
        cf = cls(lb, bs, f, seed)
        cf._fill = None
        for start in range(0, cf.capacity, _CHUNK):
            n = min(_CHUNK, cf.capacity - start)
            lanes = -(-n // 8) * 8
            # the last group may be cut to whole bytes
            packed = data[_HEADER.size + start // 8 * f : _HEADER.size + (start + lanes) // 8 * f]
            packed = packed.ljust(lanes // 8 * f, b"\0")
            groups = bytearray(4 * lanes)
            for i in range(f):
                groups[i::32] = packed[i::f]
            # lanes past n carry only the padding bits of the last byte
            x = _unpack_lanes(int.from_bytes(groups, "little"), f, lanes) & ((1 << 32 * n) - 1)
            ones = _lane_masks(lanes)[1]
            low = ones * 0x7FFF_FFFF
            cf.occupancy += ((x | ((x & low) + low)) >> 31 & ones).bit_count()  # nonzero lanes
            cf._slots[start : start + n] = array("I", x.to_bytes(4 * n, "little"))
        if sys.byteorder == "big":
            cf._slots.byteswap()
        return cf


def build_filter(
    elements,
    seed: int,
    bucket_size: int = 4,
    fingerprint_bits: int = 12,
    max_kicks: int = 500,
) -> CuckooFilter:
    """Size a filter for the element count and insert everything.

    The filter keeps each element's fingerprint and first-bucket hash,
    in the order of ``elements``, for ``local_only``.

    Raises FilterFullError if any insertion fails, which at the sizing
    target of 80% load indicates a pathological input.
    """
    elements = list(elements)
    cf = CuckooFilter(geometry_for(len(elements), bucket_size), bucket_size, fingerprint_bits, seed)
    fps, kept = array("I"), array("I")
    for block in blocks(elements):
        fps.extend([h & cf._fp_mask or 1 for h in keyed_hashes(cf._fp_seed, block)])
        kept.extend([h & _KEPT_MASK for h in keyed_hashes(cf._idx_seed, block)])
    cf._kept = elements, fps, kept
    cf._cache_alt_offsets(fps)
    place, mask = cf._place, cf._index_mask
    for e, fp, h in zip(elements, fps, kept):
        if not place(h & mask, fp, max_kicks):
            raise FilterFullError(f"inserting {e} failed at occupancy {cf.occupancy}/{cf.capacity}")
    return cf


def local_only(mine: CuckooFilter, theirs: CuckooFilter) -> set[int]:
    """The elements of ``mine`` with a negative membership answer in ``theirs``.

    A negative answer is definitive, so the result never contains an
    element the peer also holds; false positives can only hide genuine
    local-only elements.

    ``mine`` is this side's filter from ``build_filter``: its kept hashes
    stand for hashing its elements again. The filters must agree on seed,
    fingerprint width and bucket size, or IncompatibleSketchError is
    raised; their bucket counts may differ.
    """
    shape = (theirs.seed, theirs.fingerprint_bits, theirs.bucket_size)
    if (mine.seed, mine.fingerprint_bits, mine.bucket_size) != shape:
        raise IncompatibleSketchError("filters disagree on seed, fingerprint width or bucket size")
    elements, fps, kept = mine._kept
    offsets = theirs._cache_alt_offsets(fps)
    slots, b, mask = theirs._slots, theirs.bucket_size, theirs._index_mask
    out = set()
    for e, fp, h in zip(elements, fps, kept):
        i = (h & mask) * b
        if fp not in slots[i : i + b]:
            i = ((h & mask) ^ offsets[fp]) * b
            if fp not in slots[i : i + b]:
                out.add(e)
    return out
