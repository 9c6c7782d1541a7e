"""Per-key cuckoo filter operations and the per-slot codec, kept as references
for differential tests.

``gensync.cuckoo`` hashes a block of keys at a time, places them by fill
counts, and packs and unpacks fingerprints by lanes of eight slots; these
are the one-key insertion and lookup and the bit loops, one slot at a
time, that it must reproduce.
"""

import struct

from gensync.hashing import keyed_hash

_HEADER = struct.Struct(">BBBQ")


def fingerprint(cf, key):
    fp = keyed_hash(cf._fp_seed, key) & cf._fp_mask
    return fp if fp else 1


def index(cf, key):
    return keyed_hash(cf._idx_seed, key) & cf._index_mask


def alt_index(cf, idx, fp):
    return idx ^ (keyed_hash(cf._alt_seed, fp) & cf._index_mask)


def insert(cf, key, max_kicks=500):
    """Place the key's fingerprint in the first empty slot of a bucket; False when the filter is full."""

    def bucket_insert(idx, fp):
        base = idx * cf.bucket_size
        for s in range(base, base + cf.bucket_size):
            if cf._slots[s] == 0:
                cf._slots[s] = fp
                cf.occupancy += 1
                return True
        return False

    fp = fingerprint(cf, key)
    i1 = index(cf, key)
    i2 = alt_index(cf, i1, fp)
    if bucket_insert(i1, fp) or bucket_insert(i2, fp):
        return True
    idx = cf._evict_rng.choice((i1, i2))
    for _ in range(max_kicks):
        victim = idx * cf.bucket_size + cf._evict_rng.randrange(cf.bucket_size)
        fp, cf._slots[victim] = cf._slots[victim], fp
        idx = alt_index(cf, idx, fp)
        if bucket_insert(idx, fp):
            return True
    return False


def lookup(cf, key):
    fp, i1 = fingerprint(cf, key), index(cf, key)
    b = cf.bucket_size
    i2 = alt_index(cf, i1, fp)
    return fp in cf._slots[i1 * b : i1 * b + b] or fp in cf._slots[i2 * b : i2 * b + b]


def encode(log_buckets, bucket_size, fingerprint_bits, seed, slots) -> bytes:
    """Header, then the fingerprints packed in slot order, little-endian bit order."""
    out = bytearray(_HEADER.pack(log_buckets, bucket_size, fingerprint_bits, seed))
    buf = 0
    nbits = 0
    for fp in slots:
        buf |= fp << nbits
        nbits += fingerprint_bits
        while nbits >= 8:
            out.append(buf & 0xFF)
            buf >>= 8
            nbits -= 8
    if nbits:
        out.append(buf & 0xFF)
    return bytes(out)


def decode(data: bytes):
    """((log_buckets, bucket_size, fingerprint_bits, seed), slots, occupancy) of a well-formed filter."""
    lb, bs, fbits, seed = _HEADER.unpack_from(data, 0)
    buf = 0
    nbits = 0
    off = _HEADER.size
    mask = (1 << fbits) - 1
    slots = []
    for _ in range(bs << lb):
        while nbits < fbits:
            buf |= data[off] << nbits
            off += 1
            nbits += 8
        slots.append(buf & mask)
        buf >>= fbits
        nbits -= fbits
    return (lb, bs, fbits, seed), slots, sum(1 for fp in slots if fp)
