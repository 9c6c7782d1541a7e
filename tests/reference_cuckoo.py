"""The per-slot cuckoo filter codec, kept as a reference for differential tests.

``gensync.cuckoo`` packs and unpacks fingerprints by lanes of eight slots;
these are the bit loops it replaced, one slot at a time, on plain lists.
"""

import struct

_HEADER = struct.Struct(">BBBQ")


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
