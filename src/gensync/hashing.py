"""Seeded 64-bit mixing used by the IBLT and cuckoo sketches.

The mixer is the splitmix64 finalizer. It is fixed and documented so that
serialized sketches stay portable: two peers that agree on a seed derive
identical cell indices, check hashes and fingerprints.

``packed_hashes`` runs the same mixer over a block of keys at once: each
key sits in its own 128-bit slot of one integer, so each step of the
mixer is a handful of big-integer operations instead of a Python loop.
The block is packed once and mixed under each seed a sketch needs, and
``digits`` reads cell indices out of the packed hashes without unpacking
them first.
"""

import sys
from array import array
from functools import lru_cache
from itertools import islice

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Elements per block of the batched sketch builds: the packed integers
# and per-block lists stay small however large the set is.
BLOCK = 4096


def mix64(x: int) -> int:
    """Avalanche a 64-bit value (splitmix64 finalizer)."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Derive the ``index``-th subordinate seed from a master seed."""
    return mix64((seed + (index + 1) * _GOLDEN) & MASK64)


def keyed_hash(seed: int, key: int) -> int:
    """Hash ``key`` under a derived seed; uniform over the 64-bit range."""
    return mix64(key ^ seed)


def _words(values) -> array:
    words = array("Q", values)
    if sys.byteorder == "big":
        words.byteswap()
    return words


@lru_cache(maxsize=4)
def _layout(n: int) -> tuple[int, int]:
    """The low 64 bits of each of n 128-bit slots, and a 1 in each slot."""
    low = int.from_bytes((b"\xff" * 8 + bytes(8)) * n, "little")
    return low, low // MASK64


def packed_hashes(keys, seeds) -> list[int]:
    """The keys packed once and hashed under each seed, still packed.

    For each seed, one integer whose 128-bit slot i holds
    ``keyed_hash(seed, keys[i])`` in its low 64 bits and zeros above.
    ``keys`` is any sequence of ints; ``unpack`` reads the hashes back.

    A 64-bit value times a 64-bit constant fits its slot, so no product
    carries into the next one. Each right shift is masked to the low 64
    bits of each slot, so that no bits come down from the slot above.
    """
    try:
        words = _words(keys)
    except OverflowError:
        words = _words([k & MASK64 for k in keys])
    n = len(words)
    slots = array("Q", bytes(16 * n))
    slots[::2] = words
    packed = int.from_bytes(slots, "little")
    low, ones = _layout(n)
    out = []
    for seed in seeds:
        x = packed ^ (seed & MASK64) * ones
        x = ((x ^ ((x >> 30) & low)) * _MIX1) & low
        x = ((x ^ ((x >> 27) & low)) * _MIX2) & low
        out.append(x ^ ((x >> 31) & low))
    return out


def unpack(x: int, n: int) -> list[int]:
    """The low 64 bits of each of the n 128-bit slots of ``x``."""
    return _words(x.to_bytes(16 * n, "little"))[::2].tolist()


def digits(h: int, n: int, base: int, offsets):
    """Successive base-``base`` digits of ``h / 2^64`` in each slot of packed hashes.

    Yields one list per offset, most significant digit first, each digit
    plus the offset. The digit is the slot's high half after ``h *= base``;
    the low half carries on to the next digit. Each slot's 64-bit value
    times ``base`` fits its slot, as does a digit plus an offset below
    2^64.
    """
    low, ones = _layout(n)
    high_ones = ones << 64
    for offset in offsets:
        h *= base
        yield _words((h + offset * high_ones).to_bytes(16 * n, "little"))[1::2].tolist()
        h &= low


def keyed_hashes(seed: int, keys) -> list[int]:
    """``[keyed_hash(seed, k) for k in keys]`` for a sequence of keys, slot-wise."""
    (x,) = packed_hashes(keys, [seed])
    return unpack(x, len(keys))


def blocks(elements):
    """Lists of up to ``BLOCK`` consecutive elements of an iterable."""
    it = iter(elements)
    while block := list(islice(it, BLOCK)):
        yield block
