"""Seeded 64-bit mixing used by the IBLT and cuckoo sketches.

The mixer is the splitmix64 finalizer. It is fixed and documented so that
serialized sketches stay portable: two peers that agree on a seed derive
identical cell indices, check hashes and fingerprints.

``keyed_hashes`` runs the same mixer over a block of keys at once: each
key sits in its own 128-bit slot of one integer, so each step of the
mixer is a handful of big-integer operations instead of a Python loop.
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


def keyed_hashes(seed: int, keys) -> list[int]:
    """``[keyed_hash(seed, k) for k in keys]`` for a sequence of keys, slot-wise.

    Each key takes a 128-bit slot, its value in the low 64 bits. A 64-bit
    value times a 64-bit constant fits its slot, so no product carries
    into the next one. The right shifts before a product are masked to
    the low 64 bits of each slot, so that no bits come down from the slot
    above; the last one needs no mask, since what it brings down lands
    above bit 64 and unpacking drops it.
    """
    try:
        words = _words(keys)
    except OverflowError:
        words = _words([k & MASK64 for k in keys])
    n = len(words)
    if not n:
        return []
    slots = array("Q", bytes(16 * n))
    slots[::2] = words
    low, ones = _layout(n)
    x = int.from_bytes(slots, "little") ^ (seed & MASK64) * ones
    x = ((x ^ ((x >> 30) & low)) * _MIX1) & low
    x = ((x ^ ((x >> 27) & low)) * _MIX2) & low
    x ^= x >> 31
    out = _words(x.to_bytes(16 * n, "little"))
    return out[::2].tolist()


def blocks(elements):
    """Lists of up to ``BLOCK`` consecutive elements of an iterable."""
    it = iter(elements)
    while block := list(islice(it, BLOCK)):
        yield block
