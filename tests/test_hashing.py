import hashlib
import random

import pytest

from gensync.cpi import make_sketch
from gensync.cuckoo import build_filter
from gensync.hashing import BLOCK, MASK64, blocks, keyed_hash, keyed_hashes
from gensync.iblt import build_table
from gensync.session import _encode_lists

EDGE_KEYS = [0, 1, 2**63, MASK64]


@pytest.mark.parametrize("seed", [0, 1, 2**63, MASK64, 0x9E3779B97F4A7C15])
def test_keyed_hashes_equal_the_scalar_hash(seed):
    rng = random.Random(seed)
    keys = EDGE_KEYS + [rng.getrandbits(64) for _ in range(2_000)] + EDGE_KEYS
    assert keyed_hashes(seed, keys) == [keyed_hash(seed, k) for k in keys]


def test_keyed_hashes_of_each_edge_key_alone():
    for seed in (0, MASK64):
        for key in EDGE_KEYS:
            assert keyed_hashes(seed, [key]) == [keyed_hash(seed, key)]


def test_keyed_hashes_take_any_sequence_and_any_int():
    keys = {3, 5, 2**64 - 2}
    assert keyed_hashes(11, keys) == [keyed_hash(11, k) for k in keys]
    assert keyed_hashes(11, range(5)) == [keyed_hash(11, k) for k in range(5)]
    assert keyed_hashes(11, []) == []
    # outside [0, 2^64) the key is reduced as keyed_hash reduces it
    odd = [-1, 2**64, 2**70 + 3]
    assert keyed_hashes(-7, odd) == [keyed_hash(-7, k) for k in odd]


def test_blocks_cover_the_input_in_order():
    for n in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5):
        parts = list(blocks(iter(range(n))))
        assert [e for part in parts for e in part] == list(range(n))
        assert all(0 < len(part) <= BLOCK for part in parts)


def test_sketch_bytes_are_pinned():
    # digests of the per-key builds and per-value codecs; any change to
    # cells, fingerprints, their placement or a codec's layout changes them
    table = build_table(range(20_000), 150, 6, 0x5EED).to_bytes()
    cuckoo = build_filter(range(20_000), 0x5EED).to_bytes()
    cpi = make_sketch(range(20_000), 64, 8).to_bytes()
    diffs = _encode_lists(set(range(0, 2**64, 2**54)), [5, MASK64, 0], [])
    assert hashlib.sha256(table).hexdigest() == "3ba813676152bc989259d9e9bef457724dfaaa44127228ad5c99d80fef29e983"
    assert hashlib.sha256(cuckoo).hexdigest() == "097ea56057756b0760efacdccc25e07c36adb19b412497ab2721b3d0730b2eea"
    assert hashlib.sha256(cpi).hexdigest() == "698674d6d7add7043557dada99dc261d00ec44148dfed7378f138a64542cff0f"
    assert hashlib.sha256(diffs).hexdigest() == "9e378b0ab3ff5fe451333ec73d446807b3f6b42f0129dc8ab52fa777d4768db8"
