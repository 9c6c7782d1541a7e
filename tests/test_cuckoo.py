import random

import pytest
import reference_cuckoo

from gensync.cuckoo import CuckooFilter, build_filter, geometry_for, local_only
from gensync.errors import FilterFullError, IncompatibleSketchError, ProtocolError
from gensync.hashing import BLOCK


def state(cf):
    return cf.log_buckets, cf.bucket_size, cf.fingerprint_bits, cf.seed, cf._slots


def distinct_u64(rng, n, exclude=()):
    out = set()
    exclude = set(exclude)
    while len(out) < n:
        v = rng.getrandbits(64)
        if v not in exclude:
            out.add(v)
    return out


def test_geometry_targets_eighty_percent_load():
    assert geometry_for(10_000) == 12  # 4096 buckets * 4 slots, load 61%
    assert geometry_for(0) == 1
    for n in (100, 1_000, 50_000):
        lb = geometry_for(n)
        assert (1 << lb) * 4 * 0.8 >= n
        assert (1 << (lb - 1)) * 4 * 0.8 < n or lb == 1


def test_insert_into_empty():
    cf = build_filter([42], seed=1)
    assert cf.occupancy == 1
    assert local_only(cf, CuckooFilter.from_bytes(cf.to_bytes())) == set()


def bucket(cf, idx):
    return cf._slots[idx * cf.bucket_size : (idx + 1) * cf.bucket_size]


def test_alt_index_involution():
    # every key's fingerprint sits in one of its two buckets, each the other's alternate
    cf = build_filter(distinct_u64(random.Random(3), 3_000), seed=7)
    _, fps, kept = cf._kept
    for fp, h in zip(fps, kept):
        i1 = h & cf._index_mask
        i2 = reference_cuckoo.alt_index(cf, i1, fp)
        assert i2 == i1 ^ cf._alt_offsets[fp]
        assert reference_cuckoo.alt_index(cf, i2, fp) == i1
        assert fp in bucket(cf, i1) or fp in bucket(cf, i2)


def test_fingerprint_never_zero():
    keys = distinct_u64(random.Random(4), 5000)
    cf = build_filter(keys, seed=5, fingerprint_bits=4)
    assert all(1 <= fp <= 15 for fp in cf._kept[1])
    assert sum(1 for fp in cf._slots if fp) == cf.occupancy == len(keys)


def test_half_load_inserts_all_succeed():
    rng = random.Random(50)
    elements = distinct_u64(rng, 2048)
    cf = build_filter(elements, seed=50)
    assert cf.capacity == 2 * len(elements)
    assert cf.occupancy == len(elements)


def test_no_false_negatives():
    rng = random.Random(60)
    elements = distinct_u64(rng, 10_000)
    cf = build_filter(elements, seed=60)
    assert local_only(cf, CuckooFilter.from_bytes(cf.to_bytes())) == set()


def test_lookup_on_empty_filter():
    mine = build_filter([1, 2**63], seed=0)
    assert local_only(mine, CuckooFilter(4, 4, 12, seed=0)) == {1, 2**63}


def test_false_positive_rate_within_analytic_bound():
    rng = random.Random(70)
    n = 10_000
    elements = distinct_u64(rng, n)
    cf = build_filter(elements, seed=70)  # f=12, b=4, load <= 80%
    absent = distinct_u64(rng, 10_000, exclude=elements)
    fp = len(absent) - len(local_only(build_filter(absent, seed=70), cf))
    bound = 2 * 4 / 2**12
    assert fp / len(absent) <= 3 * bound


def test_local_only_never_over_reports():
    rng = random.Random(80)
    theirs = distinct_u64(rng, 2_000)
    mine = set(list(theirs)[:1_000]) | distinct_u64(rng, 100, exclude=theirs)
    cf = build_filter(theirs, seed=80)
    result = local_only(build_filter(mine, seed=80), cf)
    assert result & theirs == set()
    assert result <= mine - theirs


def test_local_only_subset_of_their_set_is_empty():
    rng = random.Random(81)
    theirs = distinct_u64(rng, 500)
    mine = set(list(theirs)[:200])
    cf = build_filter(theirs, seed=81)
    assert local_only(build_filter(mine, seed=81), cf) == set()


def test_local_only_disjoint_sets_wide_fingerprint():
    # f=16 keeps the expected miss count around |mine| * 2b / 2^f = 0.5
    rng = random.Random(82)
    theirs = distinct_u64(rng, 4_000)
    mine = distinct_u64(rng, 4_000, exclude=theirs)
    cf = build_filter(theirs, seed=82, fingerprint_bits=16)
    found = local_only(build_filter(mine, seed=82, fingerprint_bits=16), cf)
    assert found <= mine
    assert len(mine) - len(found) <= 4  # a few fingerprint collisions allowed


def test_serialization_round_trip():
    rng = random.Random(90)
    cf = build_filter(distinct_u64(rng, 300), seed=90)
    back = CuckooFilter.from_bytes(cf.to_bytes())
    assert state(back) == state(cf)
    assert back.occupancy == cf.occupancy


def test_serialized_size_steps_with_log_buckets():
    # table payload doubles exactly when the bucket exponent increments
    sizes = {}
    for exp in range(10, 18):
        n = 1 << exp
        lb = geometry_for(n)
        cf = CuckooFilter(lb, 4, 12, seed=1)
        sizes[lb] = len(cf.to_bytes()) - 11
    exps = sorted(sizes)
    for a, b in zip(exps, exps[1:]):
        assert sizes[b] == sizes[a] * (1 << (b - a))


def test_serialized_size_independent_of_contents():
    rng = random.Random(91)
    a = build_filter(distinct_u64(rng, 1000), seed=91)
    b = CuckooFilter(a.log_buckets, 4, 12, seed=91)
    assert len(a.to_bytes()) == len(b.to_bytes())


def test_insert_reports_failure_when_overfull():
    # 100 keys in 2^7 buckets of one slot, few kicks: a placement fails
    rng = random.Random(92)
    with pytest.raises(FilterFullError, match="failed at occupancy"):
        build_filter(distinct_u64(rng, 100), seed=92, bucket_size=1, max_kicks=5)


def empty_like(cf):
    return CuckooFilter(cf.log_buckets, cf.bucket_size, cf.fingerprint_bits, cf.seed)


@pytest.mark.parametrize("n, bucket_size", [(1, 4), (BLOCK + 1, 4), (3 * BLOCK + 700, 4), (2_500, 2)])
def test_build_filter_equals_scalar_inserts(n, bucket_size):
    rng = random.Random(n)
    keys = list(distinct_u64(rng, n))
    cf = build_filter(keys, seed=n, bucket_size=bucket_size)
    reference = empty_like(cf)
    assert all(reference_cuckoo.insert(reference, k) for k in keys)
    assert state(cf) == state(reference)
    assert cf.occupancy == reference.occupancy == n
    assert cf._evict_rng.getstate() == reference._evict_rng.getstate()


def test_high_load_build_kicks_like_scalar_inserts():
    # 12,000 keys in 2^12 buckets of 4: a load of 73%, so many kicks
    rng = random.Random(12)
    keys = list(distinct_u64(rng, 12_000))
    cf = build_filter(keys, seed=12)
    reference = empty_like(cf)
    assert all(reference_cuckoo.insert(reference, k) for k in keys)
    assert cf._evict_rng.getstate() != empty_like(cf)._evict_rng.getstate()
    assert state(cf) == state(reference)
    assert cf._evict_rng.getstate() == reference._evict_rng.getstate()


def test_build_filter_fails_where_scalar_inserts_fail():
    # one slot a bucket at up to 80% load and few kicks: an insert fails
    rng = random.Random(13)
    keys = list(distinct_u64(rng, 5_000))
    with pytest.raises(FilterFullError) as failure:
        build_filter(keys, seed=13, bucket_size=1, max_kicks=8)
    reference = CuckooFilter(geometry_for(len(keys), 1), 1, 12, seed=13)
    failed_at = next(k for k in keys if not reference_cuckoo.insert(reference, k, 8))
    assert keys.index(failed_at) > 0
    expected = f"inserting {failed_at} failed at occupancy {reference.occupancy}/{reference.capacity}"
    assert str(failure.value) == expected


def test_local_only_equals_lookups():
    rng = random.Random(14)
    theirs = distinct_u64(rng, 3 * BLOCK)
    mine = list(theirs)[: 2 * BLOCK] + list(distinct_u64(rng, BLOCK + 9, exclude=theirs))
    payload = build_filter(theirs, seed=14).to_bytes()
    cf = CuckooFilter.from_bytes(payload)
    mine_cf = build_filter(mine, seed=14)
    found = local_only(mine_cf, cf)
    assert found == {e for e in mine if not reference_cuckoo.lookup(cf, e)}
    assert local_only(mine_cf, CuckooFilter.from_bytes(payload)) == found


# the lane codec against the per-slot loops it replaced (reference_cuckoo)


def filled_at_random(rng, log_buckets, bucket_size, fingerprint_bits):
    """A filter whose slots hold random fingerprints, the widest among them, and empty slots."""
    cf = CuckooFilter(log_buckets, bucket_size, fingerprint_bits, seed=rng.getrandbits(64))
    top = (1 << fingerprint_bits) - 1
    for s in range(cf.capacity):
        cf._slots[s] = rng.choice((0, top, rng.randrange(1, top + 1)))
    return cf


# (log_buckets, bucket_size): tiny filters whose slots do not fill a group
# of eight or a whole byte, one chunk of the codec, several, and a part chunk
GEOMETRIES = [
    (1, 1), (1, 2), (2, 1), (1, 3), (2, 3), (3, 1), (1, 4), (1, 8), (2, 8),
    (10, 4), (11, 4), (11, 8), (11, 3), (12, 2), (13, 1),
]


@pytest.mark.parametrize("fingerprint_bits", range(4, 33))
def test_codec_equals_the_per_slot_reference(fingerprint_bits):
    rng = random.Random(fingerprint_bits)
    for log_buckets, bucket_size in GEOMETRIES:
        cf = filled_at_random(rng, log_buckets, bucket_size, fingerprint_bits)
        payload = cf.to_bytes()
        assert payload == reference_cuckoo.encode(log_buckets, bucket_size, fingerprint_bits, cf.seed, cf._slots)
        header, slots, occupancy = reference_cuckoo.decode(payload)
        back = CuckooFilter.from_bytes(payload)
        assert state(back) == state(cf)
        assert list(back._slots) == slots
        assert back.occupancy == occupancy == sum(1 for fp in cf._slots if fp)
        # any body of the right length, including set padding bits in the last byte
        noise = payload[:11] + rng.randbytes(len(payload) - 11)
        header, slots, occupancy = reference_cuckoo.decode(noise)
        back = CuckooFilter.from_bytes(noise)
        assert (back.log_buckets, back.bucket_size, back.fingerprint_bits, back.seed) == header
        assert list(back._slots) == slots
        assert back.occupancy == occupancy


@pytest.mark.parametrize("bucket_size", [1, 2, 4, 8])
def test_round_trip_restores_slots_and_occupancy(bucket_size):
    rng = random.Random(bucket_size)
    for fingerprint_bits in range(4, 33):
        keys = distinct_u64(rng, 300)
        # at most 15% load: buckets of one fill up long before 80%
        cf = CuckooFilter(geometry_for(1_000, bucket_size), bucket_size, fingerprint_bits, seed=fingerprint_bits)
        assert all(reference_cuckoo.insert(cf, k) for k in keys)
        back = CuckooFilter.from_bytes(cf.to_bytes())
        assert back._slots == cf._slots
        assert back.occupancy == cf.occupancy == len(keys)
        assert back.to_bytes() == cf.to_bytes()


def test_header_beyond_the_kept_hash_bits_is_refused():
    header = bytes([33, 4, 12]) + bytes(8)
    with pytest.raises(ProtocolError, match="out of range"):
        CuckooFilter.from_bytes(header)
    with pytest.raises(ValueError):
        CuckooFilter(33, 4, 12, seed=0)


# kept hashes: local_only reuses the build's fingerprints and bucket hashes


@pytest.mark.parametrize(
    "mine_n, their_n",
    [(3_000, 3_500), (3_500, 3_000), (1_000, 20_000), (20_000, 1_000)],
)
def test_kept_hashes_answer_like_lookups_across_geometries(mine_n, their_n):
    rng = random.Random(mine_n * their_n)
    pool = list(distinct_u64(rng, mine_n + their_n))
    shared = min(mine_n, their_n) - 40
    mine, theirs = pool[:mine_n], pool[:shared] + pool[mine_n : mine_n + their_n - shared]
    mine_cf, their_cf = build_filter(mine, seed=21), build_filter(theirs, seed=21)
    # the peer's filter has more buckets than this side's, or fewer
    assert (their_cf.log_buckets > mine_cf.log_buckets) == (their_n > mine_n)
    assert their_cf.log_buckets != mine_cf.log_buckets
    decoded = CuckooFilter.from_bytes(their_cf.to_bytes())
    expected = {e for e in mine if not reference_cuckoo.lookup(decoded, e)}
    assert len(expected) >= 40
    assert local_only(mine_cf, decoded) == expected
    assert expected == {e for e in mine if not reference_cuckoo.lookup(their_cf, e)}


def test_kept_hashes_index_a_peer_filter_of_2_to_the_18_buckets():
    # bucket indices wider than 16 bits: the kept hash must cover them
    rng = random.Random(22)
    mine = list(distinct_u64(rng, 1_000))
    mine_cf = build_filter(mine, seed=22)
    their_cf = CuckooFilter(18, 4, 12, seed=22)
    assert all(reference_cuckoo.insert(their_cf, e) for e in mine[:300])
    expected = {e for e in mine if not reference_cuckoo.lookup(their_cf, e)}
    assert len(expected) >= 690
    assert local_only(mine_cf, their_cf) == expected


@pytest.mark.parametrize("field", ["seed", "fingerprint_bits", "bucket_size"])
def test_local_only_refuses_a_filter_built_otherwise(field):
    settings = {"seed": 9, "fingerprint_bits": 12, "bucket_size": 4}
    mine = build_filter(range(500), **settings)
    settings[field] += 1
    theirs = CuckooFilter.from_bytes(build_filter(range(500), **settings).to_bytes())
    with pytest.raises(IncompatibleSketchError):
        local_only(mine, theirs)


def test_local_only_answers_for_the_elements_the_filter_was_built_from():
    rng = random.Random(23)
    mine = list(distinct_u64(rng, 2_000))
    built_from = list(mine)
    mine_cf = build_filter(mine, seed=23)
    their_cf = build_filter(mine[:1_500] + list(distinct_u64(rng, 100)), seed=23)
    # the caller's list changes after the build; the filter's elements do not
    mine.append(7)
    mine.sort()
    expected = {e for e in built_from if not reference_cuckoo.lookup(their_cf, e)}
    assert len(expected) >= 450
    assert local_only(mine_cf, their_cf) == expected
