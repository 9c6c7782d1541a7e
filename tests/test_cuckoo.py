import random

import pytest

from gensync.cuckoo import CuckooFilter, build_filter, geometry_for, local_only
from gensync.errors import FilterFullError
from gensync.hashing import BLOCK, keyed_hash


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
    cf = CuckooFilter(4, 4, 12, seed=1)
    assert cf.insert(42)
    assert cf.occupancy == 1
    assert cf.lookup(42)


def test_alt_index_involution():
    cf = CuckooFilter(8, 4, 12, seed=7)
    rng = random.Random(3)
    for _ in range(500):
        i = rng.randrange(cf.num_buckets)
        fp = rng.randrange(1, 1 << 12)
        assert cf.alt_index(cf.alt_index(i, fp), fp) == i


def test_fingerprint_never_zero():
    cf = CuckooFilter(4, 4, 4, seed=5)
    rng = random.Random(4)
    for _ in range(5000):
        assert 1 <= cf.fingerprint(rng.getrandbits(64)) <= 15


def test_half_load_inserts_all_succeed():
    rng = random.Random(50)
    cf = CuckooFilter(10, 4, 12, seed=50)
    elements = distinct_u64(rng, cf.capacity // 2)
    assert all(cf.insert(e) for e in elements)
    assert cf.occupancy == len(elements)


def test_no_false_negatives():
    rng = random.Random(60)
    elements = distinct_u64(rng, 10_000)
    cf = build_filter(elements, seed=60)
    assert all(cf.lookup(e) for e in elements)


def test_lookup_on_empty_filter():
    cf = CuckooFilter(4, 4, 12, seed=0)
    assert not cf.lookup(1)
    assert not cf.lookup(2**63)


def test_false_positive_rate_within_analytic_bound():
    rng = random.Random(70)
    n = 10_000
    elements = distinct_u64(rng, n)
    cf = build_filter(elements, seed=70)  # f=12, b=4, load <= 80%
    absent = distinct_u64(rng, 10_000, exclude=elements)
    fp = sum(1 for e in absent if cf.lookup(e))
    bound = 2 * 4 / 2**12
    assert fp / len(absent) <= 3 * bound


def test_local_only_never_over_reports():
    rng = random.Random(80)
    theirs = distinct_u64(rng, 2_000)
    mine = set(list(theirs)[:1_000]) | distinct_u64(rng, 100, exclude=theirs)
    cf = build_filter(theirs, seed=80)
    result = local_only(mine, cf)
    assert result & theirs == set()
    assert result <= mine - theirs


def test_local_only_subset_of_their_set_is_empty():
    rng = random.Random(81)
    theirs = distinct_u64(rng, 500)
    mine = set(list(theirs)[:200])
    cf = build_filter(theirs, seed=81)
    assert local_only(mine, cf) == set()


def test_local_only_disjoint_sets_wide_fingerprint():
    # f=16 keeps the expected miss count around |mine| * 2b / 2^f = 0.5
    rng = random.Random(82)
    theirs = distinct_u64(rng, 4_000)
    mine = distinct_u64(rng, 4_000, exclude=theirs)
    cf = build_filter(theirs, seed=82, fingerprint_bits=16)
    found = local_only(mine, cf)
    assert found <= mine
    assert len(mine) - len(found) <= 4  # a few fingerprint collisions allowed


def test_serialization_round_trip():
    rng = random.Random(90)
    cf = build_filter(distinct_u64(rng, 300), seed=90)
    back = CuckooFilter.from_bytes(cf.to_bytes())
    assert back == cf
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
    rng = random.Random(92)
    cf = CuckooFilter(2, 2, 12, seed=92)
    results = [cf.insert(e, max_kicks=50) for e in distinct_u64(rng, 100)]
    assert not all(results)
    assert cf.occupancy <= cf.capacity


def scalar_alt_index(cf, idx, fp):
    return idx ^ (keyed_hash(cf._alt_seed, fp) & cf._index_mask)


def scalar_insert(cf, key, max_kicks):
    """The per-key insertion that batched builds must reproduce."""

    def bucket_insert(idx, fp):
        base = idx * cf.bucket_size
        for s in range(base, base + cf.bucket_size):
            if cf._slots[s] == 0:
                cf._slots[s] = fp
                cf.occupancy += 1
                return True
        return False

    fp = cf.fingerprint(key)
    i1 = cf.index(key)
    i2 = scalar_alt_index(cf, i1, fp)
    if bucket_insert(i1, fp) or bucket_insert(i2, fp):
        return True
    idx = cf._evict_rng.choice((i1, i2))
    for _ in range(max_kicks):
        victim = idx * cf.bucket_size + cf._evict_rng.randrange(cf.bucket_size)
        fp, cf._slots[victim] = cf._slots[victim], fp
        idx = scalar_alt_index(cf, idx, fp)
        if bucket_insert(idx, fp):
            return True
    return False


def scalar_lookup(cf, key):
    fp, i1 = cf.fingerprint(key), cf.index(key)
    b = cf.bucket_size
    i2 = scalar_alt_index(cf, i1, fp)
    return fp in cf._slots[i1 * b : i1 * b + b] or fp in cf._slots[i2 * b : i2 * b + b]


def empty_like(cf):
    return CuckooFilter(cf.log_buckets, cf.bucket_size, cf.fingerprint_bits, cf.seed)


@pytest.mark.parametrize("n, bucket_size", [(1, 4), (BLOCK + 1, 4), (3 * BLOCK + 700, 4), (2_500, 2)])
def test_build_filter_equals_scalar_inserts(n, bucket_size):
    rng = random.Random(n)
    keys = list(distinct_u64(rng, n))
    cf = build_filter(keys, seed=n, bucket_size=bucket_size)
    reference, by_insert = empty_like(cf), empty_like(cf)
    assert all(scalar_insert(reference, k, 500) for k in keys)
    assert all(by_insert.insert(k) for k in keys)
    assert cf == reference == by_insert
    assert cf.occupancy == reference.occupancy == by_insert.occupancy == n
    assert cf._evict_rng.getstate() == reference._evict_rng.getstate()


def test_high_load_build_kicks_like_scalar_inserts():
    # 12,000 keys in 2^12 buckets of 4: a load of 73%, so many kicks
    rng = random.Random(12)
    keys = list(distinct_u64(rng, 12_000))
    cf = build_filter(keys, seed=12)
    reference = empty_like(cf)
    assert all(scalar_insert(reference, k, 500) for k in keys)
    assert cf._evict_rng.getstate() != empty_like(cf)._evict_rng.getstate()
    assert cf == reference
    assert cf._evict_rng.getstate() == reference._evict_rng.getstate()


def test_build_filter_fails_where_scalar_inserts_fail():
    # one slot a bucket at up to 80% load and few kicks: an insert fails
    rng = random.Random(13)
    keys = list(distinct_u64(rng, 5_000))
    with pytest.raises(FilterFullError) as failure:
        build_filter(keys, seed=13, bucket_size=1, max_kicks=8)
    reference = CuckooFilter(geometry_for(len(keys), 1), 1, 12, seed=13)
    failed_at = next(k for k in keys if not scalar_insert(reference, k, 8))
    assert keys.index(failed_at) > 0
    expected = f"inserting {failed_at} failed at occupancy {reference.occupancy}/{reference.capacity}"
    assert str(failure.value) == expected


def test_local_only_equals_lookups():
    rng = random.Random(14)
    theirs = distinct_u64(rng, 3 * BLOCK)
    mine = list(theirs)[: 2 * BLOCK] + list(distinct_u64(rng, BLOCK + 9, exclude=theirs))
    payload = build_filter(theirs, seed=14).to_bytes()
    cf = CuckooFilter.from_bytes(payload)
    found = local_only(mine, cf)
    assert found == {e for e in mine if not scalar_lookup(cf, e)}
    fresh = CuckooFilter.from_bytes(payload)
    assert found == {e for e in mine if not fresh.lookup(e)}
    assert local_only(mine, fresh) == found
