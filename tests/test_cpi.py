import random

import pytest

from gensync.cpi import CpiSketch, extend_sketch, make_sketch, reconcile, sample_point
from gensync.errors import BoundExceededError, IncompatibleSketchError, ProtocolError
from gensync.field import MODULUS, ff_inv

P = MODULUS


def sym_diff_oracle(a, b):
    """Brute-force reference split of the symmetric difference."""
    a = {x % P for x in a}
    b = {x % P for x in b}
    return a - b, b - a


def seeded_pair(seed, n_common, n_a, n_b):
    rng = random.Random(seed)
    drawn, seen = [], set()
    while len(drawn) < n_common + n_a + n_b:
        v = rng.getrandbits(60)  # stay below the modulus
        if v not in seen:
            seen.add(v)
            drawn.append(v)
    common = set(drawn[:n_common])
    return common | set(drawn[n_common : n_common + n_a]), common | set(drawn[n_common + n_a :])


def test_empty_set_sketch_is_all_ones():
    s = make_sketch([], mbar=4, verification_points=2)
    assert s.evaluations == [1] * 6
    assert s.set_size == 0


def test_singleton_sketch_matches_linear_factor():
    x = 12345
    s = make_sketch([x], mbar=3, verification_points=1)
    for i, v in enumerate(s.evaluations):
        assert v == (sample_point(i) - x) % P


def test_identical_sets_divide_to_ones():
    a = {5, 17, 999}
    sa = make_sketch(a, 4, 2)
    sb = make_sketch(set(a), 4, 2)
    for va, vb in zip(sa.evaluations, sb.evaluations):
        assert va * ff_inv(vb) % P == 1


def test_reconcile_equal_sets_is_empty():
    a = {1, 2, 3}
    only_mine, only_theirs = reconcile(make_sketch(a, 4, 2), make_sketch(a, 4, 2))
    assert only_mine == set() and only_theirs == set()


def test_reconcile_small_example():
    mine = set(range(1, 21))
    theirs = set(range(1, 19)) | {100}
    want_mine, want_theirs = sym_diff_oracle(mine, theirs)
    assert (want_mine, want_theirs) == ({19, 20}, {100})
    got_mine, got_theirs = reconcile(make_sketch(mine, 8, 8), make_sketch(theirs, 8, 8))
    assert got_mine == want_mine
    assert got_theirs == want_theirs


def test_reconcile_rejects_over_bound():
    a, b = seeded_pair(42, 50, 6, 6)  # 12 differences, bound 8
    with pytest.raises(BoundExceededError):
        reconcile(make_sketch(a, 8, 8), make_sketch(b, 8, 8))


def test_reconcile_rejects_mismatched_sketches():
    a = make_sketch({1}, 4, 2)
    b = make_sketch({2}, 6, 2)
    with pytest.raises(IncompatibleSketchError):
        reconcile(a, b)


def test_soundness_within_bound():
    # every instance with d <= mbar, including d == mbar, must decode exactly
    for seed in range(40):
        rng = random.Random(1000 + seed)
        d = rng.randrange(0, 13)
        n_a = rng.randrange(0, d + 1)
        a, b = seeded_pair(seed, rng.randrange(5, 400), n_a, d - n_a)
        mbar = max(1, d)
        got = reconcile(make_sketch(a, mbar, 8), make_sketch(b, mbar, 8))
        assert got == sym_diff_oracle(a, b)


def test_verification_rejects_over_bound_instances():
    # no silent wrong answers: over-bound decodes must raise, never return junk
    rejected = 0
    for seed in range(60):
        rng = random.Random(7000 + seed)
        d = rng.randrange(10, 30)
        mbar = max(1, d - rng.randrange(2, 9))
        n_a = rng.randrange(0, d + 1)
        a, b = seeded_pair(seed ^ 0xAB, rng.randrange(5, 200), n_a, d - n_a)
        try:
            got = reconcile(make_sketch(a, mbar, 8), make_sketch(b, mbar, 8))
        except BoundExceededError:
            rejected += 1
            continue
        # acceptable only when the decode is actually right (cannot happen
        # for d > mbar, but the guard keeps the test honest)
        assert got == sym_diff_oracle(a, b)
    assert rejected == 60


def test_sketch_bytes_independent_of_set_size():
    small = make_sketch(range(1, 1_001), 32, 8)
    large = make_sketch(range(1, 100_001), 32, 8)
    assert len(small.to_bytes()) == len(large.to_bytes())


def test_sketch_serialization_round_trip():
    s = make_sketch({3, 9, 2**59}, 5, 3)
    back = CpiSketch.from_bytes(s.to_bytes())
    assert back == s


def test_retry_extension_decodes_after_doubling():
    a, b = seeded_pair(9, 100, 6, 6)  # d = 12
    ver = 8
    with pytest.raises(BoundExceededError):
        reconcile(make_sketch(a, 4, ver), make_sketch(b, 4, ver))
    old_len = 4 + ver
    new_mbar = 16
    base_b = make_sketch(b, 4, ver)
    appended_b = make_sketch(b, new_mbar, ver, start=old_len)
    theirs = extend_sketch(base_b, appended_b, new_mbar)
    mine = make_sketch(a, new_mbar, ver)
    assert theirs.evaluations == make_sketch(b, new_mbar, ver).evaluations
    assert reconcile(mine, theirs) == sym_diff_oracle(a, b)


def test_malformed_sketch_bytes_are_rejected():
    data = make_sketch({3, 9, 2**59}, 5, 3).to_bytes()
    with pytest.raises(ProtocolError):
        CpiSketch.from_bytes(data[:-20])  # missing evaluations
    with pytest.raises(ProtocolError):
        CpiSketch.from_bytes(data + bytes(8))  # trailing bytes
    with pytest.raises(ProtocolError):
        CpiSketch.from_bytes(data[:-8] + P.to_bytes(8, "big"))  # outside the field
