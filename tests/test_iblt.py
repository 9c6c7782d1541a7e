import random

import pytest
import reference_iblt
from hypothesis import given, settings
from hypothesis import strategies as st

from gensync.errors import IncompatibleSketchError, PeelError
from gensync.hashing import BLOCK, MASK64
from gensync.iblt import Iblt, build_table, cell_count
from gensync.params import ProtocolParams


def state(t):
    return t.num_cells, t.num_hashes, t.seed, t.counts, t.words


def random_disjoint_sets(rng, n_common, n_a, n_b):
    drawn = []
    seen = set()
    while len(drawn) < n_common + n_a + n_b:
        v = rng.getrandbits(64)
        if v not in seen:
            seen.add(v)
            drawn.append(v)
    common = set(drawn[:n_common])
    a_only = set(drawn[n_common : n_common + n_a])
    b_only = set(drawn[n_common + n_a :])
    return common | a_only, common | b_only, a_only, b_only


def test_cell_count_rounding():
    assert cell_count(50, 2.0, 4) == 100
    assert cell_count(17, 2.0, 4) == 36
    # at least 8 cells a partition
    assert cell_count(3, 2.0, 4) == 32
    assert cell_count(1, 2.0, 4) == 32
    assert cell_count(50, 3.0, 6) == 150


def test_two_differences_decode_at_library_defaults():
    # one cell a partition put both keys in every cell: none of these decoded
    params = ProtocolParams()
    m = cell_count(2, params.iblt_hedge, params.iblt_num_hashes)
    decoded = 0
    for seed in range(1000):
        rng = random.Random(seed)
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        k = params.iblt_num_hashes
        diff = build_table([a], m, k, seed).subtract(build_table([b], m, k, seed))
        try:
            decoded += diff.peel() == ({a}, {b})
        except PeelError:
            pass
    assert decoded >= 995


def test_insert_touches_k_distinct_cells():
    t = build_table([77], 16, 4, seed=9)
    assert sum(1 for c in t.counts if c == 1) == 4
    assert all(w >> 64 in (0, 77) for w in t.words)


def test_peel_recovers_small_insertions():
    t = build_table([5, 9, 13], 16, 4, seed=3)
    pos, neg = t.peel()
    assert pos == {5, 9, 13}
    assert neg == set()


def test_peel_empty_table():
    assert Iblt(8, 4, seed=0).peel() == (set(), set())


def test_peel_single_element():
    t = build_table([42], 8, 4, seed=0)
    assert t.peel() == ({42}, set())


def test_subtract_self_cancels():
    t = build_table(range(100), 32, 4, seed=5)
    assert state(t.subtract(t)) == state(Iblt(32, 4, seed=5))


def test_subtract_isolates_single_extra():
    base = build_table(range(50), 16, 4, seed=6)
    extra = build_table([*range(50), 999], 16, 4, seed=6)
    diff = extra.subtract(base)
    assert diff.peel() == ({999}, set())


def test_subtract_rejects_mismatched_tables():
    a = Iblt(16, 4, seed=1)
    with pytest.raises(IncompatibleSketchError):
        a.subtract(Iblt(16, 4, seed=2))
    with pytest.raises(IncompatibleSketchError):
        a.subtract(Iblt(32, 4, seed=1))


def test_subtract_then_peel_matches_oracle():
    rng = random.Random(2024)
    A, B, a_only, b_only = random_disjoint_sets(rng, 500, 20, 20)
    # oracle: brute-force symmetric difference
    assert a_only == A - B and b_only == B - A and len(a_only | b_only) == 40
    m = cell_count(40, 2.0, 4)
    ta = build_table(A, m, 4, seed=11)
    tb = build_table(B, m, 4, seed=11)
    pos, neg = ta.subtract(tb).peel()
    assert pos == a_only
    assert neg == b_only


def test_peel_failure_on_undersized_table():
    rng = random.Random(5)
    A, B, _, _ = random_disjoint_sets(rng, 10, 40, 40)
    ta = build_table(A, 8, 4, seed=1)
    tb = build_table(B, 8, 4, seed=1)
    with pytest.raises(PeelError):
        ta.subtract(tb).peel()


def test_decode_rate_at_double_hedge():
    # seeded Monte Carlo: d=100, hedge=2.0, k=4; every success oracle-verified
    successes = 0
    for seed in range(30):
        rng = random.Random(9000 + seed)
        A, B, a_only, b_only = random_disjoint_sets(rng, 200, 50, 50)
        m = cell_count(100, 2.0, 4)
        ta = build_table(A, m, 4, seed=seed)
        tb = build_table(B, m, 4, seed=seed)
        try:
            pos, neg = ta.subtract(tb).peel()
        except PeelError:
            continue
        assert pos == a_only and neg == b_only
        successes += 1
    assert successes >= 29


def test_serialized_size_depends_only_on_cell_count():
    m = cell_count(100, 2.0, 4)
    small = build_table(range(1_000), m, 4, seed=4)
    large = build_table(range(100_000), m, 4, seed=4)
    assert len(small.to_bytes()) == len(large.to_bytes()) == 13 + 20 * m


def test_serialization_round_trip():
    t = build_table([1, 2, 3, 2**63], 12, 4, seed=77).subtract(build_table([999], 12, 4, seed=77))
    assert min(t.counts) < 0  # negative counts survive the trip
    assert state(Iblt.from_bytes(t.to_bytes())) == state(t)


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=40))
def test_matched_insert_erase_interleavings_cancel(keys):
    # repeats included: each copy of a key is counted, and subtracted
    t = build_table(keys, 24, 4, seed=8).subtract(build_table(reversed(keys), 24, 4, seed=8))
    assert state(t) == state(Iblt(24, 4, seed=8))


@settings(max_examples=50)
@given(
    st.sets(st.integers(min_value=0, max_value=2**64 - 1), min_size=0, max_size=12),
    st.sets(st.integers(min_value=0, max_value=2**64 - 1), min_size=0, max_size=12),
)
def test_peel_matches_oracle_when_it_succeeds(a, b):
    m = cell_count(max(len(a | b), 1), 3.0, 4)
    ta = build_table(a, m, 4, seed=13)
    tb = build_table(b, m, 4, seed=13)
    try:
        pos, neg = ta.subtract(tb).peel()
    except PeelError:
        return
    assert pos == a - b
    assert neg == b - a


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 10_000])
def test_build_table_equals_inserting_each_key(n):
    rng = random.Random(n)
    keys = [0, MASK64, 2**63][:n] + [rng.getrandbits(64) for _ in range(n - min(n, 3))]
    expected = Iblt(150, 6, seed=n)
    for k in keys:
        reference_iblt.insert(expected, k)
    assert state(build_table(keys, 150, 6, n)) == state(expected)
    assert state(build_table(iter(keys), 150, 6, n)) == state(expected)


def test_build_table_counts_each_repeat_of_a_key():
    keys = [7, 8, 7, 2**64 - 1, 7]
    expected = Iblt(16, 4, seed=2)
    for k in keys:
        reference_iblt.insert(expected, k)
    assert state(build_table(keys, 16, 4, 2)) == state(expected)
    assert sum(expected.counts) == 4 * len(keys)
