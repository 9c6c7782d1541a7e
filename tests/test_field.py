import random

import pytest

from gensync.errors import InterpolationError, NotSplittableError
from gensync.field import (
    MODULUS,
    char_poly_eval,
    char_poly_evals,
    ff_add,
    ff_inv,
    ff_mul,
    ff_sub,
    find_roots,
    poly_divmod,
    poly_eval,
    poly_from_roots,
    poly_mul,
    poly_powmod,
    rational_interpolate,
)

P = MODULUS


def test_modulus_is_the_mersenne_prime():
    assert P == 2305843009213693951
    assert P == 2**61 - 1
    # deterministic Miller-Rabin witness set is overkill; sympy-free check
    # via Fermat tests on a few bases plus trial division by small primes
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        assert P % q != 0
        assert pow(q, P - 1, P) == 1


def test_add_wraps_at_modulus():
    assert ff_add(P - 1, 1) == 0


def test_mul_identity():
    rng = random.Random(1)
    for _ in range(100):
        a = rng.randrange(P)
        assert ff_mul(a, 1) == a


def test_mul_large_operands():
    # oracle: Python's arbitrary-precision arithmetic
    assert (2**60 * 4) % P == 2
    assert ff_mul(2**60, 4) == 2


def test_inv_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        ff_inv(0)


def test_field_axioms_randomized():
    rng = random.Random(0xF1E1D)
    for _ in range(10_000):
        a, b, c = rng.randrange(P), rng.randrange(P), rng.randrange(P)
        assert ff_add(a, b) == ff_add(b, a)
        assert ff_mul(a, b) == ff_mul(b, a)
        assert ff_add(ff_add(a, b), c) == ff_add(a, ff_add(b, c))
        assert ff_mul(ff_mul(a, b), c) == ff_mul(a, ff_mul(b, c))
        assert ff_mul(a, ff_add(b, c)) == ff_add(ff_mul(a, b), ff_mul(a, c))
        if a:
            assert ff_mul(a, ff_inv(a)) == 1
        assert ff_sub(a, a) == 0


def test_char_poly_empty_set_is_one():
    for z in (0, 1, P - 1):
        assert char_poly_eval([], z) == 1


def test_char_poly_member_is_root():
    assert char_poly_eval([42], 42) == 0
    assert char_poly_eval([1, 2, 3], 2) == 0


def test_char_poly_small_prime_expansion():
    # oracle: direct expansion (7-3)*(7-5) mod 97
    assert (7 - 3) * (7 - 5) % 97 == 8
    assert char_poly_eval([3, 5], 7, p=97) == 8


def test_char_poly_cancellation_identity():
    # common elements cancel in the ratio: chi_A * chi_(B-only) == chi_B * chi_(A-only)
    rng = random.Random(7)
    common = {rng.randrange(P) for _ in range(30)}
    a_only = {rng.randrange(P) for _ in range(5)} - common
    b_only = {rng.randrange(P) for _ in range(7)} - common - a_only
    A = common | a_only
    B = common | b_only
    for _ in range(16):
        z = rng.randrange(P)
        lhs = ff_mul(char_poly_eval(A, z), char_poly_eval(b_only, z))
        rhs = ff_mul(char_poly_eval(B, z), char_poly_eval(a_only, z))
        assert lhs == rhs


def test_interpolate_constant_one():
    pts = [(z, 1) for z in (3, 5, 11)]
    fn = rational_interpolate(pts, 0, 0, p=97)
    assert fn.numerator == [1]
    assert fn.denominator == [1]


def test_interpolate_recovers_linear_ratio():
    # construct (z-a)/(z-b) over GF(97) from known a, b; verify the roots
    p, a, b = 97, 12, 55
    zs = [90, 91, 92, 93]
    pts = [(z, (z - a) * pow(z - b, p - 2, p) % p) for z in zs]
    fn = rational_interpolate(pts, 1, 1, p=p)
    assert poly_eval(fn.numerator, a, p) == 0
    assert poly_eval(fn.denominator, b, p) == 0
    assert fn.denominator[-1] == 1


def test_interpolate_arity_precondition():
    pts = [(z, 1) for z in (3, 5, 11)]
    with pytest.raises(InterpolationError):
        rational_interpolate(pts, 2, 1, p=97)  # needs 4 points, got 3


def test_interpolate_exactness_at_fresh_points():
    # re-evaluating the fit at 16 fresh points reproduces the source values
    p = MODULUS
    rng = random.Random(33)
    a_roots = [rng.randrange(p) for _ in range(3)]
    b_roots = [rng.randrange(p) for _ in range(2)]
    num = poly_from_roots(a_roots)
    den = poly_from_roots(b_roots)
    sample = [p - 1 - i for i in range(6)]
    pts = [(z, poly_eval(num, z) * ff_inv(poly_eval(den, z)) % p) for z in sample]
    fn = rational_interpolate(pts, 3, 2)
    for i in range(100, 116):
        z = p - 1 - i
        want_n, want_d = poly_eval(num, z), poly_eval(den, z)
        got_n, got_d = fn.eval_pair(z)
        # compare as cross products to avoid dividing
        assert got_n * want_d % p == want_n * got_d % p


def test_find_roots_linear():
    assert find_roots([(-4) % P, 1]) == {4}


def test_find_roots_small_prime_against_exhaustive_oracle():
    p = 97
    poly = poly_from_roots([2, 9, 30], p)
    oracle = {r for r in range(p) if poly_eval(poly, r, p) == 0}
    assert oracle == {2, 9, 30}
    assert find_roots(poly, p=p) == oracle


def test_find_roots_rejects_irreducible_quadratic():
    # z^2 + 1 over GF(7): -1 is a non-residue since 7 = 3 (mod 4)
    assert all(pow(r, 2, 7) != 6 for r in range(7))
    with pytest.raises(NotSplittableError):
        find_roots([1, 0, 1], p=7)


def test_find_roots_rejects_repeated_factor():
    poly = poly_mul([(-5) % P, 1], [(-5) % P, 1])
    with pytest.raises(NotSplittableError):
        find_roots(poly)


def test_find_roots_inverts_expansion():
    rng = random.Random(101)
    for size in (1, 2, 7, 33, 64):
        roots = set()
        while len(roots) < size:
            roots.add(rng.randrange(P))
        poly = poly_from_roots(sorted(roots))
        assert find_roots(poly) == roots


def test_powmod_agrees_with_pointwise_powers():
    # modulo a split polynomial, the remainder takes base(r)^e at each root r
    rng = random.Random(0x90DE)
    for _ in range(50):
        roots = rng.sample(range(P), rng.randint(1, 12))
        mod = poly_from_roots(roots)
        base = [rng.randrange(P) for _ in range(rng.randint(1, 20))]
        e = rng.randrange(1 << 64)
        h = poly_powmod(base, e, mod)
        assert len(h) <= len(roots)
        for r in roots:
            assert poly_eval(h, r) == pow(poly_eval(base, r), e, P)


# the packed arithmetic folds slots for 2^61 - 1 and takes a Barrett step
# for other primes, up to the largest prime below 2^63
PACKED_PRIMES = (P, 97, 1_000_003, 2**63 - 25)


def test_char_poly_evals_agree_with_direct_products():
    rng = random.Random(0xC4A2)
    for p in PACKED_PRIMES:
        for count in (8, 20, 62, 63, 108, 130):
            if count >= p // 2:
                continue
            points = rng.sample(range(1, min(p, 1 << 62)), count)
            elements = [rng.randrange(p) for _ in range(2 * count + rng.randrange(150))]
            elements += points[:2]  # members are roots
            got = char_poly_evals(elements, points, p)
            assert got == [char_poly_eval(elements, z, p) for z in points]
            assert got[0] == got[1] == 0


def test_powmod_agrees_with_schoolbook_square_and_multiply():
    rng = random.Random(0x5C400)
    for p in PACKED_PRIMES:
        for degree in (2, 3, 9, 40, 62, 63, 80):
            mod = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
            base = [rng.randrange(p) for _ in range(rng.randint(1, degree + 3))]
            e = rng.randrange(1 << 20)
            want = poly_divmod(base, mod, p)[1]
            acc = poly_divmod([1], mod, p)[1]
            for bit in bin(e)[2:]:
                acc = poly_divmod(poly_mul(acc, acc, p), mod, p)[1]
                if bit == "1":
                    acc = poly_divmod(poly_mul(acc, want, p), mod, p)[1]
            assert poly_powmod(base, e, mod, p) == acc


def test_interpolate_returns_the_fraction_in_lowest_terms():
    # the degree bounds exceed the fraction's, so every fit is a multiple
    rng = random.Random(0x1E55)
    for p in (P, 97, 1_000_003):
        roots = rng.sample(range(1, 40), 7)
        num, den = poly_from_roots(roots[:3], p), poly_from_roots(roots[3:], p)
        zs = rng.sample(range(40, 97), 11)
        pts = [(z, poly_eval(num, z, p) * ff_inv(poly_eval(den, z, p), p) % p) for z in zs]
        fn = rational_interpolate(pts, 5, 5, p)
        assert (fn.numerator, fn.denominator) == (num, den)


def test_interpolate_rejects_points_no_fraction_fits():
    # nine points of a degree-4 ratio admit no fraction of degrees 2/2
    p = 97
    num, den = poly_from_roots([3, 4, 5, 6], p), poly_from_roots([7, 8, 9, 10], p)
    pts = [(z, poly_eval(num, z, p) * ff_inv(poly_eval(den, z, p), p) % p) for z in range(40, 49)]
    with pytest.raises(InterpolationError):
        rational_interpolate(pts, 2, 2, p)


def test_find_roots_with_two_classes_per_split():
    # 6 does not divide p - 1 here, so each split is by quadratic character
    rng = random.Random(0x2C1A)
    for p in (101, 65537):
        roots = set(rng.sample(range(p), 30))
        assert find_roots(poly_from_roots(sorted(roots), p), p) == roots
