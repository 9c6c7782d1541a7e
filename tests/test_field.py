import random
import statistics

import pytest

from gensync import field
from gensync.errors import InterpolationError, NotSplittableError
from gensync.field import (
    MODULUS,
    char_poly_eval,
    char_poly_evals,
    ff_inv,
    find_roots,
    poly_eval,
    poly_from_roots,
    poly_powmod,
    rational_interpolate,
)

import reference_field
from reference_field import poly_divmod, poly_mul

P = MODULUS


def test_modulus_is_the_mersenne_prime():
    assert P == 2305843009213693951
    assert P == 2**61 - 1
    # deterministic Miller-Rabin witness set is overkill; sympy-free check
    # via Fermat tests on a few bases plus trial division by small primes
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        assert P % q != 0
        assert pow(q, P - 1, P) == 1


def test_inv_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        ff_inv(0)


def test_field_axioms_randomized():
    rng = random.Random(0xF1E1D)
    for _ in range(10_000):
        a = rng.randrange(P)
        if a:
            assert a * ff_inv(a) % P == 1


def test_char_poly_empty_set_is_one():
    for z in (0, 1, P - 1):
        assert char_poly_eval([], z) == 1


def test_char_poly_member_is_root():
    assert char_poly_eval([42], 42) == 0
    assert char_poly_eval([1, 2, 3], 2) == 0


def test_char_poly_small_prime_expansion():
    # oracle: direct expansion (7-3)*(7-5) mod P
    assert (7 - 3) * (7 - 5) % P == 8
    assert char_poly_eval([3, 5], 7) == 8


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
        lhs = char_poly_eval(A, z) * char_poly_eval(b_only, z) % P
        rhs = char_poly_eval(B, z) * char_poly_eval(a_only, z) % P
        assert lhs == rhs


def test_interpolate_constant_one():
    pts = [(z, 1) for z in (3, 5, 11)]
    fn = rational_interpolate(pts, 0, 0)
    assert fn.numerator == [1]
    assert fn.denominator == [1]


def test_interpolate_recovers_linear_ratio():
    # construct (z-a)/(z-b) over GF(P) from known a, b; verify the roots
    p, a, b = P, 12, 55
    zs = [90, 91, 92, 93]
    pts = [(z, (z - a) * pow(z - b, p - 2, p) % p) for z in zs]
    fn = rational_interpolate(pts, 1, 1)
    assert poly_eval(fn.numerator, a) == 0
    assert poly_eval(fn.denominator, b) == 0
    assert fn.denominator[-1] == 1


def test_interpolate_arity_precondition():
    pts = [(z, 1) for z in (3, 5, 11)]
    with pytest.raises(InterpolationError):
        rational_interpolate(pts, 2, 1)  # needs 4 points, got 3


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
    # a cubic has at most three roots, so these three are all of them
    poly = poly_from_roots([2, 9, 30])
    assert len(poly) - 1 == 3
    oracle = {r for r in (2, 9, 30) if poly_eval(poly, r) == 0}
    assert oracle == {2, 9, 30}
    assert find_roots(poly) == oracle


def test_find_roots_rejects_irreducible_quadratic():
    # z^2 + 1 over GF(P): -1 is a non-residue since P = 3 (mod 4)
    assert P % 4 == 3
    assert pow(P - 1, (P - 1) // 2, P) == P - 1  # Euler's criterion
    with pytest.raises(NotSplittableError):
        find_roots([1, 0, 1])


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
        roots = rng.sample(range(P), rng.randint(2, 12))
        mod = poly_from_roots(roots)
        base = [rng.randrange(P) for _ in range(rng.randint(1, 20))]
        e = rng.randrange(1 << 64)
        h = poly_powmod(base, e, mod)
        assert len(h) <= len(roots)
        for r in roots:
            assert poly_eval(h, r) == pow(poly_eval(base, r), e, P)


def test_char_poly_evals_agree_with_direct_products():
    rng = random.Random(0xC4A2)
    for count in (8, 20, 62, 63, 108, 130):
        points = rng.sample(range(1, P), count)
        elements = [rng.randrange(P) for _ in range(2 * count + rng.randrange(150))]
        elements += points[:2]  # members are roots
        got = char_poly_evals(elements, points)
        assert got == [char_poly_eval(elements, z) for z in points]
        assert got[0] == got[1] == 0


def test_powmod_agrees_with_schoolbook_square_and_multiply():
    rng = random.Random(0x5C400)
    for degree in (2, 3, 9, 40, 62, 63, 80):
        mod = [rng.randrange(P) for _ in range(degree)] + [rng.randrange(1, P)]
        base = [rng.randrange(P) for _ in range(rng.randint(1, degree + 3))]
        e = rng.randrange(1 << 20)
        want = poly_divmod(base, mod)[1]
        acc = poly_divmod([1], mod)[1]
        for bit in bin(e)[2:]:
            acc = poly_divmod(poly_mul(acc, acc), mod)[1]
            if bit == "1":
                acc = poly_divmod(poly_mul(acc, want), mod)[1]
        assert poly_powmod(base, e, mod) == acc


def test_interpolate_returns_the_fraction_in_lowest_terms():
    # the degree bounds exceed the fraction's, so every fit is a multiple
    rng = random.Random(0x1E55)
    for _ in range(3):
        roots = rng.sample(range(1, 40), 7)
        num, den = poly_from_roots(roots[:3]), poly_from_roots(roots[3:])
        zs = rng.sample(range(40, 97), 11)
        pts = [(z, poly_eval(num, z) * ff_inv(poly_eval(den, z)) % P) for z in zs]
        fn = rational_interpolate(pts, 5, 5)
        assert (fn.numerator, fn.denominator) == (num, den)


def test_interpolate_rejects_points_no_fraction_fits():
    # nine points of a degree-4 ratio admit no fraction of degrees 2/2
    num, den = poly_from_roots([3, 4, 5, 6]), poly_from_roots([7, 8, 9, 10])
    pts = [(z, poly_eval(num, z) * ff_inv(poly_eval(den, z)) % P) for z in range(40, 49)]
    with pytest.raises(InterpolationError):
        rational_interpolate(pts, 2, 2)


# ---------------------------------------------------------------------------
# the packed decoder against the list-based one it replaced (reference_field)


def _roots_or_error(find, poly):
    try:
        return find(poly)
    except NotSplittableError:
        return NotSplittableError


def _first_delta(degree: int) -> int:
    # the first delta find_roots draws for a polynomial of this degree
    return random.Random(0x9C0FFEE ^ (degree + 1)).randrange(P)


# every degree up to 64 with and without a root at -delta, the slot edges,
# and degrees up to 200
_ROOT_CASES = (
    [(d, False) for d in range(1, 65)]
    + [(d, True) for d in range(1, 65)]
    + [(d, planted) for d in (62, 63, 64, 127, 128, 200) for planted in (False, True)]
    + [(d, d % 2 == 0) for d in range(65, 200, 27)]
    + [(d, False) for d in random.Random(0xD1FF).choices(range(1, 48), k=160)]
)


def test_find_roots_agrees_with_the_list_based_decoder():
    assert len(_ROOT_CASES) >= 300
    rng = random.Random(0xD1FF2)
    for degree, at_minus_delta in _ROOT_CASES:
        roots = set(rng.sample(range(P), degree))
        if at_minus_delta:
            roots.pop()
            roots.add(-_first_delta(degree) % P)
        if len(roots) < degree:
            continue
        poly = poly_from_roots(roots)
        assert poly == reference_field.poly_from_roots(sorted(roots))
        assert find_roots(poly) == reference_field.find_roots(poly) == roots, (degree, at_minus_delta)


def _irreducible_cubic():
    # x^3 - 7: 7 is not a cube, as 7^((p-1)/3) != 1 and p = 1 (mod 3)
    assert pow(7, (P - 1) // 3, P) != 1
    return [P - 7, 0, 0, 1]


def test_find_roots_rejects_what_does_not_split_like_the_list_based_decoder():
    rng = random.Random(0x5E7)
    linears = lambda k: poly_from_roots(rng.sample(range(P), k))  # noqa: E731
    cases = [[1, 0, 1], _irreducible_cubic()]
    cases += [poly_mul(_irreducible_cubic(), linears(k)) for k in (1, 2, 5, 20)]
    cases += [poly_mul([1, 0, 1], linears(k)) for k in (1, 3, 9)]
    for k in (0, 1, 4, 30):
        r = rng.randrange(P)
        cases.append(poly_mul(poly_from_roots([r, r]), linears(k) if k else [1]))
    cases += [poly_from_roots([5, 5, 5]), poly_mul(poly_from_roots([9, 9, 9]), linears(6))]
    # random monic polynomials, which almost never split
    cases += [[rng.randrange(P) for _ in range(d)] + [1] for d in range(3, 13)]
    for poly in cases:
        assert _roots_or_error(find_roots, poly) is NotSplittableError
        assert _roots_or_error(reference_field.find_roots, poly) is NotSplittableError


def _fit_or_error(interpolate, points, deg_num, deg_den):
    try:
        fn = interpolate(points, deg_num, deg_den)
    except InterpolationError as exc:
        return "error", str(exc)
    return fn.numerator, fn.denominator


def test_interpolation_agrees_with_the_list_based_decoder():
    rng = random.Random(0x1A7E)
    errors = 0
    for case in range(60):
        m = rng.randint(1, 160 if case % 10 == 0 else 40)
        deg_num = rng.randint(0, m - 1)
        deg_den = rng.randint(0, m - 1 - deg_num)
        if case % 4 == 0:  # overdetermined: more points than the bounds need
            deg_num, deg_den = deg_num // 2, deg_den // 2
        # the sample points CPI uses, or any distinct points
        zs = [P - 1 - i for i in range(m)] if case % 2 else rng.sample(range(P), m)
        # a fraction within the bounds, with no pole at the points
        num = poly_from_roots(rng.sample(range(P), rng.randint(0, deg_num)))
        den = poly_from_roots(rng.sample(range(P), rng.randint(0, deg_den)))
        values = [poly_eval(num, z) * ff_inv(poly_eval(den, z)) % P for z in zs]
        if case % 3 == 1:  # inconsistent: values from no low-degree fraction
            values = [rng.randrange(P) for _ in zs]
        elif case % 3 == 2:  # consistent but for one value
            values[rng.randrange(m)] = rng.randrange(P)
        points = list(zip(zs, values))
        got = _fit_or_error(rational_interpolate, points, deg_num, deg_den)
        assert got == _fit_or_error(reference_field.rational_interpolate, points, deg_num, deg_den)
        errors += got[0] == "error"
    assert 0 < errors < 60
    # too few points and repeated points fail alike
    for points, dn, dd in (([(3, 1), (5, 1)], 1, 1), ([(3, 1), (3, 2), (4, 1)], 1, 1)):
        got = _fit_or_error(rational_interpolate, points, dn, dd)
        assert got[0] == "error"
        assert got == _fit_or_error(reference_field.rational_interpolate, points, dn, dd)


def test_find_roots_takes_few_exponentiations(monkeypatch):
    # a count, not a timing: each exponentiation splits by 210 classes
    calls = []
    real = field.poly_powmod

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(field, "poly_powmod", counting)
    rng = random.Random(0x9057)
    per_poly = []
    for _ in range(20):
        roots = set(rng.sample(range(P), 75))
        before = len(calls)
        assert find_roots(poly_from_roots(roots)) == roots
        per_poly.append(len(calls) - before)
    assert statistics.median(per_poly) <= 3


def test_the_tower_unit_has_order_210():
    assert (P - 1) % 210 == 0
    assert pow(field._OMEGA, 210, P) == 1
    for q in (2, 3, 5, 7):
        assert pow(field._OMEGA, 210 // q, P) != 1


def test_slots_hold_sums_of_their_term_count():
    rng = random.Random(0x5107)
    for terms in range(2, 401):
        slots = field._slots(terms)
        if terms <= 255:
            assert slots.bits <= 136
        # the largest slot sums: products of p - 1, each 1 mod p
        top = slots.pack([P - 1] * terms)
        square = slots.reduce(top * top, 2 * terms - 1)
        assert slots.unpack(square, 2 * terms - 1) == [min(j + 1, 2 * terms - 1 - j) for j in range(2 * terms - 1)]
        residues = [rng.randrange(P) for _ in range(terms)]
        assert slots.unpack(slots.reduce(slots.pack(residues), terms), terms) == residues
