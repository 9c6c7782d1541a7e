"""Prime-field arithmetic, polynomials, rational interpolation and root finding.

Field elements are plain ints in ``[0, p)``. The library-wide modulus is the
Mersenne prime ``2^61 - 1``, large enough to hold reduced 64-bit identifiers
while keeping products inside native big-int fast paths. Every function
accepts an explicit ``p`` so small prime fields can be used in tests.

Polynomials are coefficient lists, lowest degree first, with no trailing
zeros; the zero polynomial is the empty list.
"""

from __future__ import annotations

import functools
import random
import sys
from array import array
from dataclasses import dataclass

from .errors import InterpolationError, NotSplittableError

MODULUS = (1 << 61) - 1  # 2305843009213693951, prime


def ff_add(a: int, b: int, p: int = MODULUS) -> int:
    return (a + b) % p


def ff_sub(a: int, b: int, p: int = MODULUS) -> int:
    return (a - b) % p


def ff_mul(a: int, b: int, p: int = MODULUS) -> int:
    return (a * b) % p


def ff_inv(a: int, p: int = MODULUS) -> int:
    if a % p == 0:
        raise ZeroDivisionError("inverse of 0 is undefined in GF(p)")
    return pow(a, -1, p)


def char_poly_eval(elements, z: int, p: int = MODULUS) -> int:
    """Evaluate the characteristic polynomial of a set at ``z``.

    Returns the product of ``(z - x)`` over all elements, 1 for the empty
    set. Elements are reduced mod ``p`` implicitly by the arithmetic.
    """
    acc = 1
    for x in elements:
        acc = acc * (z - x) % p
    return acc


# ---------------------------------------------------------------------------
# polynomial helpers


def poly_trim(coeffs: list[int]) -> list[int]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


def poly_deg(coeffs: list[int]) -> int:
    """Degree of a trimmed polynomial; -1 for the zero polynomial."""
    return len(coeffs) - 1


def poly_sub(a: list[int], b: list[int], p: int = MODULUS) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return poly_trim(out)


def poly_scale(a: list[int], s: int, p: int = MODULUS) -> list[int]:
    s %= p
    if s == 0:
        return []
    return poly_trim([c * s % p for c in a])


def poly_mul(a: list[int], b: list[int], p: int = MODULUS) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return poly_trim(out)


def poly_eval(coeffs: list[int], x: int, p: int = MODULUS) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def poly_divmod(a: list[int], b: list[int], p: int = MODULUS):
    """Quotient and remainder of ``a / b``; ``b`` must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return [], poly_trim(rem)
    inv_lead = ff_inv(b[-1], p)
    quot = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        q = c * inv_lead % p
        quot[i - db] = q
        for j in range(db + 1):
            rem[i - db + j] = (rem[i - db + j] - q * b[j]) % p
    return poly_trim(quot), poly_trim(rem)


def poly_mod(a: list[int], b: list[int], p: int = MODULUS) -> list[int]:
    return poly_divmod(a, b, p)[1]


def poly_monic(a: list[int], p: int = MODULUS) -> list[int]:
    a = poly_trim(a)
    if not a or a[-1] == 1:
        return a
    return poly_scale(a, ff_inv(a[-1], p), p)


def poly_gcd(a: list[int], b: list[int], p: int = MODULUS) -> list[int]:
    """Monic greatest common divisor."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_mod(a, b, p)
    return poly_monic(a, p)


# ---------------------------------------------------------------------------
# packed (Kronecker) arithmetic
#
# A polynomial with coefficients in [0, p) packs into one int, a fixed
# number of 64-bit words per coefficient; one big-int product then yields
# every coefficient of the polynomial product, provided a slot is wide
# enough to hold a sum of that many coefficient products. Slots are
# reduced mod p all at once by big-int operations (folding for 2^61 - 1, a
# Barrett step for other primes), so no per-coefficient work runs in the
# interpreter. Packing needs p < 2^64.


class _Slots:
    """Slot layout for residues mod ``p < 2^64`` and sums of products of them."""

    def __init__(self, p: int, term_bits: int):
        self.p = p
        self.k = 2 * (p - 1).bit_length() + term_bits  # slot values stay below 2^k
        self.mu = (1 << self.k) // p
        # a Barrett product needs room above the value; folding does not
        width = self.k if p == MODULUS else self.k + self.mu.bit_length()
        self.words = (width + 63) // 64
        self.bits = 64 * self.words
        self._folds, bound = 0, self.k
        while bound > 62:
            bound = max(bound - 61, 61) + 1
            self._folds += 1
        self._layouts = {}

    def _layout(self, count: int):
        layout = self._layouts.get(count)
        if layout is None:
            mask = (1 << self.bits * count) - 1
            ones = mask // ((1 << self.bits) - 1)
            if self.p == MODULUS:
                high = ones * ((1 << self.bits - 61) - 1)
                layout = (mask, ones, ones * self.p, high)
            else:
                layout = (mask, ones, ones * ((1 << self.bits - self.k) - 1), None)
            self._layouts[count] = layout
        return layout

    def pack(self, coeffs) -> int:
        buf = [0] * (self.words * len(coeffs))
        buf[:: self.words] = coeffs
        words = array("Q", buf)
        if sys.byteorder == "big":
            words.byteswap()
        return int.from_bytes(words.tobytes(), "little")

    def reduce(self, value: int, count: int) -> int:
        """The lowest ``count`` slots of ``value``, each reduced mod ``p``."""
        mask, ones, low, high = self._layout(count)
        p = self.p
        value &= mask
        if high is not None:
            # 2^61 = 1 (mod p): fold each slot's bits above 61 onto its low
            # bits until it is below 2p, then subtract p where it is at least p
            for _ in range(self._folds):
                value = (value & low) + (value >> 61 & high)
            return value - ((value + ones) >> 61 & ones) * p
        # Barrett: the estimate falls short of the quotient by at most one
        b = p.bit_length()
        value -= ((value * self.mu >> self.k) & low) * p
        return value - (((value + ones * ((1 << b) - p)) >> b) & ones) * p

    def unpack(self, value: int, count: int) -> list[int]:
        """Slots of a value whose lowest ``count`` slots hold residues."""
        words = array("Q", (value & self._layout(count)[0]).to_bytes(8 * self.words * count, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        return words[:: self.words].tolist()


def _slots(p: int, terms: int) -> _Slots:
    """Slots that hold a sum of ``terms`` products of residues mod ``p``."""
    return _slots_for_bits(p, terms.bit_length())


_slots_for_bits = functools.lru_cache(maxsize=64)(_Slots)


def _packed_product(slots: _Slots, polys: list[tuple[int, int]]) -> tuple[int, int]:
    """Product of packed ``(value, length)`` polynomials, paired up a tree."""
    while len(polys) > 1:
        paired = []
        for (a, na), (b, nb) in zip(polys[::2], polys[1::2]):
            paired.append((slots.reduce(a * b, na + nb - 1), na + nb - 1))
        if len(polys) % 2:
            paired.append(polys[-1])
        polys = paired
    return polys[0]


class _PackedMod:
    """Remainders modulo a fixed monic polynomial of degree ``d >= 2``.

    Values are packed polynomials whose slots hold residues. A remainder
    of a product of two remainders costs two more packed products: the
    quotient is the upper part of (upper half) * (reversed power series
    of ``1 / reverse(mod)``), and the remainder is the lower half minus
    the lower half of quotient * mod. Dividing by the monic form of a
    modulus gives the same remainder.
    """

    def __init__(self, mod: list[int], slots: _Slots):
        # ``slots`` must hold sums of ``d + 1`` products
        d, p = len(mod) - 1, slots.p
        rev = mod[::-1]
        inv = [1]
        for k in range(1, d - 1):
            inv.append(-sum(rev[j] * inv[k - j] for j in range(1, k + 1)) % p)
        self.d = d
        self.slots = slots
        self._inv = slots.pack(inv[::-1])
        self._mod = slots.pack(mod[:d])
        self._p = slots.pack([p] * d)
        self._low = (1 << d * slots.bits) - 1

    def mulmod(self, a: int, b: int) -> int:
        """``a * b`` reduced, for packed remainders ``a`` and ``b``."""
        d, slots = self.d, self.slots
        prod = a * b
        # only the upper half feeds another product before reduction
        upper = slots.reduce(prod >> d * slots.bits, d - 1)
        q = slots.reduce(upper * self._inv >> (d - 2) * slots.bits, d - 1)
        return slots.reduce((prod & self._low) + self._p - slots.reduce(q * self._mod, d), d)


_GROUP_POINTS = 62  # the most points whose products keep 2-word slots mod 2^61 - 1


def char_poly_evals(elements, points, p: int = MODULUS) -> list[int]:
    """``char_poly_eval`` at each of the distinct ``points``.

    For each group of points, the characteristic polynomial is reduced
    modulo the product of ``(Z - z)`` over the group, one block of
    elements at a time, and the small remainder is evaluated at each
    point of the group: it agrees with the full polynomial there. Groups
    of at most 62 points keep the packed products narrow. Few points or
    few elements take the direct products.
    """
    elements, points = list(elements), [z % p for z in points]
    groups = -(-len(points) // _GROUP_POINTS)
    size = -(-len(points) // groups) if points else 0
    if size < 8 or len(elements) < 2 * len(points):
        return [char_poly_eval(elements, z, p) for z in points]
    slots = _slots(p, size + 1)

    def product_of_linears(roots):
        pairs = [(slots.pack([a * b % p, (-a - b) % p, 1]), 3) for a, b in zip(roots[::2], roots[1::2])]
        if len(roots) % 2:
            pairs.append((slots.pack([(-roots[-1]) % p, 1]), 2))
        return _packed_product(slots, pairs)[0]

    grouped = [points[i * len(points) // groups : (i + 1) * len(points) // groups] for i in range(groups)]
    reducers = [_PackedMod(slots.unpack(product_of_linears(g), len(g) + 1), slots) for g in grouped]
    block_size = min(len(g) for g in grouped) - 1
    accs = [1] * len(grouped)
    for start in range(0, len(elements), block_size):
        block = product_of_linears([x % p for x in elements[start : start + block_size]])
        accs = [r.mulmod(acc, block) for r, acc in zip(reducers, accs)]
    out = []
    for group, reducer, acc in zip(grouped, reducers, accs):
        remainder = poly_trim(slots.unpack(acc, reducer.d))
        out.extend(poly_eval(remainder, z, p) for z in group)
    return out


def poly_powmod(base: list[int], exp: int, mod: list[int], p: int = MODULUS) -> list[int]:
    """Compute ``base^exp`` modulo the polynomial ``mod``.

    Left-to-right square-and-multiply on packed remainders.
    """
    base = poly_trim([c % p for c in poly_mod(base, mod, p)])
    result = poly_mod([1], mod, p)
    mod = poly_monic([c % p for c in mod], p)
    if len(mod) < 3:
        for i in reversed(range(exp.bit_length())):
            result = poly_mod(poly_mul(result, result, p), mod, p)
            if exp >> i & 1:
                result = poly_mod(poly_mul(result, base, p), mod, p)
        return result
    reducer = _PackedMod(mod, _slots(p, len(mod)))
    slots = reducer.slots
    packed_base, packed = slots.pack(base), slots.pack(result)
    for i in reversed(range(exp.bit_length())):
        packed = reducer.mulmod(packed, packed)
        if exp >> i & 1:
            packed = reducer.mulmod(packed, packed_base)
    return poly_trim(slots.unpack(packed, reducer.d))


def poly_from_roots(roots, p: int = MODULUS) -> list[int]:
    """Expand the monic polynomial with the given roots."""
    coeffs = [1]
    for r in roots:
        r %= p
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] = (coeffs[i] - r * coeffs[i + 1]) % p
    return coeffs


# ---------------------------------------------------------------------------
# rational interpolation


@dataclass
class RationalFn:
    """Reduced rational function; denominator is monic and nonzero."""

    numerator: list[int]
    denominator: list[int]

    def eval_pair(self, z: int, p: int = MODULUS):
        """Evaluate numerator and denominator at ``z`` without dividing."""
        return poly_eval(self.numerator, z, p), poly_eval(self.denominator, z, p)


def rational_interpolate(points, deg_num: int, deg_den: int, p: int = MODULUS) -> RationalFn:
    """Fit ``P/Q`` with ``deg P <= deg_num``, ``deg Q <= deg_den`` through points.

    ``points`` is a sequence of ``(z, value)`` pairs with distinct ``z``.
    With ``M`` the product of ``(Z - z)`` over the points and ``F`` the
    polynomial interpolating the values, every solution of
    ``P(z) = value * Q(z)`` within the degree bounds is a multiple of the
    pair that the extended Euclidean algorithm on ``M`` and ``F`` reaches at
    its first remainder of degree at most ``deg_num``. That pair, reduced
    to lowest terms with a monic denominator, is returned.
    """
    points = list(points)
    need = deg_num + deg_den + 1
    if len(points) < need:
        raise InterpolationError(
            f"need at least {need} points for degrees {deg_num}/{deg_den}, got {len(points)}"
        )
    zs = [z % p for z, _ in points]
    if len(set(zs)) != len(zs):
        raise InterpolationError("sample points must be distinct")

    # Lagrange: F is the sum over the points of value / M'(z) * M / (Z - z)
    m = len(zs)
    big_m = poly_from_roots(zs, p)
    slots = _slots(p, m + 1)
    packed = 0
    for z, (_, v) in zip(zs, points):
        quotient = [0] * m  # M / (Z - z) by synthetic division, top down
        c = derivative = 0
        for j in range(m, 0, -1):
            c = (big_m[j] + z * c) % p
            quotient[j - 1] = c
            derivative = (derivative * z + c) % p  # M'(z) is the quotient at z
        packed += v % p * pow(derivative, -1, p) % p * slots.pack(quotient)
    f = poly_trim(slots.unpack(slots.reduce(packed, m), m))

    r0, r1, t0, t1 = big_m, f, [], [1]
    while poly_deg(r1) > deg_num:
        q, r = poly_divmod(r0, r1, p)
        r0, r1, t0, t1 = r1, r, t1, poly_sub(t0, poly_mul(q, t1, p), p)
    num, den = r1, t1
    if poly_deg(den) > deg_den:
        raise InterpolationError("no fraction within the degree bounds fits the points")
    g = poly_gcd(num, den, p) if num else []
    if g and poly_deg(g) > 0:
        num = poly_divmod(num, g, p)[0]
        den = poly_divmod(den, g, p)[0]
    inv_lead = ff_inv(den[-1], p)
    return RationalFn(poly_scale(num, inv_lead, p), poly_scale(den, inv_lead, p))


# ---------------------------------------------------------------------------
# root extraction


def _quadratic_roots(f: list[int], p: int):
    # Monic x^2 + bx + c with p = 3 (mod 4); the discriminant of a
    # split squarefree quadratic is a nonzero square.
    b, c = f[1], f[0]
    disc = (b * b - 4 * c) % p
    s = pow(disc, (p + 1) // 4, p)
    if s * s % p != disc:
        raise NotSplittableError("quadratic discriminant is a non-residue")
    inv2 = ff_inv(2, p)
    return {(-b + s) * inv2 % p, (-b - s) * inv2 % p}


def _unity_classes(p: int) -> list[int]:
    """The q-th roots of unity, q = 6 when it divides ``p - 1``, else 2."""
    if (p - 1) % 6:
        return [1, p - 1]
    for a in range(2, p):
        w = pow(a, (p - 1) // 6, p)
        if pow(w, 2, p) != 1 and pow(w, 3, p) != 1:
            return [pow(w, j, p) for j in range(6)]
    raise AssertionError("a prime field has a primitive root")


def find_roots(poly: list[int], p: int = MODULUS) -> set[int]:
    """All roots of ``poly`` iff it splits into distinct linear factors.

    Probabilistic equal-degree splitting recurses to linear factors: for
    a seeded random ``delta``, ``h = (x + delta)^((p-1)/q)`` takes a q-th
    root of unity ``u`` at each root other than ``-delta``, so the gcds of
    ``h - u`` with the factor split it into up to q pieces (q = 6 when it
    divides ``p - 1``, else 2). Degree-2 pieces take the direct
    square-root shortcut when ``p = 3 (mod 4)``. The result is verified by
    re-expanding the product of ``(x - r)`` terms, which rejects any input
    that does not split into distinct linear factors.
    """
    f = poly_monic(poly_trim(list(poly)), p)
    if not f:
        raise ValueError("zero polynomial has no defined root set")
    if poly_deg(f) == 0:
        return set()

    rng = random.Random(0x9C0FFEE ^ len(f))
    roots: set[int] = set()
    stack = [f]
    units = _unity_classes(p)
    exp = (p - 1) // len(units)
    while stack:
        g = stack.pop()
        d = poly_deg(g)
        if d == 1:
            roots.add((-g[0]) % p)
            continue
        if d == 2 and p % 4 == 3:
            roots |= _quadratic_roots(g, p)
            continue
        for _ in range(32):
            h = poly_powmod([rng.randrange(p), 1], exp, g, p)
            pieces, rest = [], g
            # the last class, and the root -delta, stay in the rest
            for u in units[:-1]:
                w = poly_gcd(poly_sub(poly_mod(h, rest, p), [u], p), rest, p)
                if poly_deg(w) > 0:
                    pieces.append(w)
                    rest = poly_divmod(rest, w, p)[0]
                    if poly_deg(rest) == 0:
                        break
            if poly_deg(rest) > 0:
                pieces.append(rest)
            if len(pieces) > 1:
                stack.extend(pieces)
                break
        else:
            # an irreducible factor never splits; a linear-splittable input
            # fails each attempt with probability at most 1/2
            raise NotSplittableError("equal-degree splitting failed to converge")

    if poly_from_roots(sorted(roots), p) != f:
        raise NotSplittableError("extracted roots do not reproduce the polynomial")
    return roots
