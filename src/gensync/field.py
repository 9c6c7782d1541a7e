"""Prime-field arithmetic, polynomials, rational interpolation and root finding.

Everything works in the one field GF(p) with ``p`` the Mersenne prime
``2^61 - 1``: large enough to hold reduced 64-bit identifiers, and
``2^61 = 1 (mod p)`` lets packed products be reduced by folding. Field
elements are plain ints in ``[0, p)``.

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


def ff_inv(a: int) -> int:
    if a % MODULUS == 0:
        raise ZeroDivisionError("inverse of 0 is undefined in GF(p)")
    return pow(a, -1, MODULUS)


def ff_inv_all(values) -> list[int]:
    """Inverses of nonzero residues, with one modular inversion.

    Montgomery's trick: invert the product of all values, then peel the
    inverses off it from the last value back to the first.
    """
    p = MODULUS
    prefix, acc = [], 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % p
    inv = ff_inv(acc)
    out = [0] * len(prefix)
    for i in range(len(prefix) - 1, -1, -1):
        out[i] = inv * prefix[i] % p
        inv = inv * values[i] % p
    return out


def char_poly_eval(elements, z: int) -> int:
    """Evaluate the characteristic polynomial of a set at ``z``.

    Returns the product of ``(z - x)`` over all elements, 1 for the empty
    set. Elements are reduced mod ``p`` implicitly by the arithmetic.
    """
    p = MODULUS
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


def poly_scale(a: list[int], s: int) -> list[int]:
    p = MODULUS
    s %= p
    if s == 0:
        return []
    return poly_trim([c * s % p for c in a])


def poly_eval(coeffs: list[int], x: int) -> int:
    p = MODULUS
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def poly_monic(a: list[int]) -> list[int]:
    a = poly_trim(a)
    if not a or a[-1] == 1:
        return a
    return poly_scale(a, ff_inv(a[-1]))


# ---------------------------------------------------------------------------
# packed (Kronecker) arithmetic
#
# A polynomial with coefficients in [0, p) packs into one int, a fixed
# number of bytes per coefficient; one big-int product then yields every
# coefficient of the polynomial product, provided a slot is wide enough to
# hold a sum of that many coefficient products. Slots are reduced mod p
# all at once by folding their bits above 61 onto their low bits, so no
# per-coefficient work runs in the interpreter. Division works the same
# way: each quotient term costs one big-int multiple of the divisor added
# in place, and one reduction at the end clears the remainder's slots.


class _Slots:
    """Slot layout for residues mod p and sums of products of them."""

    def __init__(self, term_bits: int):
        self.k = 2 * 61 + term_bits  # slot values stay below 2^k
        # whole bytes, not whole words: a sum of 255 products fits 136 bits
        self.bytes = (self.k + 7) // 8
        self.bits = 8 * self.bytes
        self.mask = (1 << self.bits) - 1
        self._folds, bound = 0, self.k
        while bound > 62:
            bound = max(bound - 61, 61) + 1
            self._folds += 1
        self._layouts = {}

    def _layout(self, count: int):
        layout = self._layouts.get(count)
        if layout is None:
            mask = (1 << self.bits * count) - 1
            ones = mask // self.mask
            layout = (mask, ones, ones * MODULUS, ones * ((1 << self.bits - 61) - 1))
            self._layouts[count] = layout
        return layout

    def pack(self, coeffs) -> int:
        """One slot per coefficient, each in ``[0, 2^64)``, lowest first."""
        if self.bytes % 8 == 0:
            step = self.bytes // 8
            buf = [0] * (step * len(coeffs))
            buf[::step] = coeffs
            words = array("Q", buf)
            if sys.byteorder == "big":
                words.byteswap()
            return int.from_bytes(words.tobytes(), "little")
        words = array("Q", coeffs)
        if sys.byteorder == "big":
            words.byteswap()
        raw, buf = words.tobytes(), bytearray(self.bytes * len(coeffs))
        for i in range(8):
            buf[i :: self.bytes] = raw[i::8]
        return int.from_bytes(buf, "little")

    def reduce(self, value: int, count: int) -> int:
        """The lowest ``count`` slots of ``value``, each reduced mod ``p``."""
        mask, ones, low, high = self._layout(count)
        value &= mask
        # 2^61 = 1 (mod p): fold each slot's bits above 61 onto its low bits
        # until it is below 2p, then subtract p where it is at least p
        for _ in range(self._folds):
            value = (value & low) + (value >> 61 & high)
        return value - ((value + ones) >> 61 & ones) * MODULUS

    def unpack(self, value: int, count: int) -> list[int]:
        """Slots of a value whose lowest ``count`` slots hold residues."""
        data = (value & (1 << self.bits * count) - 1).to_bytes(self.bytes * count, "little")
        if self.bytes % 8 == 0:
            words = array("Q", data)[:: self.bytes // 8]
        else:
            raw = bytearray(8 * count)
            for i in range(8):
                raw[i::8] = data[i :: self.bytes]
            words = array("Q", raw)
        if sys.byteorder == "big":
            words.byteswap()
        return words.tolist()

    def degree(self, value: int) -> int:
        """Degree of a packed polynomial whose slots hold residues; -1 for 0."""
        return (value.bit_length() + self.bits - 1) // self.bits - 1

    def negate(self, value: int, count: int) -> int:
        """``-value`` with nonnegative slots: ``p - c`` in each of ``count`` slots of residues."""
        mask, _, low, _ = self._layout(count)
        return low - (value & mask)


def _slots(terms: int) -> _Slots:
    """Slots that hold a sum of ``terms`` products of residues."""
    return _slots_for_bits(terms.bit_length())


_slots_for_bits = functools.lru_cache(maxsize=64)(_Slots)


def _product_tree(slots: _Slots, polys: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Packed ``(value, length)`` polynomials multiplied in pairs up a tree.

    Returns the levels, the polynomials themselves first; the last level
    holds their product. An odd one out moves up a level unchanged.
    """
    levels = [polys]
    while len(polys) > 1:
        paired = [
            (slots.reduce(a * b, na + nb - 1), na + nb - 1)
            for (a, na), (b, nb) in zip(polys[::2], polys[1::2])
        ]
        if len(polys) % 2:
            paired.append(polys[-1])
        polys = paired
        levels.append(polys)
    return levels


def _linears(slots: _Slots, roots: list[int]) -> list[tuple[int, int]]:
    """Packed factors of the product of ``(Z - r)``, two roots to a factor."""
    p = MODULUS
    pairs = [(slots.pack([a * b % p, (-a - b) % p, 1]), 3) for a, b in zip(roots[::2], roots[1::2])]
    if len(roots) % 2:
        pairs.append((slots.pack([(-roots[-1]) % p, 1]), 2))
    return pairs


def _round_up(count: int) -> int:
    # A slot count for reducing or negating a value whose slots from
    # ``count`` up are 0 mod p: reducing clears them, negating puts p in
    # them. A multiple of 16 keeps the layouts that a remainder sequence
    # of falling degree caches few.
    return -(-count // 16) * 16


def _divmod(slots: _Slots, a: int, da: int, b: int, db: int) -> tuple[list[int], int]:
    """Quotient coefficients and packed remainder of ``a / b``.

    ``a`` has degree at most ``da`` and ``b`` degree ``db >= 0``, and the
    slots of both hold residues. Each quotient term adds the multiple of
    ``-b`` that makes the top slot 0 mod p, which is then left behind;
    one reduction of the low slots gives the remainder. The slots must
    hold sums of ``da - db + 1`` products.
    """
    if da < db:
        return [], a
    p, bits = MODULUS, slots.bits
    top = db * bits
    inv = pow(b >> top, -1, p)
    neg = slots.negate(b, _round_up(db))
    quot = [0] * (da - db + 1)
    for i in range(da - db, -1, -1):
        c = (a >> (i * bits + top) & slots.mask) % p
        if c:
            quot[i] = q = c * inv % p
            a += q * neg << i * bits
    return quot, slots.reduce(a, _round_up(db))


def _monic(slots: _Slots, a: int, da: int) -> int:
    return slots.reduce(a * pow(a >> da * slots.bits, -1, MODULUS), da + 1)


def _gcd(slots: _Slots, a: int, da: int, b: int, db: int) -> tuple[int, int]:
    """Monic gcd of two packed polynomials, not both zero, and its degree."""
    while db >= 0:
        a, da, b = b, db, _divmod(slots, a, da, b, db)[1]
        db = slots.degree(b)
    return _monic(slots, a, da), da


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
        # the reversed series is the quotient of x^(2d - 2) by ``mod``
        d = len(mod) - 1
        self.d = d
        self.slots = slots
        self._inv = slots.pack(_divmod(slots, 1 << (2 * d - 2) * slots.bits, 2 * d - 2, slots.pack(mod), d)[0])
        self._mod = slots.pack(mod[:d])
        self._p = slots.pack([MODULUS] * d)
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


def char_poly_evals(elements, points) -> list[int]:
    """``char_poly_eval`` at each of the distinct ``points``.

    For each group of points, the characteristic polynomial is reduced
    modulo the product of ``(Z - z)`` over the group, one block of
    elements at a time, and the small remainder is evaluated at each
    point of the group: it agrees with the full polynomial there. Groups
    of at most 62 points keep the packed products narrow. Few points or
    few elements take the direct products.
    """
    p = MODULUS
    elements, points = list(elements), [z % p for z in points]
    groups = -(-len(points) // _GROUP_POINTS)
    size = -(-len(points) // groups) if points else 0
    if size < 8 or len(elements) < 2 * len(points):
        return [char_poly_eval(elements, z) for z in points]
    slots = _slots(size + 1)

    def product_of_linears(roots):
        return _product_tree(slots, _linears(slots, roots))[-1][0][0]

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
        out.extend(poly_eval(remainder, z) for z in group)
    return out


def poly_powmod(base: list[int], exp: int, mod: list[int]) -> list[int]:
    """Compute ``base^exp`` modulo ``mod``, a polynomial of degree at least 2.

    Left-to-right square-and-multiply on packed remainders.
    """
    base = poly_trim([c % MODULUS for c in base])
    mod = poly_monic([c % MODULUS for c in mod])
    d = len(mod) - 1
    reducer = _PackedMod(mod, _slots(max(len(mod), len(base))))
    slots = reducer.slots
    packed_base = _divmod(slots, slots.pack(base), len(base) - 1, slots.pack(mod), d)[1]
    packed = 1
    for i in reversed(range(exp.bit_length())):
        packed = reducer.mulmod(packed, packed)
        if exp >> i & 1:
            packed = reducer.mulmod(packed, packed_base)
    return poly_trim(slots.unpack(packed, d))


def poly_from_roots(roots) -> list[int]:
    """Expand the monic polynomial with the given roots."""
    roots = [r % MODULUS for r in roots]
    if not roots:
        return [1]
    slots = _slots(len(roots) + 1)
    return slots.unpack(*_product_tree(slots, _linears(slots, roots))[-1][0])


# ---------------------------------------------------------------------------
# rational interpolation


@dataclass
class RationalFn:
    """Reduced rational function; denominator is monic and nonzero."""

    numerator: list[int]
    denominator: list[int]

    def eval_pair(self, z: int):
        """Evaluate numerator and denominator at ``z`` without dividing."""
        return poly_eval(self.numerator, z), poly_eval(self.denominator, z)


@functools.lru_cache(maxsize=8)
def _lagrange_basis(zs: tuple[int, ...]):
    """Slots, the product tree of the ``Z - z`` and each ``1 / M'(z)``.

    Callers sample at the same points sync after sync, so each point set
    is worked out once: ``M'(z)`` is the product of ``z - z'`` over the
    other points.
    """
    p = MODULUS
    slots = _slots(len(zs) + 1)
    derivatives = []
    for z in zs:
        acc = 1
        for other in zs:
            if other != z:
                acc = acc * (z - other) % p
        derivatives.append(acc)
    return slots, _product_tree(slots, _linears(slots, list(zs))), ff_inv_all(derivatives)


def rational_interpolate(points, deg_num: int, deg_den: int) -> RationalFn:
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
    p = MODULUS
    zs = tuple(z % p for z, _ in points)
    if len(set(zs)) != len(zs):
        raise InterpolationError("sample points must be distinct")
    slots, tree, inv_derivatives = _lagrange_basis(zs)
    bits = slots.bits

    # Lagrange: F is the sum over the points of c = value / M'(z) times
    # M / (Z - z). Up the product tree, a node's share of that sum is
    # N = N_left * M_right + N_right * M_left.
    cs = [v % p * inv % p for (_, v), inv in zip(points, inv_derivatives)]
    shares = [
        slots.pack([-(ca * zb + cb * za) % p, (ca + cb) % p])
        for (za, zb), (ca, cb) in zip(zip(zs[::2], zs[1::2]), zip(cs[::2], cs[1::2]))
    ]
    if len(cs) % 2:
        shares.append(cs[-1])
    for level in tree[:-1]:
        pairs = zip(zip(shares[::2], shares[1::2]), zip(level[::2], level[1::2]))
        paired = [slots.reduce(nl * mr + nr * ml, ll + lr - 2) for (nl, nr), ((ml, ll), (mr, lr)) in pairs]
        if len(shares) % 2:
            paired.append(shares[-1])
        shares = paired

    # extended Euclid on M and F, carrying the cofactor t of F
    r0, d0, r1 = tree[-1][0][0], len(zs), shares[0]
    d1, t0, t1, dt1 = slots.degree(r1), 0, 1, 0
    while d1 > deg_num:
        quot, rem = _divmod(slots, r0, d0, r1, d1)
        neg_t1, t = slots.negate(t1, _round_up(dt1 + 1)), t0
        for j, q in enumerate(quot):
            if q:
                t += q * neg_t1 << j * bits
        t0, t1 = t1, slots.reduce(t, _round_up(dt1 + len(quot)))
        r0, d0, r1, d1, dt1 = r1, d1, rem, slots.degree(rem), slots.degree(t1)
    if dt1 > deg_den:
        raise InterpolationError("no fraction within the degree bounds fits the points")
    if d1 >= 0:
        g, dg = _gcd(slots, r1, d1, t1, dt1)
        if dg > 0:
            r1, d1 = slots.pack(_divmod(slots, r1, d1, g, dg)[0]), d1 - dg
            t1, dt1 = slots.pack(_divmod(slots, t1, dt1, g, dg)[0]), dt1 - dg
    num, den = slots.unpack(r1, d1 + 1), slots.unpack(t1, dt1 + 1)
    inv_lead = ff_inv(den[-1])
    return RationalFn(poly_scale(num, inv_lead), poly_scale(den, inv_lead))


# ---------------------------------------------------------------------------
# root extraction


def _quadratic_roots(f: list[int]):
    # Monic x^2 + bx + c with p = 3 (mod 4); the discriminant of a
    # split squarefree quadratic is a nonzero square.
    p = MODULUS
    b, c = f[1], f[0]
    disc = (b * b - 4 * c) % p
    s = pow(disc, (p + 1) // 4, p)
    if s * s % p != disc:
        raise NotSplittableError("quadratic discriminant is a non-residue")
    inv2 = ff_inv(2)
    return {(-b + s) * inv2 % p, (-b - s) * inv2 % p}


# The powers of a unit of order 210, a divisor of p - 1. At a root r other
# than -delta, H = (x + delta)^((p-1)/210) takes the value omega^a for some
# class a mod 210. The tower reads a a little at a time: H^35 gives a mod
# 6, then H^7 gives a mod 30, then H itself gives a. Each row is
# (exponent, modulus of the class it gives).
_ORDER = 210
_OMEGA = pow(17, (MODULUS - 1) // _ORDER, MODULUS)
_UNITS = [pow(_OMEGA, i, MODULUS) for i in range(_ORDER)]
_TOWER = ((35, 6), (7, 30), (1, 210))


def _split(slots: _Slots, g: int, d: int, h: int) -> list[tuple[int, int]]:
    """Pieces of the monic packed ``g`` of degree ``d >= 3`` by class, down the tower.

    ``h`` is ``H`` mod ``g``. Each level splits every piece of degree 3 or
    more by the gcds of ``H^e - u`` with it, one candidate ``u`` at a time;
    the last candidate's roots, ``-delta`` and anything left once at most
    two roots remain stay in the rest. Returns packed pieces with their
    degrees.
    """
    done, pieces, modulus = [], [(g, d, h, 0)], 1
    for e, n in _TOWER:
        split = []
        for f, df, hf, b in pieces:
            he = hf
            if e > 1:
                reducer = _PackedMod(slots.unpack(f, df + 1), slots)
                for bit in bin(e)[3:]:
                    he = reducer.mulmod(he, he)
                    if bit == "1":
                        he = reducer.mulmod(he, hf)
            classes = range(b, n, modulus)  # the classes mod n within class b
            found, rest, drest = [], f, df
            for a in classes[:-1]:
                r = _divmod(slots, he, df - 1, rest, drest)[1]
                c0 = r & slots.mask
                r += (c0 - _UNITS[e * a % _ORDER]) % MODULUS - c0
                w, dw = _gcd(slots, rest, drest, r, slots.degree(r))
                if dw > 0:
                    found.append((w, dw, a))
                    rest, drest = slots.pack(_divmod(slots, rest, drest, w, dw)[0]), drest - dw
                    if drest <= 2:
                        break
            found.append((rest, drest, classes[-1]))
            for w, dw, a in found:
                if dw > 2:
                    split.append((w, dw, _divmod(slots, hf, df - 1, w, dw)[1], a))
                elif dw > 0:
                    done.append((w, dw))
        pieces, modulus = split, n
    return done + [(f, df) for f, df, _, _ in pieces]


def find_roots(poly: list[int]) -> set[int]:
    """All roots of ``poly`` iff it splits into distinct linear factors.

    Probabilistic equal-degree splitting: for a seeded random ``delta``,
    one exponentiation gives ``H = (x + delta)^((p-1)/210)`` modulo the
    polynomial, and ``H`` takes a 210th root of unity at each root other
    than ``-delta``; gcds down a tower of its powers split the roots by
    that value into up to 210 pieces. A piece of degree 3 or more starts
    again with a fresh ``delta``; degree-2 pieces take the direct
    square-root shortcut. The result is verified by re-expanding the
    product of ``(x - r)`` terms, which rejects any input that does not
    split into distinct linear factors.
    """
    p = MODULUS
    f = poly_monic(poly_trim(list(poly)))
    if not f:
        raise ValueError("zero polynomial has no defined root set")
    if poly_deg(f) == 0:
        return set()

    rng = random.Random(0x9C0FFEE ^ len(f))
    slots = _slots(len(f))
    roots: set[int] = set()
    stack = [f]
    exp = (p - 1) // _ORDER
    while stack:
        g = stack.pop()
        d = poly_deg(g)
        if d == 1:
            roots.add((-g[0]) % p)
            continue
        if d == 2:
            roots |= _quadratic_roots(g)
            continue
        packed = slots.pack(g)
        for _ in range(32):
            h = poly_powmod([rng.randrange(p), 1], exp, g)
            pieces = _split(slots, packed, d, slots.pack(h))
            if len(pieces) > 1:
                stack.extend(slots.unpack(piece, dp + 1) for piece, dp in pieces)
                break
        else:
            # an irreducible factor never splits; a linear-splittable input
            # fails each attempt with probability at most 1/2
            raise NotSplittableError("equal-degree splitting failed to converge")

    if poly_from_roots(roots) != f:
        raise NotSplittableError("extracted roots do not reproduce the polynomial")
    return roots
