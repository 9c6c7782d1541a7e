"""The list-based CPI decoding that the packed decoder in gensync.field replaced.

A frozen reference for differential tests: find_roots splits by sixth
roots of unity with one exponentiation per factor, rational_interpolate
runs Lagrange by synthetic division and Euclid on coefficient lists, and
poly_powmod rounds packed slots up to whole 64-bit words. Do not change
it to follow the library; it records what the library must still agree
with.
"""

from __future__ import annotations

import functools
import random
import sys
from array import array
from dataclasses import dataclass

from gensync.errors import InterpolationError, NotSplittableError

MODULUS = (1 << 61) - 1  # 2305843009213693951, prime


def ff_inv(a: int) -> int:
    if a % MODULUS == 0:
        raise ZeroDivisionError("inverse of 0 is undefined in GF(p)")
    return pow(a, -1, MODULUS)


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


def poly_sub(a: list[int], b: list[int]) -> list[int]:
    p = MODULUS
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return poly_trim(out)


def poly_scale(a: list[int], s: int) -> list[int]:
    p = MODULUS
    s %= p
    if s == 0:
        return []
    return poly_trim([c * s % p for c in a])


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    p = MODULUS
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return poly_trim(out)


def poly_eval(coeffs: list[int], x: int) -> int:
    p = MODULUS
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def poly_divmod(a: list[int], b: list[int]):
    """Quotient and remainder of ``a / b``; ``b`` must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return [], poly_trim(rem)
    p = MODULUS
    inv_lead = ff_inv(b[-1])
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


def poly_mod(a: list[int], b: list[int]) -> list[int]:
    return poly_divmod(a, b)[1]


def poly_monic(a: list[int]) -> list[int]:
    a = poly_trim(a)
    if not a or a[-1] == 1:
        return a
    return poly_scale(a, ff_inv(a[-1]))


def poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Monic greatest common divisor."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_mod(a, b)
    return poly_monic(a)


# ---------------------------------------------------------------------------
# packed (Kronecker) arithmetic
#
# A polynomial with coefficients in [0, p) packs into one int, a fixed
# number of 64-bit words per coefficient; one big-int product then yields
# every coefficient of the polynomial product, provided a slot is wide
# enough to hold a sum of that many coefficient products. Slots are
# reduced mod p all at once by folding their bits above 61 onto their
# low bits, so no per-coefficient work runs in the interpreter.


class _Slots:
    """Slot layout for residues mod p and sums of products of them."""

    def __init__(self, term_bits: int):
        self.k = 2 * 61 + term_bits  # slot values stay below 2^k
        self.words = (self.k + 63) // 64
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
            layout = (mask, ones, ones * MODULUS, ones * ((1 << self.bits - 61) - 1))
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
        value &= mask
        # 2^61 = 1 (mod p): fold each slot's bits above 61 onto its low bits
        # until it is below 2p, then subtract p where it is at least p
        for _ in range(self._folds):
            value = (value & low) + (value >> 61 & high)
        return value - ((value + ones) >> 61 & ones) * MODULUS

    def unpack(self, value: int, count: int) -> list[int]:
        """Slots of a value whose lowest ``count`` slots hold residues."""
        words = array("Q", (value & self._layout(count)[0]).to_bytes(8 * self.words * count, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        return words[:: self.words].tolist()


def _slots(terms: int) -> _Slots:
    """Slots that hold a sum of ``terms`` products of residues."""
    return _slots_for_bits(terms.bit_length())


_slots_for_bits = functools.lru_cache(maxsize=64)(_Slots)


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
        d, p = len(mod) - 1, MODULUS
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


def poly_powmod(base: list[int], exp: int, mod: list[int]) -> list[int]:
    """Compute ``base^exp`` modulo the polynomial ``mod``.

    Left-to-right square-and-multiply on packed remainders.
    """
    base = poly_trim([c % MODULUS for c in poly_mod(base, mod)])
    result = poly_mod([1], mod)
    mod = poly_monic([c % MODULUS for c in mod])
    if len(mod) < 3:
        for i in reversed(range(exp.bit_length())):
            result = poly_mod(poly_mul(result, result), mod)
            if exp >> i & 1:
                result = poly_mod(poly_mul(result, base), mod)
        return result
    reducer = _PackedMod(mod, _slots(len(mod)))
    slots = reducer.slots
    packed_base, packed = slots.pack(base), slots.pack(result)
    for i in reversed(range(exp.bit_length())):
        packed = reducer.mulmod(packed, packed)
        if exp >> i & 1:
            packed = reducer.mulmod(packed, packed_base)
    return poly_trim(slots.unpack(packed, reducer.d))


def poly_from_roots(roots) -> list[int]:
    """Expand the monic polynomial with the given roots."""
    p = MODULUS
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

    def eval_pair(self, z: int):
        """Evaluate numerator and denominator at ``z`` without dividing."""
        return poly_eval(self.numerator, z), poly_eval(self.denominator, z)


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
    zs = [z % p for z, _ in points]
    if len(set(zs)) != len(zs):
        raise InterpolationError("sample points must be distinct")

    # Lagrange: F is the sum over the points of value / M'(z) * M / (Z - z)
    m = len(zs)
    big_m = poly_from_roots(zs)
    slots = _slots(m + 1)
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
        q, r = poly_divmod(r0, r1)
        r0, r1, t0, t1 = r1, r, t1, poly_sub(t0, poly_mul(q, t1))
    num, den = r1, t1
    if poly_deg(den) > deg_den:
        raise InterpolationError("no fraction within the degree bounds fits the points")
    g = poly_gcd(num, den) if num else []
    if g and poly_deg(g) > 0:
        num = poly_divmod(num, g)[0]
        den = poly_divmod(den, g)[0]
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


# the sixth roots of unity: the powers of 7^((p-1)/6), whose order is 6
_UNITS = [pow(7, (MODULUS - 1) // 6 * j, MODULUS) for j in range(6)]


def find_roots(poly: list[int]) -> set[int]:
    """All roots of ``poly`` iff it splits into distinct linear factors.

    Probabilistic equal-degree splitting recurses to linear factors: for
    a seeded random ``delta``, ``h = (x + delta)^((p-1)/6)`` takes a sixth
    root of unity ``u`` at each root other than ``-delta``, so the gcds of
    ``h - u`` with the factor split it into up to six pieces. Degree-2
    pieces take the direct square-root shortcut. The result is verified
    by re-expanding the product of ``(x - r)`` terms, which rejects any
    input that does not split into distinct linear factors.
    """
    p = MODULUS
    f = poly_monic(poly_trim(list(poly)))
    if not f:
        raise ValueError("zero polynomial has no defined root set")
    if poly_deg(f) == 0:
        return set()

    rng = random.Random(0x9C0FFEE ^ len(f))
    roots: set[int] = set()
    stack = [f]
    exp = (p - 1) // len(_UNITS)
    while stack:
        g = stack.pop()
        d = poly_deg(g)
        if d == 1:
            roots.add((-g[0]) % p)
            continue
        if d == 2:
            roots |= _quadratic_roots(g)
            continue
        for _ in range(32):
            h = poly_powmod([rng.randrange(p), 1], exp, g)
            pieces, rest = [], g
            # the last class, and the root -delta, stay in the rest
            for u in _UNITS[:-1]:
                w = poly_gcd(poly_sub(poly_mod(h, rest), [u]), rest)
                if poly_deg(w) > 0:
                    pieces.append(w)
                    rest = poly_divmod(rest, w)[0]
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

    if poly_from_roots(sorted(roots)) != f:
        raise NotSplittableError("extracted roots do not reproduce the polynomial")
    return roots
