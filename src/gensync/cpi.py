"""Characteristic-polynomial sync: sketches, interpolation and difference
extraction.

Both parties evaluate the characteristic polynomial of their set at a
shared, index-determined sequence of sample points. The decoder divides
the two evaluation vectors pointwise, fits a rational function to the
ratio, and reads the two difference sets off the numerator and
denominator roots. Common elements cancel in the ratio, so the sketch
size depends only on the difference bound, never on the set sizes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import (
    BoundExceededError,
    IncompatibleSketchError,
    InterpolationError,
    NotSplittableError,
)
from .field import (
    MODULUS,
    char_poly_evals,
    ff_inv,
    find_roots,
    poly_deg,
    rational_interpolate,
)

_SKETCH_HEADER = struct.Struct(">QIHI")


def sample_point(i: int, p: int = MODULUS) -> int:
    """Shared evaluation point convention: descending from the field top.

    Keeps sample points disjoint from typical small identifiers so they
    do not collide with set elements.
    """
    return p - 1 - i


@dataclass
class CpiSketch:
    """Evaluation vector of length ``mbar + verification_points``."""

    mbar: int
    verification_points: int
    set_size: int
    evaluations: list[int]

    def to_bytes(self) -> bytes:
        out = bytearray(
            _SKETCH_HEADER.pack(self.set_size, self.mbar, self.verification_points, len(self.evaluations))
        )
        for v in self.evaluations:
            out += v.to_bytes(8, "big")
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> CpiSketch:
        set_size, mbar, ver, count = _SKETCH_HEADER.unpack_from(data, 0)
        off = _SKETCH_HEADER.size
        evals = [int.from_bytes(data[off + 8 * i : off + 8 * i + 8], "big") for i in range(count)]
        return cls(mbar, ver, set_size, evals)


def make_sketch(
    elements,
    mbar: int,
    verification_points: int,
    p: int = MODULUS,
    start: int = 0,
) -> CpiSketch:
    """Evaluate the characteristic polynomial at the shared sample points.

    Points with index below ``start`` are skipped, so a bound-doubling
    retry can request only the freshly appended points.
    """
    if mbar < 1:
        raise ValueError("difference bound must be at least 1")
    elems = [x % p for x in elements]
    evals = char_poly_evals(elems, [sample_point(i, p) for i in range(start, mbar + verification_points)], p)
    return CpiSketch(mbar, verification_points, len(elems), evals)


def _degree_split(mbar: int, ver: int, delta: int):
    # largest even-offset total at or below the bound, leaving at least
    # the points beyond it for verification
    total_budget = mbar if ver >= 1 else mbar - 1
    total = total_budget
    if (total - delta) % 2 != 0:
        total -= 1
    if total < abs(delta):
        raise BoundExceededError("set-size imbalance alone exceeds the bound")
    return (total + delta) // 2, (total - delta) // 2


def reconcile(mine: CpiSketch, theirs: CpiSketch, p: int = MODULUS):
    """Extract (only_mine, only_theirs) from two evaluation vectors.

    Fails with BoundExceededError when interpolation, the verification
    points, or root extraction indicate the true difference count exceeds
    the bound.
    """
    if mine.mbar != theirs.mbar or mine.verification_points != theirs.verification_points:
        raise IncompatibleSketchError("sketches disagree on bound or verification points")
    if len(mine.evaluations) != len(theirs.evaluations):
        raise IncompatibleSketchError("evaluation vectors differ in length")

    mbar, ver = mine.mbar, mine.verification_points
    delta = mine.set_size - theirs.set_size
    if abs(delta) > mbar:
        raise BoundExceededError("set sizes differ by more than the bound")

    deg_num, deg_den = _degree_split(mbar, ver, delta)
    used = deg_num + deg_den + 1

    ratios = []
    for i in range(used):
        denom = theirs.evaluations[i]
        if denom == 0:
            raise BoundExceededError("sample point collides with a peer element")
        ratios.append((sample_point(i, p), mine.evaluations[i] * ff_inv(denom, p) % p))

    try:
        fn = rational_interpolate(ratios, deg_num, deg_den, p)
    except InterpolationError as exc:
        raise BoundExceededError(f"interpolation failed: {exc}") from exc

    # cross-multiplied verification on the remaining points, no inversions
    for i in range(used, len(mine.evaluations)):
        z = sample_point(i, p)
        fn_num, fn_den = fn.eval_pair(z, p)
        if mine.evaluations[i] * fn_den % p != theirs.evaluations[i] * fn_num % p:
            raise BoundExceededError("verification point mismatch")

    if poly_deg(fn.numerator) - poly_deg(fn.denominator) != delta:
        raise BoundExceededError("recovered degrees contradict the set sizes")

    try:
        only_mine = find_roots(fn.numerator, p) if poly_deg(fn.numerator) > 0 else set()
        only_theirs = find_roots(fn.denominator, p) if poly_deg(fn.denominator) > 0 else set()
    except NotSplittableError as exc:
        raise BoundExceededError(f"difference polynomial does not split: {exc}") from exc

    # constant numerator must really be constant 1 after reduction
    if poly_deg(fn.numerator) == 0 and fn.numerator != [1]:
        raise BoundExceededError("non-monic constant ratio")
    if poly_deg(fn.numerator) < 0:
        raise BoundExceededError("zero numerator cannot describe a set difference")
    return only_mine, only_theirs


def verify_membership(only_mine: set[int], only_theirs: set[int], my_elements: set[int]) -> bool:
    """Deterministic decode sanity check against the local set."""
    return only_mine <= my_elements and not (only_theirs & my_elements)


def extend_sketch(base: CpiSketch, appended: CpiSketch, new_mbar: int) -> CpiSketch:
    """Graft freshly appended evaluation points onto an existing sketch."""
    return CpiSketch(
        new_mbar,
        base.verification_points,
        appended.set_size,
        base.evaluations + appended.evaluations,
    )
