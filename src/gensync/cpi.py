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
    ProtocolError,
)
from .field import (
    MODULUS,
    char_poly_evals,
    ff_inv_all,
    find_roots,
    poly_deg,
    rational_interpolate,
)

_SKETCH_HEADER = struct.Struct(">QIHI")


def sample_point(i: int) -> int:
    """Shared evaluation point convention: descending from the field top.

    Keeps sample points disjoint from typical small identifiers so they
    do not collide with set elements.
    """
    return MODULUS - 1 - i


@dataclass
class CpiSketch:
    """Evaluation vector of length ``mbar + verification_points``."""

    mbar: int
    verification_points: int
    set_size: int
    evaluations: list[int]

    def to_bytes(self) -> bytes:
        count = len(self.evaluations)
        fmt = f"{_SKETCH_HEADER.format}{count}Q"
        return struct.pack(fmt, self.set_size, self.mbar, self.verification_points, count, *self.evaluations)

    @classmethod
    def from_bytes(cls, data: bytes) -> CpiSketch:
        """Decode a peer's sketch; ProtocolError when it is malformed."""
        if len(data) < _SKETCH_HEADER.size:
            raise ProtocolError(f"CPI sketch of {len(data)} bytes is shorter than its header")
        set_size, mbar, ver, count = _SKETCH_HEADER.unpack_from(data, 0)
        if mbar < 1:
            raise ProtocolError("CPI sketch header has a zero difference bound")
        if len(data) != _SKETCH_HEADER.size + 8 * count:
            raise ProtocolError(f"CPI sketch has {len(data)} bytes, its header announces {count} evaluations")
        evals = list(struct.unpack_from(f">{count}Q", data, _SKETCH_HEADER.size))
        if any(v >= MODULUS for v in evals):
            raise ProtocolError("CPI sketch holds an evaluation outside the field")
        return cls(mbar, ver, set_size, evals)


def make_sketch(elements, mbar: int, verification_points: int, start: int = 0) -> CpiSketch:
    """Evaluate the characteristic polynomial at the shared sample points.

    Points with index below ``start`` are skipped, so a bound-doubling
    retry can request only the freshly appended points.
    """
    if mbar < 1:
        raise ValueError("difference bound must be at least 1")
    evals = char_poly_evals(elements, [sample_point(i) for i in range(start, mbar + verification_points)])
    return CpiSketch(mbar, verification_points, len(elements), evals)


def update_sketch(sketch: CpiSketch, added, removed) -> CpiSketch | None:
    """The sketch of a set after adding ``added`` and removing ``removed``.

    Each evaluation is a product of ``(z - x)``, so it is multiplied by
    the added elements' factors and divided by the removed ones'. Returns
    None when a removed element is a sample point, whose zero factor
    cannot be divided out.
    """
    mbar, ver = sketch.mbar, sketch.verification_points
    plus = make_sketch(added, mbar, ver).evaluations
    minus = make_sketch(removed, mbar, ver).evaluations
    if 0 in minus:
        return None
    p = MODULUS
    evals = [e * a % p * r % p for e, a, r in zip(sketch.evaluations, plus, ff_inv_all(minus))]
    return CpiSketch(mbar, ver, sketch.set_size + len(added) - len(removed), evals)


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


def reconcile(mine: CpiSketch, theirs: CpiSketch):
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

    denoms = theirs.evaluations[:used]
    if 0 in denoms:
        raise BoundExceededError("sample point collides with a peer element")
    ratios = [
        (sample_point(i), e * inv % MODULUS)
        for i, (e, inv) in enumerate(zip(mine.evaluations, ff_inv_all(denoms)))
    ]

    try:
        fn = rational_interpolate(ratios, deg_num, deg_den)
    except InterpolationError as exc:
        raise BoundExceededError(f"interpolation failed: {exc}") from exc

    # cross-multiplied verification on the remaining points, no inversions
    for i in range(used, len(mine.evaluations)):
        fn_num, fn_den = fn.eval_pair(sample_point(i))
        if mine.evaluations[i] * fn_den % MODULUS != theirs.evaluations[i] * fn_num % MODULUS:
            raise BoundExceededError("verification point mismatch")

    if poly_deg(fn.numerator) - poly_deg(fn.denominator) != delta:
        raise BoundExceededError("recovered degrees contradict the set sizes")

    try:
        only_mine = find_roots(fn.numerator) if poly_deg(fn.numerator) > 0 else set()
        only_theirs = find_roots(fn.denominator) if poly_deg(fn.denominator) > 0 else set()
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
