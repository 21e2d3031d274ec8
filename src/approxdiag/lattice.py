"""Uniform quantizers and half-open cell geometry over the lattice 2*theta*Z^n.

A lattice point is stored as an integer coordinate vector plus the scalar
quantization parameter, so membership and hashing are exact; the real
embedding 2*theta*coords is derived, never stored.  The quantizer sends x
to the unique lattice point whose half-open cell
[embed - theta, embed + theta) contains it, i.e. floor(x/(2 theta) + 1/2)
per axis, with ties (x exactly on a cell boundary) going to the upper cell.

Floating-point inputs are classified with a documented tie snap: when
x/(2 theta) + 1/2 falls within REL_TIE_SNAP (relative) of an integer it is
treated as that tie.  Decimal parameters such as theta = 0.1 place cell
boundaries at values no float hits exactly; the snap makes probes written
as theta*odd land in the upper cell as the half-open convention demands.
Exact rational inputs (Fraction) bypass the snap entirely.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, UnboundedRegionError
from .rational import to_rational
from .regions import Box, BoxUnion

REL_TIE_SNAP = 1e-9

__all__ = [
    "LatticePoint",
    "quantize",
    "quantize_index",
    "quantize_indices",
    "cell_of",
    "lattice_points_in",
    "lattice_image",
]


_INT_ONLY = frozenset((int,))


@dataclass(frozen=True, order=True, init=False)
class LatticePoint:
    """Integer lattice coordinates plus quantization parameter.

    Coordinates are normalised to a tuple of Python ints (a list or numpy
    integers compare and hash like the plain tuple); theta must be positive
    and finite.
    """

    coords: tuple[int, ...]
    theta: float

    def __init__(self, coords, theta: float):
        if not 0 < theta < math.inf:
            raise DomainError("quantization parameter must be positive and finite")
        # Already normalised (the common case) costs one type scan, no copy.
        if type(coords) is not tuple or not _INT_ONLY.issuperset(map(type, coords)):
            coords = tuple(int(c) for c in coords)
        # Frozen dataclass: write the fields past the blocked __setattr__.
        self.__dict__.update(coords=coords, theta=theta)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def embed(self) -> tuple[float, ...]:
        return tuple(2.0 * self.theta * c for c in self.coords)

    def embed_exact(self) -> tuple[Fraction, ...]:
        two_theta = 2 * to_rational(self.theta)
        return tuple(two_theta * c for c in self.coords)


def quantize_index(x, theta: float) -> int:
    """Scalar quantizer index: floor(x/(2 theta) + 1/2), ties snapped up."""
    if isinstance(x, Fraction):
        t = to_rational(theta)
        q = (x + t) / (2 * t)
        return int(math.floor(q))  # exact: floor of a rational, tie lands up
    if not math.isfinite(x):
        raise DomainError(f"cannot quantize non-finite value {x}")
    q = x / (2.0 * theta) + 0.5
    nearest = math.floor(q + 0.5)
    if abs(q - nearest) <= REL_TIE_SNAP * max(1.0, abs(q)):
        return int(nearest)
    return int(math.floor(q))


def quantize_indices(values: np.ndarray, theta: float) -> np.ndarray:
    """``quantize_index`` of every entry, same tie snap, as integer-valued
    floats (exact, no int64 overflow); an entry the scalar quantizer would
    reject comes out non-finite."""
    with np.errstate(all="ignore"):
        q = values / (2.0 * theta) + 0.5
        nearest = np.floor(q + 0.5)
        snap = np.abs(q - nearest) <= REL_TIE_SNAP * np.maximum(1.0, np.abs(q))
    return np.where(snap, nearest, np.floor(q))


def quantize(x, theta: float) -> LatticePoint:
    """Map x to the unique lattice point whose half-open cell contains it."""
    if not theta > 0:
        raise DomainError("quantization parameter must be positive")
    return LatticePoint(tuple(quantize_index(v, theta) for v in x), theta)


def cell_of(q: LatticePoint) -> Box:
    """Half-open cell [embed - theta, embed + theta) of a lattice point.

    Bounds are (2.0*theta)*c -/+ theta in floats, the same values as
    ``embed()`` -/+ theta; they are floats with lower <= upper and the flags
    are bool constants, so the cell skips ``Box`` validation.
    """
    theta = float(q.theta)
    two_theta = 2.0 * theta
    n = len(q.coords)
    return Box._trusted(
        tuple([two_theta * c - theta for c in q.coords]),
        tuple([two_theta * c + theta for c in q.coords]),
        (False,) * n,
        (True,) * n,
    )


def _require_bounded(region: BoxUnion):
    if not region.is_bounded():
        raise UnboundedRegionError("lattice enumeration requires a bounded region")


def _index_points(region: BoxUnion, axis_range) -> list[tuple[int, ...]]:
    """Sorted coordinate tuples in the union, over the region's nonempty
    boxes, of the index boxes ``axis_range(box, i) -> (cmin, cmax)`` per
    axis; a box with an empty range on some axis contributes nothing."""
    found: set[tuple[int, ...]] = set()
    for box in region.boxes:
        if box.is_empty():
            continue
        ranges = []
        for i in range(box.dim):
            cmin, cmax = axis_range(box, i)
            if cmin > cmax:
                break
            ranges.append(range(cmin, cmax + 1))
        else:
            found.update(itertools.product(*ranges))
    return sorted(found)


def lattice_points_in(region: BoxUnion, theta: float) -> list[LatticePoint]:
    """Lattice points whose embedding lies in the region (intersection
    semantics, exact rational comparisons).  Sorted by coordinates."""
    if not theta > 0:
        raise DomainError("quantization parameter must be positive")
    _require_bounded(region)
    two_theta = 2 * to_rational(theta)

    def axis_range(box, i):
        lo, hi = to_rational(box.lower[i]), to_rational(box.upper[i])
        cmin = math.ceil(lo / two_theta)
        if box.lower_open[i] and lo == two_theta * cmin:
            cmin += 1
        cmax = math.floor(hi / two_theta)
        if box.upper_open[i] and hi == two_theta * cmax:
            cmax -= 1
        return cmin, cmax

    return [LatticePoint(c, theta) for c in _index_points(region, axis_range)]


def lattice_image(region: BoxUnion, theta: float) -> list[LatticePoint]:
    """Image of the region under the quantizer: every lattice point whose
    cell meets the region, one point per met cell.  Computed from the
    quantizer itself (index intervals per axis, never by sampling), so it is
    consistent with ``quantize`` including its tie treatment: a bound's own
    cell is met by points arbitrarily close to the bound.  The one exception
    is an open upper bound exactly on a cell's lower edge (exact rational
    test), which does not meet that cell.  Sorted by coordinates.
    """
    if not theta > 0:
        raise DomainError("quantization parameter must be positive")
    _require_bounded(region)
    t = to_rational(theta)

    def axis_range(box, i):
        hi = box.upper[i]
        cmax = quantize_index(hi, theta)
        if box.upper_open[i] and to_rational(hi) == (2 * cmax - 1) * t:
            cmax -= 1
        return quantize_index(box.lower[i], theta), cmax

    return [LatticePoint(c, theta) for c in _index_points(region, axis_range)]
