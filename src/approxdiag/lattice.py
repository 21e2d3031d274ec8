"""Uniform quantizers and half-open cell geometry over the lattice 2*theta*Z^n.

A lattice point is a tuple of Python ints, its integer coordinates; the
lattice's one spacing 2*theta travels beside it, so membership and hashing
are exact and the real embedding 2*theta*coords is derived, never stored.
The quantizer sends x to the unique lattice point whose half-open cell
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
from fractions import Fraction

import numpy as np

from .errors import DomainError, ResourceLimitError, UnboundedRegionError
from .rational import to_exact, to_rational
from .regions import Box, BoxUnion

REL_TIE_SNAP = 1e-9
# Most cells an index box may span: 4 bytes each in the build's key table, 1
# byte in the lattice ball's grid, a tuple each in an enumerated lattice box.
_GRID_CAP = 1 << 26

__all__ = [
    "quantize",
    "quantize_index",
    "quantize_indices",
    "cell_of",
    "embed_exact",
    "lattice_points_in",
    "lattice_image",
]


def _check_theta(theta) -> None:
    if not 0 < theta < math.inf:
        raise DomainError("quantization parameter must be positive and finite")


def embed_exact(rows, theta) -> tuple[tuple[int | Fraction, ...], ...]:
    """Exact embeddings 2*theta*coords of coordinate rows, theta read as the
    decimal it was written as: each component an int where integral, else a
    Fraction."""
    two_theta = 2 * to_rational(theta)
    return tuple(tuple(to_exact(two_theta * c) for c in row) for row in rows)


def quantize_index(x, theta: float) -> int:
    """Scalar quantizer index: floor(x/(2 theta) + 1/2), ties snapped up."""
    if isinstance(x, Fraction):
        t = to_rational(theta)
        q = (x + t) / (2 * t)
        return int(math.floor(q))  # exact: floor of a rational, tie lands up
    if not math.isfinite(x):
        raise DomainError(f"cannot quantize non-finite value {x}")
    q = x / (2.0 * theta) + 0.5
    if not math.isfinite(q):
        raise DomainError(f"lattice index of {x} overflows at theta {theta}")
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


def quantize(x, theta: float) -> tuple[int, ...]:
    """Coordinates of the unique lattice point whose half-open cell contains x."""
    _check_theta(theta)
    return tuple(quantize_index(v, theta) for v in x)


def cell_of(coords, theta: float) -> Box:
    """Half-open cell [embed - theta, embed + theta) of a lattice point.

    Bounds are (2.0*theta)*c -/+ theta in floats, c read as a Python int;
    they are floats with lower <= upper and the flags are bool constants, so
    the cell skips ``Box`` validation.
    """
    _check_theta(theta)
    theta = float(theta)
    two_theta = 2.0 * theta
    coords = tuple(map(int, coords))
    n = len(coords)
    return Box._trusted(
        tuple([two_theta * c - theta for c in coords]),
        tuple([two_theta * c + theta for c in coords]),
        (False,) * n,
        (True,) * n,
    )


def _require_enumerable(region: BoxUnion, theta: float):
    _check_theta(theta)
    if not region.is_bounded():
        raise UnboundedRegionError("lattice enumeration requires a bounded region")


def _index_points(region: BoxUnion, axis_range) -> list[tuple[int, ...]]:
    """Sorted coordinate tuples in the union, over the region's nonempty
    boxes, of the index boxes ``axis_range(box, i) -> (cmin, cmax)`` per
    axis; a box with an empty range on some axis contributes nothing, and
    one of more than _GRID_CAP points (counted first) is ResourceLimitError."""
    found: set[tuple[int, ...]] = set()
    for box in region.boxes:
        if box.is_empty():
            continue
        axes = [axis_range(box, i) for i in range(box.dim)]
        if all(cmin <= cmax for cmin, cmax in axes):
            if math.prod(cmax - cmin + 1 for cmin, cmax in axes) > _GRID_CAP:
                raise ResourceLimitError(f"lattice box of more than {_GRID_CAP} points")
            found.update(itertools.product(*(range(cmin, cmax + 1) for cmin, cmax in axes)))
    return sorted(found)


def lattice_points_in(region: BoxUnion, theta: float) -> list[tuple[int, ...]]:
    """Coordinates of the lattice points whose embedding lies in the region
    (intersection semantics, exact rational comparisons), sorted."""
    _require_enumerable(region, theta)
    two_theta = 2 * to_rational(theta)

    def axis_range(box, i):
        lo, hi = box.exact[0][i], box.exact[1][i]
        cmin = math.ceil(lo / two_theta)
        if box.lower_open[i] and lo == two_theta * cmin:
            cmin += 1
        cmax = math.floor(hi / two_theta)
        if box.upper_open[i] and hi == two_theta * cmax:
            cmax -= 1
        return cmin, cmax

    return _index_points(region, axis_range)


def lattice_image(region: BoxUnion, theta: float) -> list[tuple[int, ...]]:
    """Image of the region under the quantizer: the coordinates of every
    lattice point whose cell meets the region, one point per met cell.
    Computed from the quantizer itself (index intervals per axis, never by
    sampling), so it is consistent with ``quantize`` including its tie
    treatment: a bound's own cell is met by points arbitrarily close to the
    bound.  The one exception is an open upper bound exactly on a cell's
    lower edge (exact rational test), which does not meet that cell.
    Sorted by coordinates.
    """
    _require_enumerable(region, theta)
    t = to_rational(theta)

    def axis_range(box, i):
        cmax = quantize_index(box.upper[i], theta)
        if box.upper_open[i] and box.exact[1][i] == (2 * cmax - 1) * t:
            cmax -= 1
        return quantize_index(box.lower[i], theta), cmax

    return _index_points(region, axis_range)
