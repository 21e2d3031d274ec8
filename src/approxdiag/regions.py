"""Axis-aligned boxes and finite box unions under the infinity norm.

Infinity-norm balls are boxes, so dilation by a ball radius is per-axis
inflation and erosion reduces to an exact per-point covering test.  The
covering test (``ball_in_union``) runs over exact rationals: each box's
bounds are read once into ``Box.exact``, the ball's bounds are the centre
plus or minus the radius, and the pieces the bounds cut the ball into are
compared without rounding.  That exactness is what lets downstream set
inclusions be asserted with equality instead of tolerances.

Convention: fault and initial sets are supplied as closed boxes; open
flags exist for internally produced cells and for callers that need
them, and default to closed everywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .rational import to_rational

__all__ = ["Box", "BoxUnion", "ball_in_union"]


def as_float(v) -> float:
    """A number read from a JSON document, as a float.  A boolean is not a
    number here, though float() would read JSON true as 1.0."""
    try:
        if isinstance(v, bool):
            raise TypeError
        return float(v)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"expected a number, got {v!r}") from exc


def _as_bool_tuple(flags, n: int, default: bool) -> tuple[bool, ...]:
    if flags is None:
        return (default,) * n
    out = tuple(bool(v) for v in flags)
    if len(out) != n:
        raise DimensionMismatchError("flag tuple length does not match dimension")
    return out


@dataclass(frozen=True)
class Box:
    """Product of intervals; per-axis open/closed flags, closed by default."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    lower_open: tuple[bool, ...] = field(default=None)  # type: ignore[assignment]
    upper_open: tuple[bool, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        lo = tuple(map(as_float, self.lower))
        hi = tuple(map(as_float, self.upper))
        if len(lo) != len(hi):
            raise DimensionMismatchError("lower and upper must have equal length")
        for a, b in zip(lo, hi):
            if not a <= b:
                raise DomainError(f"box bound {a} > {b}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "lower_open", _as_bool_tuple(self.lower_open, len(lo), False))
        object.__setattr__(self, "upper_open", _as_bool_tuple(self.upper_open, len(lo), False))

    @classmethod
    def _trusted(cls, lower, upper, lower_open, upper_open) -> "Box":
        """Build a Box from known-good fields, skipping ``__post_init__``.

        For hot internal paths only.  Nothing is checked, so the caller
        guarantees what the public constructor would otherwise establish:
        ``lower`` and ``upper`` are tuples of Python floats of one length n
        with ``lower[i] <= upper[i]``, and ``lower_open``/``upper_open`` are
        tuples of n Python bools.  The result then equals, and hashes like,
        ``Box(lower, upper, lower_open, upper_open)``.
        """
        box = object.__new__(cls)
        box.__dict__.update(lower=lower, upper=upper, lower_open=lower_open, upper_open=upper_open)
        return box

    @property
    def dim(self) -> int:
        return len(self.lower)

    def is_bounded(self) -> bool:
        return all(math.isfinite(v) for v in self.lower + self.upper)

    def is_empty(self) -> bool:
        """Degenerate axes are empty when either side is open."""
        return any(
            a == b and (oa or ob)
            for a, b, oa, ob in zip(self.lower, self.upper, self.lower_open, self.upper_open)
        )

    def contains(self, x) -> bool:
        return self._contains(x, self.lower, self.upper)

    @functools.cached_property
    def exact(self) -> tuple[tuple, tuple]:
        """Lower and upper bounds read by ``to_rational``, once per box; an
        infinite bound stays a float infinity, which compares exactly with
        every rational."""
        def read(v):
            return v if math.isinf(v) else to_rational(v)

        return tuple(map(read, self.lower)), tuple(map(read, self.upper))

    def contains_exact(self, x) -> bool:
        """Membership for exact rational points (bounds read by ``exact``)."""
        return self._contains(x, *self.exact)

    def _contains(self, x, lower, upper) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatchError(f"point dim {len(x)} != box dim {self.dim}")
        for v, a, b, oa, ob in zip(x, lower, upper, self.lower_open, self.upper_open):
            if v < a or (oa and v == a):
                return False
            if v > b or (ob and v == b):
                return False
        return True

    def intersects(self, other: "Box") -> bool:
        if other.dim != self.dim:
            raise DimensionMismatchError("dimension mismatch")
        if self.is_empty() or other.is_empty():
            return False
        for i in range(self.dim):
            lo = max(self.lower[i], other.lower[i])
            hi = min(self.upper[i], other.upper[i])
            if lo > hi:
                return False
            if lo == hi:
                # Touching at a single value: occupied only if both sides keep it.
                if self.lower[i] == hi and self.lower_open[i]:
                    return False
                if self.upper[i] == hi and self.upper_open[i]:
                    return False
                if other.lower[i] == hi and other.lower_open[i]:
                    return False
                if other.upper[i] == hi and other.upper_open[i]:
                    return False
        return True

    def distance_to(self, x) -> float:
        """Infinity-norm distance to the closure of the box; NaN for a NaN point."""
        if len(x) != self.dim:
            raise DimensionMismatchError("dimension mismatch")
        worst = 0.0
        for v, a, b in zip(x, self.lower, self.upper):
            if v < a:
                worst = max(worst, a - v)
            elif v > b:
                worst = max(worst, v - b)
            elif v != v:
                return math.nan
        return worst

    def to_json(self) -> dict:
        doc = {"lower": list(self.lower), "upper": list(self.upper)}
        if any(self.lower_open):
            doc["lower_open"] = list(self.lower_open)
        if any(self.upper_open):
            doc["upper_open"] = list(self.upper_open)
        return doc

    @staticmethod
    def from_json(doc: dict) -> "Box":
        return Box(
            tuple(doc["lower"]),
            tuple(doc["upper"]),
            tuple(doc["lower_open"]) if "lower_open" in doc else None,
            tuple(doc["upper_open"]) if "upper_open" in doc else None,
        )


@dataclass(frozen=True)
class BoxUnion:
    """Finite union of boxes in a common dimension; empty list = empty set."""

    boxes: tuple[Box, ...]
    dim: int

    def __post_init__(self):
        boxes = tuple(self.boxes)
        for b in boxes:
            if b.dim != self.dim:
                raise DimensionMismatchError("all member boxes must share the dimension")
        object.__setattr__(self, "boxes", boxes)

    @staticmethod
    def of(*boxes: Box) -> "BoxUnion":
        if not boxes:
            raise DomainError("use BoxUnion((), dim) for an explicit empty union")
        return BoxUnion(tuple(boxes), boxes[0].dim)

    def is_empty(self) -> bool:
        return all(b.is_empty() for b in self.boxes)

    @functools.cached_property
    def member_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower corners and widths (upper minus lower) of the nonempty
        member boxes, one float row per box in member order."""
        boxes = [b for b in self.boxes if not b.is_empty()]
        lower = np.array([b.lower for b in boxes]).reshape(len(boxes), self.dim)
        width = np.array([b.upper for b in boxes]).reshape(len(boxes), self.dim) - lower
        return lower, width

    def is_bounded(self) -> bool:
        return all(b.is_bounded() for b in self.boxes)

    def contains(self, x) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatchError(f"point dim {len(x)} != union dim {self.dim}")
        return any(b.contains(x) for b in self.boxes)

    def contains_exact(self, x) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatchError(f"point dim {len(x)} != union dim {self.dim}")
        return any(b.contains_exact(x) for b in self.boxes)

    def contains_columns(self, cols) -> np.ndarray:
        """``contains`` of each point whose coordinates are the entries of
        ``cols``, one float array per axis, all of one shape.  A NaN
        coordinate fails every comparison, as in ``contains``."""
        inside = np.zeros(np.shape(cols[0]), dtype=bool)
        for b in self.boxes:
            out = np.zeros_like(inside)
            for v, lo, hi, lo_open, hi_open in zip(cols, b.lower, b.upper, b.lower_open, b.upper_open):
                out |= v < lo
                out |= v > hi
                if lo_open:
                    out |= v == lo
                if hi_open:
                    out |= v == hi
            inside |= ~out
        return inside

    def distance_to(self, x) -> float:
        if not self.boxes:
            raise DomainError("distance to an empty union is undefined")
        gaps = [b.distance_to(x) for b in self.boxes]  # min() keeps only a first NaN
        return math.nan if any(map(math.isnan, gaps)) else min(gaps)

    def distance_columns(self, cols) -> np.ndarray:
        """``distance_to`` of each point whose coordinates are the entries of
        ``cols`` (same floats); a NaN coordinate gives NaN."""
        if not self.boxes:
            raise DomainError("distance to an empty union is undefined")

        # fmax skips the NaN of inf - inf, so an infinite coordinate inside an
        # infinite bound reads 0 on that axis, as in `distance_to`.  On a
        # zero-width axis at an infinity both differences are NaN there, so
        # that axis compares with its bound instead.
        def axis_gap(v, lo, hi):
            if lo == hi and math.isinf(lo):
                return np.where(v == lo, 0.0, np.abs(v - lo))
            return np.fmax(lo - v, v - hi)

        def gap(b):
            axes = (axis_gap(v, lo, hi) for v, lo, hi in zip(cols, b.lower, b.upper))
            return np.maximum(functools.reduce(np.maximum, axes), 0.0)

        with np.errstate(invalid="ignore"):
            return functools.reduce(np.minimum, map(gap, self.boxes))

    def intersects(self, other: "BoxUnion") -> bool:
        if other.dim != self.dim:
            raise DimensionMismatchError("dimension mismatch")
        return any(a.intersects(b) for a in self.boxes for b in other.boxes)

    def to_json(self) -> dict:
        return {"dim": self.dim, "boxes": [b.to_json() for b in self.boxes]}

    @staticmethod
    def from_json(doc: dict, dim: int | None = None) -> "BoxUnion":
        boxes = tuple(Box.from_json(b) for b in doc.get("boxes", []))
        if boxes:
            return BoxUnion(boxes, boxes[0].dim)
        d = doc.get("dim", dim)
        if d is None:
            raise DomainError("empty union requires an explicit dimension")
        if not as_float(d).is_integer():  # int() would read true as 1 and 2.7 as 2
            raise DomainError(f"expected an integer dimension, got {d!r}")
        return BoxUnion((), int(d))


def _bits(flags) -> int:
    return sum(f << j for j, f in enumerate(flags))


def _axis_masks(lo, hi, sides) -> set[int]:
    """Masks of the boxes holding each piece that the bounds in ``sides``,
    one (a, b, a_open, b_open) per box, cut the closed [lo, hi] into: each
    cut point, and each open interval between neighbouring cuts."""
    cuts = sorted({lo, hi}.union(c for a, b, _, _ in sides for c in (a, b) if lo < c < hi))

    def holds(c, a, b, ao, bo):
        return (a < c or a == c and not ao) and (c < b or c == b and not bo)

    masks = {_bits(holds(c, *side) for side in sides) for c in cuts}
    masks.update(_bits(a <= c and d <= b for a, b, _, _ in sides) for c, d in zip(cuts, cuts[1:]))
    return masks


def ball_in_union(x, eps: float, union: BoxUnion) -> bool:
    """Exact test that the closed eps-ball around x is covered by the union.

    The box bounds strictly inside the ball cut each of its axes into points
    and open intervals, and each box holds all of such a piece or none of
    it.  So the ball is covered exactly when every product of one piece per
    axis lies in some box: per axis, each piece gets the bit mask of the
    boxes that hold it, and no AND of one mask per axis may be 0.  eps = 0
    is plain membership, open sides respected.  Runs in rational arithmetic.
    """
    if eps < 0:
        raise DomainError("ball radius must be nonnegative")
    if len(x) != union.dim:
        raise DimensionMismatchError("dimension mismatch")
    e = to_rational(eps)
    ball = [(to_rational(v) - e, to_rational(v) + e) for v in x]
    # Per box, (lower, upper, lower_open, upper_open) per axis.  A box that
    # misses the ball on some axis holds none of its pieces.
    boxes = [list(zip(*b.exact, b.lower_open, b.upper_open)) for b in union.boxes]
    boxes = [s for s in boxes if all(a <= hi and lo <= c for (lo, hi), (a, c, *_) in zip(ball, s))]
    running = {(1 << len(boxes)) - 1}
    for (lo, hi), sides in zip(ball, zip(*boxes)):
        running = {r & m for r in running for m in _axis_masks(lo, hi, sides)}
        if 0 in running:
            return False
    return 0 not in running
