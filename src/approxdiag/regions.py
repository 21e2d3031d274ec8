"""Axis-aligned boxes and finite box unions under the infinity norm.

Infinity-norm balls are boxes, so dilation by a ball radius is per-axis
inflation and erosion reduces to an exact per-point covering test.  The
covering test (``ball_in_union``) runs over exact rationals: floats convert
exactly to Fraction, every derived bound is copied or added exactly, and
emptiness of the leftover region is decided without rounding.  That
exactness is what lets downstream set inclusions be asserted with equality
instead of tolerances.

Convention: fault and initial sets are supplied as closed boxes; open
flags exist for internally produced fragments and for callers that need
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
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
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

    def contains_exact(self, x) -> bool:
        """Membership for exact rational points (bounds lifted to Fraction)."""
        return self._contains(x, map(to_rational, self.lower), map(to_rational, self.upper))

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
    def member_arrays(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """Lower corners and widths of the nonempty member boxes, one float
        row per box, and whether that is one box with no degenerate axis."""
        boxes = [b for b in self.boxes if not b.is_empty()]
        lower = np.array([b.lower for b in boxes]).reshape(len(boxes), self.dim)
        width = np.array([b.upper for b in boxes]).reshape(len(boxes), self.dim) - lower
        return lower, width, len(boxes) == 1 and bool(width.all())

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
        # infinite bound reads 0 on that axis, as in `distance_to`.
        def gap(b):
            axes = (np.fmax(lo - v, v - hi) for v, lo, hi in zip(cols, b.lower, b.upper))
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
        return BoxUnion((), int(d))


# -- exact covering test ------------------------------------------------
#
# A box is represented over rationals as a list of (lo, hi, lo_closed,
# hi_closed) intervals.  Subtracting one box from another peels off at most
# two fragments per axis, then recurses on the overlap; all bounds are
# copies of existing rationals, so no rounding ever occurs.


def _rat_box(box: Box):
    return [
        (to_rational(a), to_rational(b), not oa, not ob)
        for a, b, oa, ob in zip(box.lower, box.upper, box.lower_open, box.upper_open)
    ]


def _interval_empty(lo, hi, lc, hc) -> bool:
    return lo > hi or (lo == hi and not (lc and hc))


def _intersect_interval(cur, cut):
    lo, hi, lc, hc = cur
    clo, chi, clc, chc = cut
    nlo, nlc = (clo, clc) if clo > lo else ((lo, lc) if clo < lo else (lo, lc and clc))
    nhi, nhc = (chi, chc) if chi < hi else ((hi, hc) if chi > hi else (hi, hc and chc))
    return nlo, nhi, nlc, nhc


def _below_interval(cur, cut):
    """Part of ``cur`` left of the cutter start: v < clo, or v == clo if open."""
    lo, hi, lc, hc = cur
    clo, _, clc, _ = cut
    if clo > hi or (clo == hi and not hc):
        return cur
    ubc = (not clc) if clo < hi else ((not clc) and hc)
    return lo, clo, lc, ubc


def _above_interval(cur, cut):
    lo, hi, lc, hc = cur
    _, chi, _, chc = cut
    if chi < lo or (chi == lo and not lc):
        return cur
    lbc = (not chc) if chi > lo else ((not chc) and lc)
    return chi, hi, lbc, hc


def _subtract(box, cutter):
    """Fragments of ``box`` not covered by ``cutter``; at most 2n pieces."""
    for cur, cut in zip(box, cutter):
        if _interval_empty(*_intersect_interval(cur, cut)):
            return [box]
    fragments = []
    current = list(box)
    for i in range(len(box)):
        for part in (_below_interval(current[i], cutter[i]), _above_interval(current[i], cutter[i])):
            if not _interval_empty(*part):
                piece = current.copy()
                piece[i] = part
                fragments.append(piece)
        current[i] = _intersect_interval(current[i], cutter[i])
    return fragments


def ball_in_union(x, eps: float, union: BoxUnion) -> bool:
    """Exact test that the closed eps-ball around x is covered by the union.

    eps = 0 reduces to closed membership.  Runs in rational arithmetic.
    """
    if eps < 0:
        raise DomainError("ball radius must be nonnegative")
    if len(x) != union.dim:
        raise DimensionMismatchError("dimension mismatch")
    e = to_rational(eps)
    ball = [(to_rational(v) - e, to_rational(v) + e, True, True) for v in x]
    remainder = [ball]
    for member in union.boxes:
        if member.is_empty():
            continue
        cutter = _rat_box(member)
        nxt = []
        for frag in remainder:
            nxt.extend(_subtract(frag, cutter))
        remainder = nxt
        if not remainder:
            return True
    return not remainder
