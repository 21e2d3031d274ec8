"""Comparison-function algebra (class K and K-infinity scalar gains).

Certificates are expressed with strictly increasing scalar functions that
vanish at zero.  Three representable families cover every certificate we
accept: linear gains a*r, power laws a*r**b, and piecewise-linear curves
anchored at (0, 0).  All three admit exact evaluation and exact inversion,
which keeps the accuracy-parameter inequalities decidable instead of merely
samplable.  The inversion contract is |f(inverse(y)) - y| <= TOL_INV
relative; the closed forms land far below that bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, RangeError
from .regions import as_float

TOL_INV = 1e-9

_FORMS = ("linear", "power", "pwl")


@dataclass(frozen=True)
class KFunction:
    """Strictly increasing scalar gain with value 0 at 0.

    ``form`` is one of ``linear`` (a*r), ``power`` (a*r**b) or ``pwl``
    (piecewise linear through ``points``, extended past the last breakpoint
    with the final segment slope).  Every representable form is unbounded,
    hence class K-infinity.
    """

    form: str
    a: float = 1.0
    b: float = 1.0
    points: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.form not in _FORMS:
            raise DomainError(f"unknown comparison-function form {self.form!r}")
        if self.form in ("linear", "power"):
            if not self.a > 0:
                raise DomainError("coefficient a must be positive")
            if self.form == "power" and not self.b > 0:
                raise DomainError("exponent b must be positive")
        else:
            pts = tuple((float(r), float(y)) for r, y in self.points)
            if len(pts) < 2 or pts[0] != (0.0, 0.0):
                raise DomainError("pwl form needs >= 2 points starting at (0, 0)")
            for (r0, y0), (r1, y1) in zip(pts, pts[1:]):
                if not (r1 > r0 and y1 > y0):
                    raise DomainError("pwl breakpoints must be strictly increasing")
            object.__setattr__(self, "points", pts)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def linear(a: float) -> "KFunction":
        return KFunction("linear", a=float(a))

    @staticmethod
    def power(a: float, b: float) -> "KFunction":
        return KFunction("power", a=float(a), b=float(b))

    @staticmethod
    def piecewise_linear(points) -> "KFunction":
        return KFunction("pwl", points=tuple(points))

    @staticmethod
    def identity() -> "KFunction":
        return KFunction("linear", a=1.0)

    # -- evaluation -----------------------------------------------------

    def __call__(self, r: float) -> float:
        if r < 0:
            raise DomainError(f"comparison functions are defined on r >= 0, got {r}")
        if self.form == "linear":
            return self.a * r
        if self.form == "power":
            return self.a * r ** self.b
        return _pwl(self.points, r)

    def inverse(self, y: float) -> float:
        """Exact inverse; defined on y >= 0 since every form is K-infinity."""
        if y < 0:
            raise RangeError(f"inverse is defined on y >= 0, got {y}")
        if y == 0:
            return 0.0
        if self.form == "linear":
            return y / self.a
        if self.form == "power":
            return (y / self.a) ** (1.0 / self.b)
        return _pwl(tuple((y1, r1) for r1, y1 in self.points), y)

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        if self.form == "linear":
            return {"form": "linear", "a": self.a}
        if self.form == "power":
            return {"form": "power", "a": self.a, "b": self.b}
        return {"form": "pwl", "points": [list(p) for p in self.points]}

    @staticmethod
    def from_json(doc: dict) -> "KFunction":
        form = doc.get("form")
        if form == "linear":
            return KFunction.linear(as_float(doc["a"]))
        if form == "power":
            return KFunction.power(as_float(doc["a"]), as_float(doc.get("b", 1.0)))
        if form == "pwl":
            return KFunction.piecewise_linear(
                tuple((as_float(r), as_float(y)) for r, y in doc["points"])
            )
        raise DomainError(f"unknown comparison-function form {form!r}")


def _pwl(points, r: float) -> float:
    """The curve through `points` at r, extended past the last breakpoint
    with the final segment slope; NaN for NaN.  On swapped breakpoints it
    is the inverse."""
    if not r < points[-1][0]:
        (r0, y0), (r1, y1) = points[-2:]
        return y1 + (r - r1) * (y1 - y0) / (r1 - r0)
    for (r0, y0), (r1, y1) in zip(points, points[1:]):
        if r < r1:
            return y0 + (r - r0) * (y1 - y0) / (r1 - r0)
    raise AssertionError("unreachable")


def compose_inverse(f: KFunction, g: KFunction, y: float) -> float:
    """(f o g)^-1 (y) = g^-1(f^-1(y))."""
    return g.inverse(f.inverse(y))
